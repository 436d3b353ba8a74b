"""Catalog tables: printed rows, cross-links to entries, and module checks.

Each row stores its printed columns verbatim as data.  Rows referring to an
executable entry carry a link with the pinned parameters and the numeric
values the row prints for them; rows whose module (but not family) is in
scope carry a module builder so the dimensions, the toral stabiliser and
the quotient estimate can be validated directly.  The remaining rows are
metadata only.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from ..lie import (
    LieAlgebra,
    Representation,
    defining,
    direct_sum,
    dual,
    ext_power,
    lift_factor,
    product,
    sl,
    so,
    sp,
    sym_power,
    subrepresentation,
    tensor,
)
from .support import MatrixPairModule, left_right_fields

__all__ = [
    "TableRow",
    "EntryLink",
    "ModuleSpec",
    "TABLE_COLUMNS",
    "TABLE_CAPTIONS",
    "all_rows",
    "get_row",
    "rows_for_entry",
]


@dataclass(frozen=True)
class EntryLink:
    """Printed values of a row at pinned parameters of a catalog entry."""

    entry_id: str
    pinned: dict | None  # None: evaluate at whatever parameters the entry ran with
    minimum: dict = field(default_factory=dict)
    values: Callable[[dict], dict] | None = None  # params -> {l, dim_v, ...}


@dataclass(frozen=True)
class ModuleSpec:
    """Bare-module instantiation for rows without an executable family."""

    build: Callable[[dict], Representation]
    default_params: dict
    expected: Callable[[dict], dict]  # params -> {dim_v, gs, quotient_dim?}


@dataclass(frozen=True)
class TableRow:
    id: str
    table: int
    printed: tuple[tuple[str, str], ...]
    links: tuple[EntryLink, ...] = ()
    module_spec: ModuleSpec | None = None
    note: str = ""


TABLE_COLUMNS = {
    1: ("group", "module", "dim_v", "dim_v_quotient", "q", "fa", "eq"),
    2: ("group", "module", "h", "theta", "ref"),
    3: ("group", "module", "h", "grading", "ref"),
    4: ("group", "module", "h", "range", "fa"),
}

TABLE_CAPTIONS = {
    1: "modules with a one-dimensional toral generic stabiliser",
    2: "modules from order-k automorphisms; h is the generic stabiliser",
    3: "modules from Z-gradings; h is the generic stabiliser",
    4: "further modules with toral generic stabilisers",
}


# -- module builders ----------------------------------------------------------


def _so_pair_module(params: dict) -> Representation:
    n = params["n"]
    galg = product(so(n + 2), so(n))
    label = "%dx%d" % (n + 2, n)
    return MatrixPairModule(galg, [(n + 2, n)], left_right_fields(galg), label=label).rep


def _two_factor_pairs_module(params: dict) -> Representation:
    n = params["n"]
    galg = product(sl(n), sl(n))
    shapes = [(n, n), (n, n)]
    return MatrixPairModule(galg, shapes, left_right_fields(galg), label="pairs(%d)" % n).rep


def _ext2(g: LieAlgebra) -> Representation:
    return ext_power(defining(g), 2)


def _sym(k: int) -> Callable[[LieAlgebra], Representation]:
    return lambda g: sym_power(defining(g), k)


def _sl6_two_ext2_plus_dual(params: dict) -> Representation:
    r = _ext2(sl(6))
    return direct_sum(r, r, dual(r))


def _sl6_three_ext2(params: dict) -> Representation:
    r = _ext2(sl(6))
    return direct_sum(r, r, r)


@functools.cache
def _sp6_phi2(g6: LieAlgebra) -> Representation:
    """The 14-dimensional summand of the second exterior power of Sp_6, built once."""
    r = _ext2(g6)
    pairs = list(itertools.combinations(range(6), 2))
    form_pairs = [(0, 3), (1, 4), (2, 5)]  # pairs with J(e_i, e_j) = 1
    vectors = [[Fraction(q == p) for q in pairs] for p in pairs if p not in form_pairs]
    for a, b in ((0, 1), (1, 2)):
        vectors.append([Fraction((q == form_pairs[a]) - (q == form_pairs[b])) for q in pairs])
    return subrepresentation(r, vectors, label="phi2(sp6)")


def _sp6_two_phi2(params: dict) -> Representation:
    r = _sp6_phi2(sp(6))
    return direct_sum(r, r)


def _two_factor_module(*factors) -> Callable[[dict], Representation]:
    """Builder of the tensor product, over g_0 x g_1, of one module of each
    factor; ``factors`` are (algebra builder, its size, module of the
    algebra) for g_0 and g_1."""

    def build(params: dict) -> Representation:
        galg = product(*(alg(n) for alg, n, _ in factors))
        return tensor(*(lift_factor(galg, i, mod(galg.factors[i].algebra))
                        for i, (*_, mod) in enumerate(factors)))

    return build


# -- the rows -----------------------------------------------------------------


def _toral_row(build: Callable[[dict], Representation], dim_v: int, quotient_dim: int) -> ModuleSpec:
    """A parameter-free module with a one-dimensional generic stabiliser."""
    return ModuleSpec(build, {}, lambda p: {"dim_v": dim_v, "gs": 1, "quotient_dim": quotient_dim})


def _row(table: int, id: str, *printed: str, **kw) -> TableRow:
    """Row ``id`` of ``table``, printing its ``TABLE_COLUMNS`` in order."""
    return TableRow(
        id="table%d/%s" % (table, id),
        table=table,
        printed=tuple(zip(TABLE_COLUMNS[table], printed, strict=True)),
        **kw,
    )


_ROWS: list[TableRow] = [
    # Table 1
    _row(
        1, "1a", "SO_{n+2} x SO_n", "phi1 phi1'", "n(n+2)", "n", "n(n+1)", "yes", "yes",
        module_spec=ModuleSpec(
            build=_so_pair_module,
            default_params={"n": 3},
            expected=lambda p: {
                "dim_v": p["n"] * (p["n"] + 2),
                "gs": 1,
                "quotient_dim": p["n"],
            },
        ),
    ),
    _row(
        1, "1b", "SO_{n+2}", "n phi1", "n(n+2)", "n(n+1)/2", "n(n+1)", "yes", "yes, if n <= 3",
        links=(
            EntryLink(
                entry_id="ex6.4",
                pinned=None,
                values=lambda p: {
                    "l": 1,
                    "dim_v": p["n"] * (p["n"] + 2),
                    "quotient_dim": p["n"] * (p["n"] + 1) // 2,
                    "q": p["n"] * (p["n"] + 1),
                },
            ),
        ),
    ),
    _row(
        1, "2", "SL_6", "2phi2 + phi2*", "45", "11", "36", "yes", "no",
        module_spec=_toral_row(_sl6_two_ext2_plus_dual, 45, 11),
    ),
    _row(
        1, "3a", "SL_6 x SL_3", "phi2 phi1'", "45", "3", "36", "yes", "yes",
        module_spec=_toral_row(_two_factor_module((sl, 6, _ext2), (sl, 3, defining)), 45, 3),
    ),
    _row(
        1, "3b", "SL_6 x SL_2", "phi2 phi'^2", "45", "8", "36", "no", "no",
        module_spec=_toral_row(_two_factor_module((sl, 6, _ext2), (sl, 2, _sym(2))), 45, 8),
    ),
    _row(
        1, "3c", "SL_6", "3phi2", "45", "11", "36", "yes", "no",
        module_spec=_toral_row(_sl6_three_ext2, 45, 11),
    ),
    _row(
        1, "4a", "Sp_6 x SL_2", "phi2 phi'", "28", "5", "22", "no", "no",
        module_spec=_toral_row(_two_factor_module((sp, 6, _sp6_phi2), (sl, 2, defining)), 28, 5),
    ),
    _row(
        1, "4b", "Sp_6", "2phi2", "28", "8", "22", "yes", "yes",
        module_spec=_toral_row(_sp6_two_phi2, 28, 8),
    ),
    _row(
        1, "5", "SL_4 x SL_2", "phi2 phi'^3", "24", "7", "20", "no", "no",
        module_spec=_toral_row(_two_factor_module((sl, 4, _ext2), (sl, 2, _sym(3))), 24, 7),
    ),
    # Table 2
    _row(
        2, "1", "SO_2m x Sp_2m", "phi1 phi1'", "t_m", "(A^(2)_{4m-1}, 4)", "ex6.3/i",
        links=(EntryLink("ex6.3/i", pinned=None, values=lambda p: {"l": p["m"]}),),
    ),
    _row(
        2, "2", "SO_2m+1 x Sp_2m", "phi1 phi1'", "t_m", "(A^(2)_{4m}, 4)", "ex6.3/ii",
        links=(EntryLink("ex6.3/ii", pinned=None, values=lambda p: {"l": p["m"]}),),
    ),
    _row(
        2, "3", "SO_2m+2 x Sp_2m", "phi1 phi1'", "t_{m+1}", "(A^(2)_{4m+1}, 4)", "ex6.3/iii",
        links=(EntryLink("ex6.3/iii", pinned=None, values=lambda p: {"l": p["m"] + 1}),),
    ),
    _row(
        2, "4", "(SL_n)^k x T_{k-1}", "sum_i phi1^(i) phi_{n-1}^(i+1)", "t_{n-1}", "(A_{kn-1}, k)", "ex5.3",
        links=(EntryLink("ex5.3", pinned=None, values=lambda p: {"l": p["n"] - 1}),),
    ),
    _row(
        2, "5", "SL_4 x SL_4 x SL_2", "phi1 phi1' phi''", "t_3", "(E_7, 4)", "ex5.1",
        links=(EntryLink("ex5.1", pinned={"n": 4}, values=lambda p: {"l": 3, "dim_v": 32}),),
    ),
    _row(2, "6", "SL_6 x SL_3", "phi2 phi1'", "t_1", "(E_7, 3)", "-", note="metadata only"),
    _row(2, "6a", "SL_6", "3phi2", "t_1", "-", "-", note="metadata only"),
    _row(2, "7", "SL_6 x SL_2", "phi3 phi'", "t_2", "(E_6, 2)", "-", note="metadata only"),
    _row(2, "7a", "SL_6", "2phi3", "t_2", "-", "-", note="metadata only"),
    _row(
        2, "8", "SO_{n+2} x SO_n", "phi1 phi1'", "t_1", "(D_{n+1}, 2)", "-",
        module_spec=ModuleSpec(
            build=_so_pair_module,
            default_params={"n": 3},
            expected=lambda p: {"dim_v": p["n"] * (p["n"] + 2), "gs": 1},
        ),
    ),
    _row(
        2, "8a", "SO_{n+2}", "n phi1", "t_1", "-", "ex6.4",
        links=(EntryLink("ex6.4", pinned=None, values=lambda p: {"l": 1}),),
    ),
    # Table 3
    _row(
        3, "1", "SL_2 x SL_2 x SL_2", "phi phi' phi''", "t_2", "(D_4, alpha_2)", "ex5.2",
        links=(EntryLink("ex5.2", pinned=None, values=lambda p: {"l": 2, "dim_v": 8}),),
    ),
    _row(
        3, "2", "SL_3 x SL_3 x SL_2", "phi1 phi1' phi''", "t_2", "(E_6, alpha_3)", "ex5.1",
        links=(EntryLink("ex5.1", pinned={"n": 3}, values=lambda p: {"l": 2, "dim_v": 18}),),
    ),
    # Table 4
    _row(
        4, "1", "SL_n", "phi1^2 + phi2*", "t_{[n/2]}", "n >= 4", "yes",
        links=(
            EntryLink(
                "ex6.1",
                pinned=None,
                minimum={"n": 4},
                values=lambda p: {"l": p["n"] // 2, "dim_v": p["n"] ** 2},
            ),
        ),
    ),
    _row(
        4, "2", "SL_n", "phi1^2 + phi2", "t_{[n/2]}", "n >= 4", "yes",
        links=(
            EntryLink(
                "ex6.2",
                pinned=None,
                minimum={"n": 4},
                values=lambda p: {"l": p["n"] // 2, "dim_v": p["n"] ** 2},
            ),
        ),
    ),
    _row(
        4, "3", "SL_n x SL_n x SL_2", "phi1 phi1' phi''", "t_{n-1}", "n >= 5", "no",
        links=(
            EntryLink(
                "ex5.1",
                pinned=None,
                minimum={"n": 5},
                values=lambda p: {"l": p["n"] - 1, "dim_v": 2 * p["n"] ** 2},
            ),
        ),
    ),
    _row(
        4, "3a", "SL_n x SL_n", "phi1 phi1' + phi1 phi1'", "t_{n-1}", "n >= 3", "yes",
        links=(
            EntryLink(
                "ex5.1",
                pinned=None,
                minimum={"n": 3},
                values=lambda p: {"l": p["n"] - 1, "dim_v": 2 * p["n"] ** 2},
            ),
        ),
        module_spec=ModuleSpec(
            build=_two_factor_pairs_module,
            default_params={"n": 3},
            expected=lambda p: {"dim_v": 2 * p["n"] ** 2, "gs": p["n"] - 1},
        ),
        note="same pairs as the linked entry, without the mixing sl_2",
    ),
    _row(4, "4", "SL_8", "phi3 + phi7", "t_2", "-", "yes", note="metadata only"),
    _row(4, "5", "SL_8", "phi3 + phi1", "t_2", "-", "yes", note="metadata only"),
    _row(4, "6", "Sp_4 x SO_7", "phi1 phi3'", "t_2", "-", "yes", note="metadata only"),
]

_BY_ID = {r.id: r for r in _ROWS}


def all_rows() -> list[TableRow]:
    return list(_ROWS)


def get_row(row_id: str) -> TableRow:
    try:
        return _BY_ID[row_id]
    except KeyError:
        raise KeyError("unknown table row %r" % row_id) from None


def rows_for_entry(entry_id: str) -> list[tuple[TableRow, EntryLink]]:
    out = []
    for r in _ROWS:
        for link in r.links:
            if link.entry_id == entry_id:
                out.append((r, link))
    return out
