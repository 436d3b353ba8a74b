"""Registry of executable catalog entries.

Every entry names a construction builder, its parameters with allowed
ranges and defaults, and the catalog table rows it instantiates.  Entry ids
and aliases are part of the command-line contract.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .families import (
    Construction,
    adjoint_construction,
    cubic_construction,
    quiver_construction,
    so_copies_construction,
    sp_so_construction,
    sym_skew_construction,
    sym_skewdual_construction,
    tri_sl_construction,
)

__all__ = [
    "ParamSpec",
    "CatalogEntry",
    "UnknownEntryError",
    "ParameterError",
    "all_entries",
    "get_entry",
    "resolve_id",
    "build_construction",
]


@dataclass(frozen=True)
class ParamSpec:
    name: str
    default: int
    minimum: int
    note: str = ""


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    aliases: tuple[str, ...]
    title: str
    group: str
    module: str
    params: tuple[ParamSpec, ...]
    build: Callable[..., Construction]
    degrees_text: str = ""
    invariant_degrees_text: str = ""
    notes: tuple[str, ...] = ()

    def resolve(self, overrides: dict | None = None) -> dict:
        """Each parameter's override, else its default, in parameter order;
        other keys are ignored and nothing is range-checked."""
        overrides = overrides or {}
        return {p.name: overrides.get(p.name, p.default) for p in self.params}


class UnknownEntryError(KeyError):
    pass


class ParameterError(ValueError):
    pass


_ENTRIES: list[CatalogEntry] = [
    CatalogEntry(
        id="ex-adjoint",
        aliases=("adjoint",),
        title="trace-zero matrices acting on themselves",
        group="SL_n",
        module="n x n trace-zero matrices, adjoint action",
        params=(ParamSpec("n", 3, 2),),
        build=adjoint_construction,
        degrees_text="1, 2, ..., n-1",
        invariant_degrees_text="2, 3, ..., n",
        notes=("family: metric-dual gradients of the characteristic coefficients",),
    ),
    CatalogEntry(
        id="ex5.1",
        aliases=("tri-sl",),
        title="matrix pairs under two special linear factors and a mixing sl_2",
        group="SL_n x SL_n x SL_2",
        module="pairs (A, B) of n x n matrices; sl_2 mixes the two slots",
        params=(ParamSpec("n", 3, 2, note="n = 2 degenerates to the 2x2x2 cube entry"),),
        build=tri_sl_construction,
        degrees_text="n, repeated n-1 times",
        notes=(
            "equivariant for the two SL_n factors only; the sl_2 directions fail by design",
            "the family spans the (n-1)-dimensional irreducible sl_2 module",
        ),
    ),
    CatalogEntry(
        id="ex5.2",
        aliases=("cubic",),
        title="2x2x2 coordinate cube under three sl_2 factors",
        group="SL_2 x SL_2 x SL_2",
        module="trilinear cube a[i][j][k], factor t acting on slot t",
        params=(),
        build=cubic_construction,
        degrees_text="2, 2",
        invariant_degrees_text="4",
        notes=("combination lam*G_0 + mu*G_1 + nu*G_2 is a kernel covariant iff lam+mu+nu = 0",),
    ),
    CatalogEntry(
        id="ex5.3",
        aliases=("quiver", "quiver-sl"),
        title="cyclic chain of matrix slots, trace-zero acting algebra",
        group="S(GL_n x ... x GL_n), k factors",
        module="k matrices M_i of size n x n, M_i placed on arc i -> i+1 (mod k)",
        params=(ParamSpec("n", 2, 2), ParamSpec("k", 2, 2)),
        build=lambda n, k: quiver_construction(n, k, "sl"),
        degrees_text="k, 2k, ..., (n-1)k",
        invariant_degrees_text="k, 2k, ..., nk",
        notes=("covariants are trace-adjusted k*i-th powers of the cycle matrix",),
    ),
    CatalogEntry(
        id="ex5.3/gl",
        aliases=("quiver-gl",),
        title="cyclic chain of matrix slots, full general linear factors",
        group="GL_n x ... x GL_n, k factors",
        module="k matrices M_i of size n x n, M_i placed on arc i -> i+1 (mod k)",
        params=(ParamSpec("n", 2, 2), ParamSpec("k", 2, 2)),
        build=lambda n, k: quiver_construction(n, k, "gl"),
        degrees_text="0, k, 2k, ..., (n-1)k",
        invariant_degrees_text="k, 2k, ..., nk",
    ),
    CatalogEntry(
        id="ex6.1",
        aliases=("sym-skewdual",),
        title="symmetric plus dual-skew matrix pairs",
        group="SL_n",
        module="(A, B): A symmetric, B skew transforming in the dual polarity",
        params=(ParamSpec("n", 5, 4),),
        build=sym_skewdual_construction,
        degrees_text="2, 6, ..., 2(2[n/2]-1)",
        notes=("family: odd powers (AB)^(2i-1); all traces vanish identically",),
    ),
    CatalogEntry(
        id="ex6.2",
        aliases=("sym-skew",),
        title="symmetric plus skew matrix pairs",
        group="SL_n",
        module="(A, B): A symmetric, B skew, both in the same polarity",
        params=(ParamSpec("n", 3, 3),),
        build=sym_skew_construction,
        degrees_text="n, repeated [n/2] times",
        notes=(
            "family: even-parameter coefficients of B times the adjugate of A + lam*B",
            "odd coefficients leave the trace-zero algebra and fail the kernel test",
        ),
    ),
    CatalogEntry(
        id="ex6.3/i",
        aliases=("sp-so-i", "sp-so"),
        title="symplectic x orthogonal rectangles, square case n = 2m",
        group="Sp_2m x SO_2m",
        module="2m x n matrices M, left symplectic and right orthogonal action",
        params=(ParamSpec("m", 1, 1),),
        build=lambda m: sp_so_construction(m, "i"),
        degrees_text="2, 6, ..., 2(2m-1)",
    ),
    CatalogEntry(
        id="ex6.3/ii",
        aliases=("sp-so-ii",),
        title="symplectic x orthogonal rectangles, odd case n = 2m+1",
        group="Sp_2m x SO_2m+1",
        module="2m x n matrices M, left symplectic and right orthogonal action",
        params=(ParamSpec("m", 1, 1),),
        build=lambda m: sp_so_construction(m, "ii"),
        degrees_text="2, 6, ..., 2(2m-1)",
    ),
    CatalogEntry(
        id="ex6.3/iii",
        aliases=("sp-so-iii",),
        title="symplectic x orthogonal rectangles, wide case n = 2m+2",
        group="Sp_2m x SO_2m+2",
        module="2m x n matrices M, left symplectic and right orthogonal action",
        params=(ParamSpec("m", 1, 1),),
        build=lambda m: sp_so_construction(m, "iii"),
        degrees_text="2, 6, ..., 2(2m-1), then 2m for the minor covariant",
        notes=("extra covariant: signed complementary column minors of M",),
    ),
    CatalogEntry(
        id="ex6.4",
        aliases=("so-copies",),
        title="orthogonal algebra on copies of its defining columns",
        group="SO_n+2",
        module="(n+2) x n matrices M: n copies of the defining column space",
        params=(ParamSpec("n", 2, 2),),
        build=so_copies_construction,
        degrees_text="n",
        notes=("covariant: signed complementary row minors; satisfies A_M * M = 0",),
    ),
]

_BY_ID = {e.id: e for e in _ENTRIES}
_BY_ALIAS = {}
for _e in _ENTRIES:
    for _a in _e.aliases:
        _BY_ALIAS[_a] = _e.id


def all_entries() -> list[CatalogEntry]:
    return list(_ENTRIES)


def resolve_id(name: str) -> str:
    """Canonical entry id for an id or alias; raises UnknownEntryError."""
    key = name.strip()
    if key in _BY_ID:
        return key
    low = key.lower()
    if low in _BY_ID:
        return low
    if low in _BY_ALIAS:
        return _BY_ALIAS[low]
    raise UnknownEntryError("unknown entry id %r (try `verify list`)" % name)


def get_entry(name: str) -> CatalogEntry:
    return _BY_ID[resolve_id(name)]


def build_construction(entry: CatalogEntry, overrides: dict | None = None) -> Construction:
    """Build at ``entry.resolve(overrides)``; range-checks parameters.

    The construction is stamped with the entry's id and the resolved
    parameters, in the entry's parameter order."""
    overrides = overrides or {}
    values = entry.resolve(overrides)
    for p in entry.params:
        if values[p.name] < p.minimum:
            msg = "parameter %s=%d below the minimum %d for %s" % (
                p.name, values[p.name], p.minimum, entry.id
            )
            if p.note:
                msg += " (%s)" % p.note
            raise ParameterError(msg)
    extra = {k: v for k, v in overrides.items() if k not in values and v is not None}
    if extra:
        raise ParameterError(
            "entry %s does not take parameter(s) %s"
            % (entry.id, ", ".join(sorted(extra)))
        )
    return replace(entry.build(**values), entry_id=entry.id, params=values)
