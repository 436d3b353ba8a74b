"""Catalog of verified constructions and their printed table rows."""

from ..linalg import minor_skew
from .entries import (
    ParameterError,
    UnknownEntryError,
    all_entries,
    build_construction,
    get_entry,
    resolve_id,
)
from .families import (
    CheckContext,
    Construction,
    ExtraCheck,
    adjoint_construction,
    cubic_construction,
    quiver_construction,
    quiver_cycle_matrix,
    quiver_witness_plane,
    so_copies_construction,
    sp_so_construction,
    sym_skew_construction,
    sym_skewdual_construction,
    tri_sl_construction,
)
from .manifest import find_line, load_manifest
from .support import quotient_dim_estimate, traceless_part
from .tables import (
    TABLE_CAPTIONS,
    TABLE_COLUMNS,
    all_rows,
    get_row,
    rows_for_entry,
)

__all__ = [
    "ParameterError",
    "UnknownEntryError",
    "all_entries",
    "get_entry",
    "resolve_id",
    "build_construction",
    "CheckContext",
    "Construction",
    "ExtraCheck",
    "adjoint_construction",
    "cubic_construction",
    "quiver_construction",
    "quiver_cycle_matrix",
    "quiver_witness_plane",
    "so_copies_construction",
    "sp_so_construction",
    "sym_skew_construction",
    "sym_skewdual_construction",
    "tri_sl_construction",
    "find_line",
    "load_manifest",
    "minor_skew",
    "quotient_dim_estimate",
    "traceless_part",
    "TABLE_CAPTIONS",
    "TABLE_COLUMNS",
    "all_rows",
    "get_row",
    "rows_for_entry",
]
