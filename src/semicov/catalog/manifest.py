"""Frozen expected values, shipped as package data and read at startup.

The manifest pins the numerology of every instantiation the test suite
exercises.  Each construction audit compares the values computed by the
library against the corresponding manifest line, so a regression in either
the construction code or the catalog data is caught by the other side.

``data/catalog.json`` is a JSON array with one record per line::

    {"kind": "check", "target": <entry-id>, "params": {<param>: <int>}, "values": {...}}
    {"kind": "table", "target": <row-id>,   "params": {<param>: <int>}, "values": {...}}

``check`` values: dim_v, l, q, degrees (a list of ints), audit
(equality|surplus), quotient_dim.  ``table`` values: dim_v, gs and
optionally quotient_dim.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from importlib import resources

__all__ = ["ManifestLine", "load_manifest", "find_line"]


@dataclass(frozen=True)
class ManifestLine:
    kind: str  # "check" | "table"
    target: str  # entry or table-row id
    params: tuple[tuple[str, int], ...]
    values: dict


@cache
def load_manifest() -> list[ManifestLine]:
    records = json.loads(resources.files("semicov").joinpath("data/catalog.json").read_text())
    return [
        ManifestLine(
            kind=rec["kind"],
            target=rec["target"],
            params=tuple(sorted(rec["params"].items())),
            values={k: tuple(v) if k == "degrees" else v for k, v in rec["values"].items()},
        )
        for rec in records
    ]


def find_line(kind: str, target: str, params: dict) -> ManifestLine | None:
    key = tuple(sorted((k, int(v)) for k, v in params.items()))
    for line in load_manifest():
        if line.kind == kind and line.target == target and line.params == key:
            return line
    return None
