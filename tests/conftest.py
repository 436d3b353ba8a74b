"""Shared test configuration.

The property tests draw their examples from Hypothesis.  The profile
loaded here derandomizes them, so every run covers the same examples: a
failure seen once is seen again, and a pass does not depend on the luck of
the draw.  Each test keeps its own ``max_examples`` and ``deadline``.

``record("linalg.rank", "linalg.Matrix.__init__", ...)`` wraps each named
semicov function at every binding in every loaded semicov module and class,
as ``bench/tracer.py`` does, so a call through a re-export counts too, and
returns ``{path: [Call, ...]}``; ``record.log`` lists every recorded call
in the order the calls began.  Recording starts at that call, after the
fixture has built the catalog's cached algebras and modules, whose first
builds run kernels and ranks.  ``bench_workloads`` is ``bench/workloads.py``.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import sys
from dataclasses import dataclass, field
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("semicov", derandomize=True)
settings.load_profile("semicov")


@dataclass
class Call:
    args: tuple
    kwargs: dict
    result: object = None


def _modules() -> list:
    return [m for name, m in list(sys.modules.items()) if m is not None and name.split(".")[0] == "semicov"]


def _owners() -> list:
    """Every semicov module, and every semicov class that one holds: the
    namespaces that can bind a function."""
    classes = {id(v): v for m in _modules() for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("semicov")}
    return _modules() + list(classes.values())


def _resolve(path: str):
    obj = importlib.import_module("semicov")
    for part in path.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj.__func__ if isinstance(obj, staticmethod) else obj


@dataclass
class Recorder:
    patcher: pytest.MonkeyPatch
    log: list = field(default_factory=list)  # (path, Call) in call order

    def __call__(self, *paths: str) -> dict[str, list[Call]]:
        return {path: self._patch(path) for path in paths}

    def _patch(self, path: str) -> list[Call]:
        inner, calls = _resolve(path), []

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            call = Call(args, kwargs)
            calls.append(call)
            self.log.append((path, call))
            call.result = inner(*args, **kwargs)
            return call.result

        for owner in _owners():
            for attr, val in list(vars(owner).items()):
                if val is inner:
                    self.patcher.setattr(owner, attr, wrapper)
                elif isinstance(val, staticmethod) and val.__func__ is inner:
                    self.patcher.setattr(owner, attr, staticmethod(wrapper))
        return calls


@functools.cache
def _catalog_builds() -> tuple:
    """(path, args) of every call of a ``functools.cache`` builder of semicov
    that building the catalog's entries and table modules makes."""
    from semicov.catalog import all_entries, all_rows, build_construction

    cached = ["%s.%s" % (owner.__name__.removeprefix("semicov."), attr)
              for owner in _modules() for attr, val in vars(owner).items()
              if hasattr(val, "cache_info") and val.__module__ == owner.__name__]
    with pytest.MonkeyPatch.context() as patcher:
        calls = Recorder(patcher)(*cached)
        for entry in all_entries():
            build_construction(entry, entry.resolve())
        for row in all_rows():
            if row.module_spec is not None:
                row.module_spec.build(dict(row.module_spec.default_params))
    return tuple(dict.fromkeys((path, call.args) for path, seen in calls.items() for call in seen))


@pytest.fixture
def record(monkeypatch) -> Recorder:
    for path, args in _catalog_builds():
        _resolve(path)(*args)  # built now, or already, so never recorded
    return Recorder(monkeypatch)


@pytest.fixture(scope="session")
def bench_workloads():
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module
