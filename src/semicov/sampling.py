"""Deterministic random number streams.

Seeding `random.Random` with a str is process-independent (the str is hashed
with sha512 by the seed machinery), unlike seeding with tuples or other
hashables, which go through `hash()` and vary with PYTHONHASHSEED.  Every
sampled row, identity checks and estimators alike, draws its points through
`poly.CheckContext` (`rng` and `draw`), which derives its streams here, so
reports are reproducible byte-for-byte across runs and processes.
"""

from __future__ import annotations

import random


def derive_rng(seed: int, *labels: str) -> random.Random:
    key = "|".join([str(seed), *[str(l) for l in labels]])
    return random.Random(key)


def rand_vector(rng: random.Random, n: int, bound: int) -> list:
    return [rng.randint(-bound, bound) for _ in range(n)]

