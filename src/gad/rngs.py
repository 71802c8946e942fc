"""Deterministic RNG stream derivation.

Every random choice in the pipeline draws from a generator derived from the
user seed plus a fixed stage constant (and, where relevant, a partition,
restart or worker index), so reruns with the same seed are bit-identical
and per-unit streams are independent.
"""

from __future__ import annotations

import numpy as np

SPLIT = 0
COARSEN = 1
RESTART = 2
AUGMENT = 3
INIT = 4
ZETA = 5
SYNTH = 7


def stream(*key: int) -> np.random.Generator:
    """Generator for an integer key tuple, e.g. ``stream(seed, AUGMENT, part)``."""
    return np.random.default_rng(np.random.SeedSequence(tuple(int(k) for k in key)))
