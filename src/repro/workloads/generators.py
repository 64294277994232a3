"""Deterministic sweep and RNG helpers shared by benches and tests."""

from __future__ import annotations

import itertools
import zlib
from typing import Iterable, Iterator, Mapping

import numpy as np

__all__ = ["sweep", "seeded_rng"]


def sweep(**axes: Iterable) -> Iterator[Mapping[str, object]]:
    """Cartesian parameter sweep: ``sweep(n=[64,128], p=[4,16])`` yields
    dicts in deterministic (itertools.product) order."""
    keys = list(axes.keys())
    for combo in itertools.product(*axes.values()):
        yield dict(zip(keys, combo))


def seeded_rng(*key: object) -> np.random.Generator:
    """A generator seeded deterministically from a structured key, so
    every process sees identical 'random' data (``hash`` of a string is
    salted per process; a CRC is not)."""
    seed = zlib.crc32("\0".join(str(k) for k in key).encode())
    return np.random.default_rng(seed)
