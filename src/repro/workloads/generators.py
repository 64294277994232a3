"""Deterministic RNG helper shared by benches and tests."""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["seeded_rng"]


def seeded_rng(*key: object) -> np.random.Generator:
    """A generator seeded deterministically from a structured key, so
    every process sees identical 'random' data (``hash`` of a string is
    salted per process; a CRC is not)."""
    seed = zlib.crc32("\0".join(str(k) for k in key).encode())
    return np.random.default_rng(seed)
