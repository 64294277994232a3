"""Rank-*n* index domains (§2.1 of the paper).

An *index domain* ``I`` of rank ``n`` is an ordered set of subscript tuples
represented by a subscript-triplet list of length ``n``.  ``I`` is a
*standard* index domain iff the stride in each triplet is 1.  Every declared
array ``A`` is associated with a standard index domain ``I^A``; scalars are
modelled as the rank-0 domain with exactly one (empty) index tuple.

Enumeration, linearization and de-linearization follow Fortran column-major
order (first subscript varies fastest), which is also the sequence
association order used to map processor arrangements onto the abstract
processor arrangement (§3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.fortran.triplet import Triplet

__all__ = ["IndexDomain"]


@dataclass(frozen=True)
class IndexDomain:
    """An ordered set of rank-*n* subscript tuples (one triplet per dim).

    The rank-0 domain (``IndexDomain(())``) has exactly one element, the
    empty tuple — this is how scalars are accommodated in the model (§2.2).
    """

    dims: tuple[Triplet, ...]

    def __init__(self, dims: Iterable[Triplet]) -> None:
        object.__setattr__(self, "dims", tuple(dims))
        for d in self.dims:
            if not isinstance(d, Triplet):
                raise TypeError(f"index domain dims must be Triplets, got {d!r}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def standard(*extents: int) -> "IndexDomain":
        """The standard domain ``[1:e1, 1:e2, ...]``."""
        return IndexDomain(Triplet.of_extent(e) for e in extents)

    @staticmethod
    def of_bounds(*bounds: tuple[int, int]) -> "IndexDomain":
        """A domain from ``(lower, upper)`` pairs, stride 1 in every dim."""
        return IndexDomain(Triplet(lo, up, 1) for lo, up in bounds)

    @staticmethod
    def scalar() -> "IndexDomain":
        """The rank-0 domain of a scalar: exactly one element, ``()``."""
        return IndexDomain(())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def shape(self) -> tuple[int, ...]:
        """Extent of every dimension."""
        return tuple(len(d) for d in self.dims)

    @property
    def lowers(self) -> tuple[int, ...]:
        return tuple(d.lower for d in self.dims)

    @property
    def uppers(self) -> tuple[int, ...]:
        """Tight upper bounds (last value taken in each dimension)."""
        return tuple(d.last for d in self.dims)

    @property
    def size(self) -> int:
        """Total number of index tuples (1 for the rank-0 domain)."""
        n = 1
        for d in self.dims:
            n *= len(d)
        return n

    @property
    def is_empty(self) -> bool:
        return self.size == 0

    @property
    def is_standard(self) -> bool:
        """§2.1: standard iff every stride is 1."""
        return all(d.stride == 1 for d in self.dims)

    def __contains__(self, index: object) -> bool:
        if not isinstance(index, tuple) or len(index) != self.rank:
            return False
        return all(i in d for i, d in zip(index, self.dims))

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        """Enumerate index tuples in Fortran column-major order."""
        if self.rank == 0:
            yield ()
            return
        if self.is_empty:
            return
        # column-major: first subscript fastest
        values = [list(d) for d in self.dims]
        idx = [0] * self.rank
        total = self.size
        for _ in range(total):
            yield tuple(values[k][idx[k]] for k in range(self.rank))
            for k in range(self.rank):
                idx[k] += 1
                if idx[k] < len(values[k]):
                    break
                idx[k] = 0

    # ------------------------------------------------------------------
    # Column-major linearization (sequence association)
    # ------------------------------------------------------------------
    def linear_index(self, index: Sequence[int]) -> int:
        """0-based column-major position of ``index`` within the domain."""
        index = tuple(index)
        if index not in self:
            raise IndexError(f"index {index} not in domain {self}")
        offset = 0
        mult = 1
        for v, d in zip(index, self.dims):
            offset += d.position(v) * mult
            mult *= len(d)
        return offset

    def index_at(self, linear: int) -> tuple[int, ...]:
        """Inverse of :meth:`linear_index`."""
        if not 0 <= linear < self.size:
            raise IndexError(
                f"linear index {linear} out of range for domain of size "
                f"{self.size}")
        out = []
        for d in self.dims:
            n = len(d)
            out.append(d.value_at(linear % n))
            linear //= n
        return tuple(out)

    def linear_indices(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`linear_index` over an ``(m, rank)`` array."""
        indices = np.asarray(indices, dtype=np.int64)
        if self.rank == 0:
            return np.zeros(len(indices), dtype=np.int64)
        offset = np.zeros(indices.shape[0], dtype=np.int64)
        mult = 1
        for k, d in enumerate(self.dims):
            pos = (indices[:, k] - d.lower) // d.stride
            offset += pos * mult
            mult *= len(d)
        return offset

    # ------------------------------------------------------------------
    # Derived domains
    # ------------------------------------------------------------------
    def to_standard(self) -> "IndexDomain":
        """The standard domain with the same shape, rebased to 1."""
        return IndexDomain.standard(*self.shape)

    def drop_dims(self, dims_to_drop: Iterable[int]) -> "IndexDomain":
        """Domain with the 0-based dimensions in ``dims_to_drop`` removed."""
        drop = set(dims_to_drop)
        return IndexDomain(d for k, d in enumerate(self.dims) if k not in drop)

    def __str__(self) -> str:
        if self.rank == 0:
            return "[scalar]"
        return "[" + ", ".join(str(d) for d in self.dims) + "]"
