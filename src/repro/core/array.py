"""Arrays of the model: declared data arrays and allocatables (§2.1, §6).

An :class:`HpfArray` couples a name, a standard index domain ``I^A``, an
element dtype and (optionally) global canonical storage.  The canonical
storage is the *sequential semantics* view used by the reference executor
to validate the simulated distributed execution — the machine simulator
keeps its own per-processor local pieces.

Allocatable arrays are declared with a rank but no domain; ALLOCATE gives
them a domain/storage instance and DEALLOCATE removes it (§6).  The
DYNAMIC attribute gates REDISTRIBUTE/REALIGN (§4.2, §5.2).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import AllocationError
from repro.fortran.domain import IndexDomain

__all__ = ["HpfArray"]


class HpfArray:
    """A data array of the model.

    Parameters
    ----------
    name:
        Unique name within its scope.
    domain:
        The standard index domain; ``None`` for an unallocated allocatable.
    dtype:
        NumPy element dtype (default ``float64``).
    allocatable, dynamic:
        The §6 ALLOCATABLE and §4.2/§5.2 DYNAMIC attributes.
    rank:
        Declared rank; required (and only allowed) when ``domain`` is
        ``None``.
    """

    def __init__(self, name: str, domain: IndexDomain | None = None, *,
                 dtype: np.dtype | type = np.float64,
                 allocatable: bool = False, dynamic: bool = False,
                 rank: int | None = None) -> None:
        if domain is None:
            if not allocatable:
                raise AllocationError(
                    f"array {name!r} declared without shape must be "
                    "ALLOCATABLE")
            if rank is None:
                raise AllocationError(
                    f"allocatable array {name!r} needs a declared rank "
                    "(deferred shape '(:,:)' etc.)")
        elif rank is not None and rank != domain.rank:
            raise AllocationError(
                f"array {name!r}: declared rank {rank} contradicts domain "
                f"{domain}")
        self.name = name
        self.dtype = np.dtype(dtype)
        self.allocatable = allocatable
        self.dynamic = dynamic
        self.declared_rank = rank if rank is not None else (
            domain.rank if domain is not None else None)
        self._domain: IndexDomain | None = None
        self._data: np.ndarray | None = None
        #: generation counter bumped on every (re-)allocation — lets caches
        #: elsewhere detect stale references to a previous instance
        self.instance = 0
        if domain is not None:
            self._create(domain)

    # ------------------------------------------------------------------
    # Instance lifecycle
    # ------------------------------------------------------------------
    def _create(self, domain: IndexDomain) -> None:
        if not domain.is_standard:
            raise AllocationError(
                f"array {self.name!r} must have a standard (stride-1) "
                f"index domain, got {domain}")
        self._domain = domain
        self._data = np.zeros(domain.shape, dtype=self.dtype, order="F")
        self.instance += 1

    def allocate(self, domain: IndexDomain) -> None:
        """Give the allocatable a new instance (ALLOCATE, §6)."""
        if not self.allocatable:
            raise AllocationError(
                f"ALLOCATE applied to non-allocatable array {self.name!r}")
        if self.is_allocated:
            raise AllocationError(
                f"array {self.name!r} is already allocated")
        if domain.rank != self.declared_rank:
            raise AllocationError(
                f"ALLOCATE({self.name}) with rank {domain.rank} but the "
                f"declared rank is {self.declared_rank}")
        self._create(domain)

    def deallocate(self) -> None:
        """Destroy the current instance (DEALLOCATE, §6)."""
        if not self.allocatable:
            raise AllocationError(
                f"DEALLOCATE applied to non-allocatable array {self.name!r}")
        if not self.is_allocated:
            raise AllocationError(
                f"array {self.name!r} is not allocated")
        self._domain = None
        self._data = None

    @property
    def is_allocated(self) -> bool:
        """True iff the array currently has an instance (always true for
        non-allocatable arrays)."""
        return self._domain is not None

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def domain(self) -> IndexDomain:
        if self._domain is None:
            raise AllocationError(
                f"array {self.name!r} is not allocated")
        return self._domain

    @property
    def shape(self) -> tuple[int, ...]:
        return self.domain.shape

    @property
    def data(self) -> np.ndarray:
        """Global canonical storage (Fortran-ordered)."""
        if self._data is None:
            raise AllocationError(
                f"array {self.name!r} is not allocated")
        return self._data

    def _position(self, index: Sequence[int]) -> tuple[int, ...]:
        idx = tuple(index)
        if idx not in self.domain:
            raise IndexError(
                f"{self.name}{idx} outside index domain {self.domain}")
        return tuple(d.position(v) for v, d in zip(idx, self.domain.dims))

    def get(self, index: Sequence[int]):
        """Element at a *global* (declared-bounds) index tuple."""
        return self.data[self._position(index)]

    def set(self, index: Sequence[int], value) -> None:
        self.data[self._position(index)] = value

    def fill_sequence(self) -> None:
        """Fill with 0, 1, 2, ... in column-major element order (handy for
        tests that need to recognize elements after data movement)."""
        flat = np.arange(self.domain.size, dtype=self.dtype)
        self._data = flat.reshape(self.shape, order="F")

    def __repr__(self) -> str:
        dom = str(self._domain) if self._domain is not None else "<unallocated>"
        attrs = "".join([
            ", ALLOCATABLE" if self.allocatable else "",
            ", DYNAMIC" if self.dynamic else "",
        ])
        return f"<HpfArray {self.name}{dom} {self.dtype}{attrs}>"
