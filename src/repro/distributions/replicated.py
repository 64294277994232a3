"""Replication (§2.2 footnote, §3 scalar policy, and a format extension).

The paper's Definition 1 maps indices to *sets* of processors precisely so
that "replication can be modeled as a special case of distribution, since
every array element can be distributed to an arbitrary (positive) number of
processors".  Replication arises in three places:

* the ``*`` base subscript of ALIGN (§5.1) — handled by the alignment
  machinery and CONSTRUCT;
* scalar processor arrangements with the REPLICATED policy (§3) — handled
  by :class:`ReplicatedDistribution`, a whole-domain replication onto a
  fixed set of AP units;
* an explicit per-dimension ``REPLICATED`` format (a library extension in
  the spirit of the paper's generalized distribution-function concept),
  :class:`ReplicatedFormat`, under which every target coordinate of the
  matched dimension owns every element of the array dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.distributions.base import DimDistribution, DistributionFormat
from repro.distributions.distribution import Distribution
from repro.errors import DistributionError
from repro.fortran.domain import IndexDomain
from repro.fortran.triplet import Triplet

__all__ = ["ReplicatedFormat", "ReplicatedDim", "ReplicatedDistribution"]


@dataclass(frozen=True, eq=False)
class ReplicatedFormat(DistributionFormat):
    """Per-dimension replication across the matched target dimension."""

    is_extension = True

    def bind(self, dim: Triplet, np_: int) -> "ReplicatedDim":
        return ReplicatedDim(self, dim, np_)

    def __str__(self) -> str:
        return "REPLICATED"


class ReplicatedDim(DimDistribution):
    """Bound replication: every coordinate owns the whole dimension."""

    @property
    def is_replicated(self) -> bool:
        return True

    def owner_coord(self, i: int) -> int:
        self._check_index(i)
        return 0   # primary copy lives on coordinate 0

    def owner_coords(self, i: int) -> tuple[int, ...]:
        self._check_index(i)
        return tuple(range(self.np_))

    def owners_of(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.int64)
        return np.zeros(values.shape, dtype=np.int64)

    def owned(self, coord: int) -> tuple[Triplet, ...]:
        self._check_coord(coord)
        return (self.dim.normalized(),)

    def local_index(self, i: int) -> int:
        self._check_index(i)
        return i - self.dim.lower

    def local_index_of(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.int64)
        return values - self.dim.lower

    def global_index(self, coord: int, local: int) -> int:
        self._check_coord(coord)
        i = self.dim.lower + local
        self._check_index(i)
        return i


class ReplicatedDistribution(Distribution):
    """Whole-domain replication onto a fixed set of AP units.

    Used for scalars / scalar arrangements with the REPLICATED policy, and
    as the degenerate distribution of data on a conceptually scalar
    arrangement (§3).
    """

    def __init__(self, domain: IndexDomain, units: Sequence[int]) -> None:
        units = tuple(sorted(set(int(u) for u in units)))
        if not units:
            raise DistributionError(
                "replication target must contain at least one processor")
        super().__init__(domain)
        self.units = units

    @property
    def is_replicated(self) -> bool:
        # a single-unit "replication" is just placement on one processor
        return len(self.units) > 1

    def owners(self, index: Sequence[int]) -> frozenset[int]:
        index = tuple(index)
        if index not in self.domain:
            raise DistributionError(
                f"index {index} outside domain {self.domain}")
        return frozenset(self.units)

    def primary_owner(self, index: Sequence[int]) -> int:
        return self.units[0]

    def _compute_owner_map(self) -> np.ndarray:
        return np.full(self.domain.shape, self.units[0], dtype=np.int64,
                       order="F")

    def owners_of(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        return np.full(indices.shape[0], self.units[0], dtype=np.int64)

    def owner_mask(self, unit: int) -> np.ndarray:
        return np.full(self.domain.shape, unit in self.units, dtype=bool)

    def processors(self) -> tuple[int, ...]:
        return self.units

    def local_extent(self, unit: int) -> int:
        return self.domain.size if unit in self.units else 0

    def describe(self) -> str:
        return (f"REPLICATED over AP units {list(self.units)} "
                f"on {self.domain}")
