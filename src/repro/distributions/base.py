"""Distribution-format and bound-dimension abstractions (§4.1).

The DISTRIBUTE directive's format list is *declarative*; a format only
becomes a concrete index mapping once it is bound to a particular array
dimension (a stride-1 triplet ``[L:U]``) and a particular number of target
processors ``NP``.  The two-phase design mirrors that:

* :class:`DistributionFormat` — the parsed, unbound format (``BLOCK``,
  ``CYCLIC(3)``, ``GENERAL_BLOCK(G)``, ``:``);
* :class:`DimDistribution` — the format bound to one dimension, exposing
  owner lookup (scalar and vectorized), the owned index set of each target
  coordinate as a tuple of subscript triplets (always a *regular section*),
  and the local/global index translation the paper specifies.

Target coordinates are 0-based here (``0 .. NP-1``); the 1-based processor
indices of the paper's formulas appear only in docstrings and tests.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.errors import DistributionError
from repro.fortran.triplet import Triplet

__all__ = ["DistributionFormat", "DimDistribution", "Collapsed",
           "CollapsedDim", "check_bindable"]


def check_bindable(dim: Triplet, np_: int) -> None:
    """Validate the (dimension, NP) pair common to every format."""
    if dim.stride != 1:
        raise DistributionError(
            f"distributions bind to standard (stride-1) dimensions, got {dim}")
    if len(dim) == 0:
        raise DistributionError(f"cannot distribute empty dimension {dim}")
    if np_ <= 0:
        raise DistributionError(
            f"distribution target dimension must have at least one "
            f"processor, got {np_}")


class DistributionFormat(abc.ABC):
    """An unbound distribution-format-list entry.

    ``consumes_target_dim`` is False exactly for ``:`` (a colon entry says
    the corresponding array dimension is not distributed, and the rank of
    the target is the distributee rank reduced by the number of colons,
    §4.1).
    """

    #: whether this entry is matched against a target dimension
    consumes_target_dim: bool = True
    #: True for formats beyond the paper's §4 list (library extensions)
    is_extension: bool = False

    @abc.abstractmethod
    def bind(self, dim: Triplet, np_: int) -> "DimDistribution":
        """Bind the format to array dimension ``dim`` and ``np_`` target
        processors, yielding the concrete per-dimension mapping."""

    @abc.abstractmethod
    def __str__(self) -> str: ...

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and str(self) == str(other)

    def __hash__(self) -> int:
        return hash((type(self).__name__, str(self)))


class DimDistribution(abc.ABC):
    """A distribution format bound to one array dimension.

    Concrete subclasses guarantee:

    * totality — every index of the dimension has at least one owner
      (Definition 1: an index mapping is a *total* function into the
      powerset minus the empty set);
    * the owned set of each coordinate is a finite union of subscript
      triplets (regular sections), enabling analytic communication sets;
    * local/global translation is bijective on each coordinate's owned set.
    """

    def __init__(self, fmt: DistributionFormat, dim: Triplet, np_: int) -> None:
        check_bindable(dim, np_)
        self.format = fmt
        self.dim = dim
        self.np_ = np_

    # -- ownership ------------------------------------------------------
    @abc.abstractmethod
    def owner_coord(self, i: int) -> int:
        """0-based target coordinate owning global index ``i`` (the unique
        owner for non-replicated formats)."""

    def owner_coords(self, i: int) -> tuple[int, ...]:
        """All owning coordinates (singleton unless replicated)."""
        return (self.owner_coord(i),)

    @abc.abstractmethod
    def owners_of(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`owner_coord` over an array of global indices
        (int64 in, int64 out) — the bulk ownership kernel the schedule
        compiler consumes, a closed-form NumPy expression per class."""

    @abc.abstractmethod
    def local_index_of(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`local_index` over an array of global indices
        (int64 in, int64 out) — the bulk local-addressing kernel, a
        closed-form NumPy expression per class."""

    @abc.abstractmethod
    def owned(self, coord: int) -> tuple[Triplet, ...]:
        """The global indices owned by target ``coord``, as an ordered
        tuple of disjoint ascending triplets (possibly empty)."""

    @property
    def is_replicated(self) -> bool:
        return False

    # -- local addressing -------------------------------------------------
    @abc.abstractmethod
    def local_index(self, i: int) -> int:
        """0-based position of ``i`` within its owner's local segment."""

    @abc.abstractmethod
    def global_index(self, coord: int, local: int) -> int:
        """Inverse of :meth:`local_index` for owner ``coord``."""

    def local_extent(self, coord: int) -> int:
        """Number of elements owned by ``coord``."""
        return sum(len(t) for t in self.owned(coord))

    # -- checks -----------------------------------------------------------
    def _check_index(self, i: int) -> None:
        if i not in self.dim:
            raise DistributionError(
                f"index {i} outside distributed dimension {self.dim}")

    def _check_coord(self, coord: int) -> None:
        if not 0 <= coord < self.np_:
            raise DistributionError(
                f"target coordinate {coord} outside 0..{self.np_ - 1}")

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.format} on {self.dim} "
                f"over {self.np_} procs>")


# ----------------------------------------------------------------------
# The ':' entry — dimension not distributed
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class Collapsed(DistributionFormat):
    """The ``:`` distribution format: the dimension is not distributed.

    A colon entry does not consume a target dimension; all elements along
    the dimension travel with the owner determined by the other dimensions.
    """

    consumes_target_dim = False

    def bind(self, dim: Triplet, np_: int = 1) -> "CollapsedDim":
        if np_ != 1:
            raise DistributionError(
                "':' does not consume a target dimension; bind with np_=1")
        return CollapsedDim(self, dim, 1)

    def __str__(self) -> str:
        return ":"


class CollapsedDim(DimDistribution):
    """Bound ``:`` — one virtual coordinate owning the whole dimension."""

    def owner_coord(self, i: int) -> int:
        self._check_index(i)
        return 0

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
