"""Multi-dimensional distributions over a distribution target (§4.1).

:class:`Distribution` is the element-based mapping induced by a
distribution function (§2.2): a total function from an array's index domain
to non-empty sets of abstract processors (AP units).  The concrete
:class:`FormatDistribution` realizes the DISTRIBUTE directive: a
distribution-format list matched left-to-right to the dimensions of a
distribution target (processor arrangement or section), with ``:`` entries
consuming no target dimension (§4.1's rank rule).

Owner maps are vectorized: the target's AP units are tabulated once
(Fortran order) and per-dimension owner-coordinate arrays index into that
table, so computing the owner of every element of an N-element array costs
O(N) NumPy work, not N Python-level calls — this is the hot path of the
benchmarks and follows the vectorize-the-inner-loop guidance of the domain
guides.

Replicated layouts have owner *sets*; :meth:`Distribution.owner_mask` is
their bulk kernel ("is unit ``u`` among ``owners(i)``" for every element
at once, one NumPy pass per unit), and :meth:`Distribution.
smallest_owner_map` derives from it the unit every copy is shipped from.
"""

from __future__ import annotations

import abc
import itertools
from typing import Sequence

import numpy as np

from repro.distributions.base import (
    Collapsed,
    DimDistribution,
    DistributionFormat,
)
from repro.errors import DistributionError
from repro.fortran.domain import IndexDomain
from repro.processors.abstract import AbstractProcessors
from repro.processors.section import ProcessorSection

__all__ = ["Distribution", "FormatDistribution"]


class Distribution(abc.ABC):
    """Element-based distribution: array index -> non-empty set of AP units."""

    def __init__(self, domain: IndexDomain) -> None:
        self.domain = domain
        self._owner_map_cache: np.ndarray | None = None

    # -- ownership ------------------------------------------------------
    @abc.abstractmethod
    def owners(self, index: Sequence[int]) -> frozenset[int]:
        """AP units owning the element at ``index`` (never empty, Def. 1)."""

    def primary_owner(self, index: Sequence[int]) -> int:
        """A canonical single owner (the smallest AP unit)."""
        return min(self.owners(index))

    def primary_owner_map(self) -> np.ndarray:
        """Dense Fortran-ordered array of primary owners, one per element.

        Distributions are immutable once built (dynamic directives create
        *new* distribution objects), so the dense map is computed once per
        instance and memoized; the cached array is returned read-only to
        protect every consumer sharing it.  Subclasses customize
        :meth:`_compute_owner_map`, not this method.
        """
        cached = self._owner_map_cache
        if cached is None:
            cached = self._compute_owner_map()
            cached.setflags(write=False)
            self._owner_map_cache = cached
        return cached

    def _compute_owner_map(self) -> np.ndarray:
        """Build the dense owner map.  Subclasses override with vectorized
        implementations; this generic fallback enumerates the domain (fine
        for small/constructed cases)."""
        out = np.empty(self.domain.shape, dtype=np.int64, order="F")
        for idx in self.domain:
            pos = tuple(d.position(v) for v, d in zip(idx, self.domain.dims))
            out[pos] = self.primary_owner(idx)
        return out

    def owners_of(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`primary_owner` over an ``(m, rank)`` array of
        index tuples; returns the ``(m,)`` owning AP units.  Subclasses
        override with closed-form kernels; this fallback loops."""
        indices = np.asarray(indices, dtype=np.int64)
        return np.fromiter((self.primary_owner(tuple(row))
                            for row in indices),
                           dtype=np.int64, count=indices.shape[0])

    @property
    def is_replicated(self) -> bool:
        """True iff some element has more than one owner."""
        return False

    def owner_mask(self, unit: int) -> np.ndarray:
        """Dense boolean map, shaped like the domain, of the elements
        ``unit`` owns (``unit in owners(i)``) — the bulk owner-set kernel.

        Without replication this is one comparison against the primary
        owner map; subclasses with replication override it with per-axis
        NumPy passes, and this generic fallback enumerates the domain."""
        if not self.is_replicated:
            return self.primary_owner_map() == unit
        out = np.empty(self.domain.shape, dtype=bool, order="F")
        for idx in self.domain:
            pos = tuple(d.position(v) for v, d in zip(idx, self.domain.dims))
            out[pos] = unit in self.owners(idx)
        return out

    def smallest_owner_map(self) -> np.ndarray:
        """Dense map of each element's smallest owning unit — the source
        every copy of a replicated element is shipped from.  Equal to the
        primary owner map without replication; otherwise one
        :meth:`owner_mask` pass per unit, largest first, so the smallest
        owner is written last."""
        if not self.is_replicated:
            return self.primary_owner_map()
        out = np.empty(self.domain.shape, dtype=np.int64, order="F")
        for unit in reversed(self.processors()):
            out[self.owner_mask(unit)] = unit
        return out

    # -- processor-side views -------------------------------------------
    def processors(self) -> tuple[int, ...]:
        """Sorted AP units owning at least one element."""
        if not self.is_replicated:
            return tuple(np.unique(self.primary_owner_map()).tolist())
        units: set[int] = set()
        for idx in self.domain:
            units |= self.owners(idx)
        return tuple(sorted(units))

    def local_extent(self, unit: int) -> int:
        """Number of elements owned by AP ``unit``."""
        return int(np.count_nonzero(self.owner_mask(unit)))

    # -- comparison -------------------------------------------------------
    def same_mapping(self, other: "Distribution") -> bool:
        """Extensional equality: identical owner sets for every element.

        This is the notion of distribution equality used by the
        inheritance-matching rule of §7 and by the template-equivalence
        experiment E12.  Cost is O(domain size); intended for validation,
        not hot paths.
        """
        if self.domain != other.domain:
            return False
        return all(self.owners(idx) == other.owners(idx)
                   for idx in self.domain)

    def describe(self) -> str:
        return f"<{type(self).__name__} on {self.domain}>"

    def __repr__(self) -> str:
        return self.describe()


class FormatDistribution(Distribution):
    """A DISTRIBUTE-directive distribution: formats over a target (§4.1).

    Parameters
    ----------
    domain:
        The distributee's (standard) index domain ``I^A``.
    formats:
        One :class:`DistributionFormat` per array dimension; the number of
        non-``:`` entries must equal the target's rank.
    target:
        The distribution target ``R`` (arrangement or section).
    ap:
        The abstract processor arrangement the target lives on.
    """

    def __init__(self, domain: IndexDomain,
                 formats: Sequence[DistributionFormat],
                 target: ProcessorSection,
                 ap: AbstractProcessors) -> None:
        super().__init__(domain)
        formats = tuple(formats)
        if len(formats) != domain.rank:
            raise DistributionError(
                f"distribution format list has {len(formats)} entries for "
                f"rank-{domain.rank} distributee (§4.1 requires equality)")
        consuming = [k for k, f in enumerate(formats) if f.consumes_target_dim]
        if len(consuming) != target.rank:
            raise DistributionError(
                f"format list with {len(consuming)} non-colon entries "
                f"requires a rank-{len(consuming)} target; {target} has "
                f"rank {target.rank} (§4.1 rank rule)")
        self.formats = formats
        self.target = target
        self.ap = ap
        # Bind: non-colon entries matched left-to-right to target dims.
        self.dims: list[DimDistribution] = []
        #: target dim index for each array dim (None for collapsed dims)
        self.target_dim_of: list[int | None] = []
        t = 0
        tshape = target.shape
        for k, fmt in enumerate(formats):
            if fmt.consumes_target_dim:
                self.dims.append(fmt.bind(domain.dims[k], tshape[t]))
                self.target_dim_of.append(t)
                t += 1
            else:
                self.dims.append(Collapsed().bind(domain.dims[k], 1))
                self.target_dim_of.append(None)
        # Tabulate target index <-> AP unit (Fortran order), once per AP.
        self._unit_to_target = ap.target_units(target)
        units = list(self._unit_to_target)
        self._unit_table = np.array(units, dtype=np.int64).reshape(
            tshape, order="F") if target.rank else np.array(units[0])

    # -- ownership ------------------------------------------------------
    def _target_coords(self, index: Sequence[int]) -> list[tuple[int, ...]]:
        """Per-array-dim owning coordinate tuples (singletons unless a dim
        is replicated); collapsed dims contribute nothing."""
        index = tuple(index)
        if len(index) != self.domain.rank:
            raise DistributionError(
                f"rank-{self.domain.rank} distribution indexed with {index}")
        coords = []
        for v, dd, tdim in zip(index, self.dims, self.target_dim_of):
            if tdim is None:
                dd._check_index(v)
                continue
            coords.append(dd.owner_coords(v))
        return coords

    def owners(self, index: Sequence[int]) -> frozenset[int]:
        coords = self._target_coords(index)
        units = set()
        for combo in itertools.product(*coords) if coords else [()]:
            units.add(int(self._unit_table[combo]) if combo
                      else int(self._unit_table))
        return frozenset(units)

    def primary_owner(self, index: Sequence[int]) -> int:
        index = tuple(index)
        combo = []
        for v, dd, tdim in zip(index, self.dims, self.target_dim_of):
            if tdim is None:
                dd._check_index(v)
                continue
            combo.append(dd.owner_coord(v))
        return (int(self._unit_table[tuple(combo)]) if combo
                else int(self._unit_table))

    def _compute_owner_map(self) -> np.ndarray:
        """Vectorized dense owner map (primary owners)."""
        if self.domain.rank == 0:
            return np.array(int(self._unit_table), dtype=np.int64)
        idx_arrays = []
        rank = self.domain.rank
        for k, (dd, tdim) in enumerate(zip(self.dims, self.target_dim_of)):
            if tdim is None:
                continue
            coords = dd.owners_of(self.domain.dims[k].values())
            shape = [1] * rank
            shape[k] = len(coords)
            idx_arrays.append(coords.reshape(shape))
        if not idx_arrays:
            base = np.array(int(self._unit_table), dtype=np.int64)
            return np.broadcast_to(base, self.domain.shape).copy(order="F")
        out = self._unit_table[tuple(idx_arrays)]
        return np.asfortranarray(np.broadcast_to(out, self.domain.shape))

    def owners_of(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized primary owners of an ``(m, rank)`` array of index
        tuples: per-dimension bulk owner kernels composed through the unit
        table (no Python-level per-element work)."""
        indices = np.asarray(indices, dtype=np.int64)
        combo = []
        for k, (dd, tdim) in enumerate(zip(self.dims, self.target_dim_of)):
            if tdim is None:
                continue
            combo.append(dd.owners_of(indices[:, k]))
        if not combo:
            return np.full(indices.shape[0], int(self._unit_table),
                           dtype=np.int64)
        return self._unit_table[tuple(combo)]

    @property
    def is_replicated(self) -> bool:
        return any(d.is_replicated for d in self.dims)

    def owner_mask(self, unit: int) -> np.ndarray:
        """Per-axis kernel: ``unit`` owns an element iff, in every
        distributed dimension, its coordinate is among the element's owner
        coordinates — all of them for a REPLICATED dimension."""
        if not self.is_replicated:
            return super().owner_mask(unit)
        if unit not in self._unit_to_target:
            return np.zeros(self.domain.shape, dtype=bool)
        mask = np.ones(self.domain.shape, dtype=bool, order="F")
        coords = iter(self.dim_coords_of_unit(unit))
        rank = self.domain.rank
        for k, (dd, tdim) in enumerate(zip(self.dims, self.target_dim_of)):
            if tdim is None:
                continue
            coord = next(coords)
            if dd.is_replicated:
                continue
            shape = [1] * rank
            shape[k] = -1
            mask &= (dd.owners_of(self.domain.dims[k].values())
                     == coord).reshape(shape)
        return mask

    def axis_owner_count(self, k: int) -> int:
        """Number of target coordinates owning some element of array
        dimension ``k`` (1 for a ``:`` dimension)."""
        if self.target_dim_of[k] is None:
            return 1
        dd = self.dims[k]
        return sum(1 for c in range(dd.np_) if dd.local_extent(c) > 0)

    # -- processor-side views -------------------------------------------
    def processors(self) -> tuple[int, ...]:
        per_dim = []
        for dd, tdim in zip(self.dims, self.target_dim_of):
            if tdim is None:
                continue
            per_dim.append([p for p in range(dd.np_)
                            if dd.local_extent(p) > 0])
        units = set()
        for combo in itertools.product(*per_dim) if per_dim else [()]:
            units.add(int(self._unit_table[combo]) if combo
                      else int(self._unit_table))
        return tuple(sorted(units))

    def target_index_of_unit(self, unit: int) -> tuple[int, ...]:
        """Target index (in ``I^R``) of an AP unit used by this target."""
        try:
            return self._unit_to_target[unit]
        except KeyError:
            raise DistributionError(
                f"AP unit {unit} is not part of target {self.target}") from None

    def dim_coords_of_unit(self, unit: int) -> tuple[int, ...]:
        """Per-consuming-dimension 0-based coordinates of ``unit``."""
        tidx = self.target_index_of_unit(unit)
        return tuple(v - 1 for v in tidx)   # I^R is standard (1-based)

    def local_extent(self, unit: int) -> int:
        if unit not in self._unit_to_target:
            return 0
        coords = self.dim_coords_of_unit(unit)
        extent = 1
        c = iter(coords)
        for dd, tdim in zip(self.dims, self.target_dim_of):
            extent *= dd.local_extent(next(c)) if tdim is not None \
                else dd.local_extent(0)
        return extent

    def local_shape(self, unit: int) -> tuple[int, ...]:
        """Per-array-dimension local extent on ``unit``."""
        coords = self.dim_coords_of_unit(unit)
        c = iter(coords)
        return tuple(dd.local_extent(next(c)) if tdim is not None
                     else dd.local_extent(0)
                     for dd, tdim in zip(self.dims, self.target_dim_of))

    def describe(self) -> str:
        fmts = ", ".join(str(f) for f in self.formats)
        return f"DISTRIBUTE ({fmts}) TO {self.target} on {self.domain}"
