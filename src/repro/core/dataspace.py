"""The data space: scope state and directive semantics (§2.4–§6).

A :class:`DataSpace` models "the data space A of all arrays that are
accessible in a given scope, and have been created, at a given time during
the execution of a program unit" (§2.4), together with:

* the alignment forest and its invariants;
* the distribution of every created array — explicit (DISTRIBUTE),
  derived (``CONSTRUCT`` through an alignment), implicit (policy), or
  frozen (after a disconnection);
* the dynamic directives REDISTRIBUTE (§4.2) and REALIGN (§5.2);
* ALLOCATE/DEALLOCATE semantics for allocatable arrays, including the
  propagation of specification-part mapping attributes to each allocation
  instance (§6).

Secondary arrays never carry a stored distribution: their mapping is the
lazily-CONSTRUCTed image of their primary's current distribution, so a
REDISTRIBUTE of a primary automatically "redistributes every array aligned
to it in such a way that the relationship expressed by the alignment
function is kept invariant" (§4.2).  Only when an array is *disconnected*
(REALIGN step 1, DEALLOCATE of its base) does the data space freeze its
then-current distribution into a stored one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from repro.align.forest import AlignmentForest
from repro.align.function import AlignmentFunction, ClampMode
from repro.align.reduce import reduce_alignment
from repro.align.spec import AlignSpec
from repro.core.array import HpfArray
from repro.core.mapping import BlockFirstDimPolicy, ImplicitMappingPolicy
from repro.distributions.base import DistributionFormat
from repro.distributions.construct import construct
from repro.distributions.distribution import Distribution, FormatDistribution
from repro.errors import (
    AllocationError,
    DistributionError,
    MappingError,
)
from repro.fortran.domain import IndexDomain
from repro.fortran.section import ArraySection
from repro.fortran.triplet import Triplet
from repro.processors.abstract import AbstractProcessors
from repro.processors.arrangement import ProcessorArrangement, ScalarArrangement
from repro.processors.section import ProcessorSection

__all__ = ["DataSpace", "RemapEvent", "ScheduleCache"]

TargetLike = Union[None, str, ProcessorArrangement, ProcessorSection]
BoundsLike = Union[int, tuple[int, int]]


@dataclass(frozen=True)
class RemapEvent:
    """A dynamic mapping change (REDISTRIBUTE/REALIGN/procedure remap);
    the execution engine prices these as data movement."""

    array: str
    old: Distribution | None
    new: Distribution
    reason: str


@dataclass
class _DistEntry:
    dist: Distribution
    source: str   # 'explicit' | 'implicit' | 'frozen'


@dataclass
class ScheduleCache:
    """Memo table for compiled communication schedules.

    The container lives on the :class:`DataSpace` (the scope whose layout
    the schedules were compiled against) while the compiler lives in
    :mod:`repro.engine.schedule`.  Every layout mutation (DISTRIBUTE,
    REDISTRIBUTE, ALIGN, REALIGN, DEALLOCATE, procedure remaps) bumps the
    data space's ``layout_epoch`` and invalidates the *affected* entries:
    each entry is registered with the set of array names it was compiled
    against, and :meth:`invalidate_arrays` drops exactly the entries
    touching a remapped alignment forest.  Arrays in untouched forests
    keep their compiled schedules across an unrelated remap — the
    steady state of a phase-change program stays hot.

    The table is bounded (LRU, ``maxsize`` entries): a schedule retains
    an O(iteration size) owner vector, so a program sweeping over many
    structurally distinct statements evicts its oldest schedules instead
    of accumulating them for the lifetime of the layout.

    All mutating paths hold one re-entrant lock: concurrent sessions
    (the serving stack) funnel statements from many threads into one
    scope, and the eviction loop in :meth:`put` / the LRU-refresh pop in
    :meth:`get` are not atomic dict operations.
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0
    maxsize: int = 256
    #: key -> (value, frozenset of array names the entry depends on)
    _entries: dict = field(default_factory=dict)
    #: array name -> set of cache keys depending on it
    _by_array: dict = field(default_factory=dict)
    _lock: threading.RLock = field(default_factory=threading.RLock,
                                   repr=False, compare=False)

    def get(self, key):
        with self._lock:
            hit = self._entries.get(key)
            if hit is None:
                return None
            self.hits += 1
            # LRU refresh: move to the most-recent end of the dict
            self._entries[key] = self._entries.pop(key)
            return hit[0]

    def put(self, key, value, arrays=frozenset()) -> None:
        with self._lock:
            self.misses += 1
            if key in self._entries:
                # a concurrent compiler of the same statement won the
                # race; keep its entry (callers use their own object)
                return
            while len(self._entries) >= self.maxsize:
                self._unlink(next(iter(self._entries)))
                self.evictions += 1
            self._entries[key] = (value, frozenset(arrays))
            for name in arrays:
                self._by_array.setdefault(name, set()).add(key)

    def _unlink(self, key) -> None:
        _, arrays = self._entries.pop(key)
        for name in arrays:
            keys = self._by_array.get(name)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_array[name]

    def invalidate_arrays(self, names) -> None:
        """Drop every entry depending on any of ``names`` (the
        fine-grained path a remap of one alignment forest takes)."""
        with self._lock:
            stale = set()
            for name in names:
                stale |= self._by_array.get(name, set())
            if stale:
                self.invalidations += 1
                for key in stale:
                    self._unlink(key)

    def clear(self) -> None:
        with self._lock:
            if self._entries:
                self.invalidations += 1
                self._entries.clear()
                self._by_array.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class DataSpace:
    """A program-unit scope: arrays, arrangements, forest, distributions."""

    def __init__(self, n_processors: int = 4, *,
                 ap: AbstractProcessors | None = None,
                 policy: ImplicitMappingPolicy | None = None,
                 clamp: ClampMode = ClampMode.CLAMP) -> None:
        self.ap = ap if ap is not None else AbstractProcessors(n_processors)
        self.policy = policy if policy is not None else BlockFirstDimPolicy()
        self.clamp = clamp
        self.arrays: dict[str, HpfArray] = {}
        self.forest = AlignmentForest()
        self.env: dict[str, int] = {}
        self.remap_events: list[RemapEvent] = []
        self._dist: dict[str, _DistEntry] = {}
        self._constructed: dict[str, tuple[int, Distribution]] = {}
        self._pending_distribute: dict[
            str, tuple[tuple[DistributionFormat, ...], TargetLike]] = {}
        self._pending_align: dict[str, AlignSpec] = {}
        self._implicit_targets: dict[int, ProcessorSection] = {}
        #: monotone counter of layout mutations; compiled communication
        #: schedules are valid only within one epoch
        self.layout_epoch = 0
        #: memoized compiled schedules (see repro.engine.schedule)
        self.schedule_cache = ScheduleCache()
        #: advisory per-index cost profiles (first dimension), consumed
        #: by the autotune advisor; never affects numerics or charging
        self.cost_profiles: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Environment / processors
    # ------------------------------------------------------------------
    def constant(self, name: str, value: int) -> None:
        """Define a specification constant usable in directives."""
        self.env[name] = int(value)

    def processors(self, name: str, *bounds: BoundsLike,
                   origin: int = 0) -> ProcessorArrangement:
        """Declare a processor array arrangement (PROCESSORS directive)."""
        domain = self._domain_from_bounds(bounds)
        arr = ProcessorArrangement(name, domain)
        self.ap.declare(arr, origin=origin)
        return arr

    def scalar_processors(self, name: str, **kwargs) -> ScalarArrangement:
        """Declare a conceptually scalar arrangement (§3)."""
        arr = ScalarArrangement(name, **kwargs)
        self.ap.declare(arr)
        return arr

    @staticmethod
    def _domain_from_bounds(bounds: Sequence[BoundsLike]) -> IndexDomain:
        dims = []
        for b in bounds:
            if isinstance(b, tuple):
                lo, hi = b
                dims.append(Triplet(int(lo), int(hi), 1))
            else:
                dims.append(Triplet.of_extent(int(b)))
        return IndexDomain(dims)

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def declare(self, name: str, *bounds: BoundsLike,
                dtype: np.dtype | type = np.float64,
                allocatable: bool = False, dynamic: bool = False,
                rank: int | None = None) -> HpfArray:
        """Declare an array.

        ``bounds`` entries are extents (``N`` means ``1:N``) or
        ``(lower, upper)`` pairs.  Allocatable arrays with deferred shape
        pass no bounds and a ``rank``.
        """
        if name in self.arrays:
            raise MappingError(f"array {name!r} already declared")
        if bounds:
            domain = self._domain_from_bounds(bounds)
            arr = HpfArray(name, domain, dtype=dtype,
                           allocatable=allocatable, dynamic=dynamic)
        else:
            arr = HpfArray(name, None, dtype=dtype, allocatable=True,
                           dynamic=dynamic, rank=rank)
        self.arrays[name] = arr
        if arr.is_allocated:
            self.forest.add(name)
            self._publish_inquiries(arr)
        return arr

    def _publish_inquiries(self, arr: HpfArray) -> None:
        """Make LBOUND/UBOUND/SIZE of a created array available to
        alignment expressions (§5.1 allows these intrinsics; they are
        folded against the current instance's bounds)."""
        for k, dim in enumerate(arr.domain.dims, start=1):
            self.env[f"LBOUND({arr.name}, {k})"] = dim.lower
            self.env[f"UBOUND({arr.name}, {k})"] = dim.last
            self.env[f"SIZE({arr.name}, {k})"] = len(dim)

    def declare_scalar(self, name: str, value=0.0,
                       dtype: np.dtype | type = np.float64) -> HpfArray:
        """Declare a scalar — rank-0 index domain with one element (§2.2)."""
        arr = self.declare(name, dtype=dtype, rank=0, allocatable=True)
        # scalars are always "created"; allocate the rank-0 instance now
        arr.allocate(IndexDomain.scalar())
        self.forest.add(name)
        arr.data[()] = value
        self._dist[name] = _DistEntry(
            self.policy.scalar_distribution(self.ap), "implicit")
        return arr

    def set_dynamic(self, *names: str) -> None:
        """The DYNAMIC directive: permit REDISTRIBUTE/REALIGN (§4.2, §5.2)."""
        for n in names:
            self._array(n).dynamic = True

    def _array(self, name: str) -> HpfArray:
        try:
            return self.arrays[name]
        except KeyError:
            raise MappingError(f"unknown array {name!r}") from None

    def section(self, name: str,
                *subscripts: Union[int, Triplet]) -> ArraySection:
        """Convenience: an array section of a created array."""
        return ArraySection(self._array(name).domain, subscripts)

    # ------------------------------------------------------------------
    # Targets
    # ------------------------------------------------------------------
    def resolve_target(self, to: TargetLike,
                       n_consuming: int) -> ProcessorSection:
        """Resolve a TO-clause (or its absence) to a processor section."""
        if to is None:
            return self._implicit_target(n_consuming)
        if isinstance(to, ProcessorSection):
            return to
        if isinstance(to, ProcessorArrangement):
            return ProcessorSection(to)
        if isinstance(to, str):
            arr = self.ap.arrangement(to)
            if isinstance(arr, ScalarArrangement):
                raise DistributionError(
                    f"cannot use scalar arrangement {to!r} as a "
                    "DISTRIBUTE target with a format list")
            return ProcessorSection(arr)
        raise DistributionError(f"bad distribution target {to!r}")

    def _implicit_target(self, ndims: int) -> ProcessorSection:
        """Implementation-chosen target for a TO-less DISTRIBUTE: the whole
        AP factorized into ``ndims`` near-square dimensions."""
        if ndims <= 0:
            raise DistributionError(
                "a distribution with no distributed dimension needs no "
                "target; use ':' formats only with an explicit TO-clause")
        hit = self._implicit_targets.get(ndims)
        if hit is not None:
            return hit
        shape = _factorize(self.ap.size, ndims)
        name = f"_AP{ndims}"
        try:
            arr = self.ap.arrangement(name)
        except MappingError:
            arr = self.ap.declare(
                ProcessorArrangement(name, IndexDomain.standard(*shape)))
        target = ProcessorSection(arr)
        self._implicit_targets[ndims] = target
        return target

    # ------------------------------------------------------------------
    # DISTRIBUTE (§4.1)
    # ------------------------------------------------------------------
    def distribute(self, name: str,
                   formats: Sequence[DistributionFormat],
                   to: TargetLike = None) -> None:
        """Specification-part DISTRIBUTE for one distributee."""
        arr = self._array(name)
        formats = tuple(formats)
        if arr.allocatable and not arr.is_allocated:
            # §6: attributes are propagated to each ALLOCATE instance.
            self._pending_distribute[name] = (formats, to)
            return
        self._apply_distribute(name, formats, to, reason="DISTRIBUTE")

    def _apply_distribute(self, name: str,
                          formats: tuple[DistributionFormat, ...],
                          to: TargetLike, *, reason: str) -> None:
        arr = self._array(name)
        if self.forest.is_secondary(name):
            raise MappingError(
                f"{name!r} is aligned to {self.forest.parent_of(name)!r}; "
                "aligned arrays receive their distribution via CONSTRUCT "
                "and cannot be distributed directly")
        entry = self._dist.get(name)
        if reason == "DISTRIBUTE" and entry and entry.source == "explicit":
            raise MappingError(
                f"{name!r} already has an explicit distribution; use "
                "REDISTRIBUTE (and declare it DYNAMIC) to change it")
        n_consuming = sum(f.consumes_target_dim for f in formats)
        if to is None and n_consuming == 0:
            raise DistributionError(
                f"DISTRIBUTE {name}: all-colon format lists need an "
                "explicit TO-clause to place the data")
        target = self.resolve_target(to, n_consuming)
        old = entry.dist if entry else None
        dist = FormatDistribution(arr.domain, formats, target, self.ap)
        self._dist[name] = _DistEntry(dist, "explicit")
        self._invalidate_constructed(self._forest_scope(name))
        self.remap_events.append(RemapEvent(name, old, dist, reason))

    def place_on_scalar(self, name: str,
                        arrangement: Union[str, ScalarArrangement]) -> None:
        """Place an array on a conceptually scalar arrangement (§3).

        Depending on the arrangement's policy the data resides on the
        control processor, on an arbitrarily chosen processor, or is
        replicated over all processors.
        """
        from repro.distributions.replicated import ReplicatedDistribution
        arr = self._array(name)
        if isinstance(arrangement, str):
            arrangement = self.ap.arrangement(arrangement)
        if not isinstance(arrangement, ScalarArrangement):
            raise DistributionError(
                f"{arrangement.name!r} is not a scalar arrangement; use "
                "DISTRIBUTE with a format list instead")
        if self.forest.is_secondary(name):
            raise MappingError(
                f"{name!r} is aligned; aligned arrays cannot be placed "
                "directly")
        units = self.ap.ap_units(arrangement)
        old = self._dist.get(name)
        dist = ReplicatedDistribution(arr.domain, units)
        self._dist[name] = _DistEntry(dist, "explicit")
        self._invalidate_constructed(self._forest_scope(name))
        self.remap_events.append(RemapEvent(
            name, old.dist if old else None, dist,
            f"PLACE ON {arrangement.name}"))

    # ------------------------------------------------------------------
    # REDISTRIBUTE (§4.2)
    # ------------------------------------------------------------------
    def redistribute(self, name: str,
                     formats: Sequence[DistributionFormat],
                     to: TargetLike = None) -> RemapEvent:
        """Execution-part REDISTRIBUTE of a DYNAMIC array."""
        arr = self._array(name)
        if not arr.dynamic:
            raise MappingError(
                f"REDISTRIBUTE {name}: array was not declared DYNAMIC "
                "(§4.2)")
        if not arr.is_allocated:
            raise AllocationError(
                f"REDISTRIBUTE {name}: array is not currently allocated")
        old = self.distribution_of(name)
        # the invalidation scope must be read off the *pre-surgery*
        # forest: a primary's secondaries are re-CONSTRUCTed with it
        affected = self._forest_scope(name)
        # §4.2: a secondary distributee is disconnected from its base and
        # made into a new degenerate tree.
        self.forest.disconnect_for_redistribute(name)
        self._dist.pop(name, None)
        formats = tuple(formats)
        n_consuming = sum(f.consumes_target_dim for f in formats)
        target = self.resolve_target(to, max(n_consuming, 1))
        dist = FormatDistribution(arr.domain, formats, target, self.ap)
        self._dist[name] = _DistEntry(dist, "explicit")
        self._invalidate_constructed(affected)
        event = RemapEvent(name, old, dist, "REDISTRIBUTE")
        self.remap_events.append(event)
        return event

    # ------------------------------------------------------------------
    # Cost profiles (autotune advisory input)
    # ------------------------------------------------------------------
    def set_cost_profile(self, name: str, costs) -> None:
        """Declare per-index work weights along ``name``'s first
        dimension — advisory input the autotune advisor balances over;
        numerics and charging never read it."""
        arr = self._array(name)
        weights = np.asarray(costs, dtype=np.float64)
        if weights.ndim != 1 or weights.size == 0:
            raise MappingError(
                f"cost profile for {name!r} must be a non-empty 1-D "
                "sequence")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise MappingError(
                f"cost profile for {name!r} must be finite and "
                "non-negative")
        if arr.is_allocated:
            extent = len(arr.domain.dims[0])
            if weights.size != extent:
                raise MappingError(
                    f"cost profile for {name!r} has {weights.size} "
                    f"entries but dimension 1 has extent {extent}")
        self.cost_profiles[name] = weights

    def cost_profile(self, name: str) -> np.ndarray | None:
        """The declared cost profile for ``name`` (``None`` if absent)."""
        return self.cost_profiles.get(name)

    # ------------------------------------------------------------------
    # ALIGN (§5.1)
    # ------------------------------------------------------------------
    def align(self, spec: AlignSpec) -> None:
        """Specification-part ALIGN."""
        alignee = self._array(spec.alignee)
        base = self._array(spec.base)
        if alignee.allocatable and not alignee.is_allocated:
            self._pending_align[spec.alignee] = spec
            return
        if base.allocatable and not base.is_allocated:
            # §6: a non-ALLOCATABLE local array cannot be aligned in the
            # specification part to an allocatable array.
            raise AllocationError(
                f"ALIGN {spec.alignee} WITH {spec.base}: the base is an "
                "unallocated allocatable; only allocatable alignees may "
                "defer such an alignment (§6)")
        self._apply_align(spec)

    def _apply_align(self, spec: AlignSpec) -> None:
        alignee = self._array(spec.alignee)
        base = self._array(spec.base)
        entry = self._dist.get(spec.alignee)
        if entry and entry.source == "explicit":
            raise MappingError(
                f"{spec.alignee!r} already has an explicit distribution; "
                "an array is either distributed directly or aligned, not "
                "both")
        fn = AlignmentFunction(
            reduce_alignment(spec, alignee.domain, base.domain, self.env),
            clamp=self.clamp)
        self.forest.align(spec.alignee, spec.base, fn)
        self._dist.pop(spec.alignee, None)   # drop implicit placement
        # only the alignee's map changes (it cannot have secondaries:
        # align() rejects an alignee that serves as a base)
        self._invalidate_constructed({spec.alignee})

    # ------------------------------------------------------------------
    # REALIGN (§5.2)
    # ------------------------------------------------------------------
    def realign(self, spec: AlignSpec) -> RemapEvent:
        """Execution-part REALIGN of a DYNAMIC array."""
        alignee = self._array(spec.alignee)
        base = self._array(spec.base)
        if not alignee.dynamic:
            raise MappingError(
                f"REALIGN {spec.alignee}: array was not declared DYNAMIC "
                "(§5.2)")
        if not alignee.is_allocated or not base.is_allocated:
            raise AllocationError(
                f"REALIGN {spec.alignee} WITH {spec.base}: both arrays "
                "must be currently allocated")
        old = self.distribution_of(spec.alignee)
        # Freeze current distributions of the alignee's secondaries before
        # the surgery (§5.2 step 1: "... made into primary arrays of
        # degenerate trees with their current distribution").
        if self.forest.is_primary(spec.alignee):
            for child in self.forest.secondaries_of(spec.alignee):
                frozen = self.distribution_of(child)
                self._dist[child] = _DistEntry(frozen, "frozen")
        fn = AlignmentFunction(
            reduce_alignment(spec, alignee.domain, base.domain, self.env),
            clamp=self.clamp)
        self.forest.realign(spec.alignee, spec.base, fn)
        self._dist.pop(spec.alignee, None)
        # the alignee's map changes; its former secondaries were frozen
        # at their current distribution just above, so their maps (and
        # the schedules compiled against them) stay valid
        self._invalidate_constructed({spec.alignee})
        new = self.distribution_of(spec.alignee)
        event = RemapEvent(spec.alignee, old, new, "REALIGN")
        self.remap_events.append(event)
        return event

    # ------------------------------------------------------------------
    # ALLOCATE / DEALLOCATE (§6)
    # ------------------------------------------------------------------
    def allocate(self, name: str, *bounds: BoundsLike) -> HpfArray:
        """ALLOCATE an instance and apply propagated mapping attributes."""
        arr = self._array(name)
        domain = self._domain_from_bounds(bounds)
        arr.allocate(domain)
        self.forest.add(name)
        self._publish_inquiries(arr)
        pending_d = self._pending_distribute.get(name)
        pending_a = self._pending_align.get(name)
        if pending_d and pending_a:
            raise MappingError(
                f"{name!r} has both a pending DISTRIBUTE and a pending "
                "ALIGN from the specification part")
        if pending_d:
            formats, to = pending_d
            self._apply_distribute(name, formats, to, reason="ALLOCATE")
        elif pending_a:
            self._apply_align(pending_a)
        return arr

    def deallocate(self, name: str) -> None:
        """DEALLOCATE: remove from the forest; arrays directly aligned to
        it become primaries of new trees with their current distribution."""
        arr = self._array(name)
        if not arr.is_allocated:
            raise AllocationError(f"DEALLOCATE {name}: not allocated")
        if name in self.forest:
            for child in self.forest.secondaries_of(name):
                frozen = self.distribution_of(child)
                self._dist[child] = _DistEntry(frozen, "frozen")
            self.forest.remove(name)
        arr.deallocate()
        self._dist.pop(name, None)
        self._constructed.pop(name, None)
        # schedules referencing the deallocated array die with it; its
        # former secondaries were frozen above with unchanged maps, and
        # unrelated forests keep their compiled schedules
        self._invalidate_constructed({name})

    # ------------------------------------------------------------------
    # Distribution resolution
    # ------------------------------------------------------------------
    def distribution_of(self, name: str) -> Distribution:
        """The current distribution of a created array.

        Secondaries resolve through CONSTRUCT against their primary's
        *current* distribution; primaries without any directive get the
        implicit policy distribution (and keep it, so repeated queries are
        stable).
        """
        arr = self._array(name)
        if not arr.is_allocated:
            raise AllocationError(
                f"array {name!r} has no distribution: not allocated")
        if name in self.forest and self.forest.is_secondary(name):
            parent = self.forest.parent_of(name)
            base_dist = self.distribution_of(parent)
            cached = self._constructed.get(name)
            if cached is not None and cached[0] == id(base_dist):
                return cached[1]
            fn = self.forest.alignment_of(name)
            dist = construct(fn, base_dist)
            self._constructed[name] = (id(base_dist), dist)
            return dist
        entry = self._dist.get(name)
        if entry is None:
            dist = self.policy.implicit_distribution(arr.domain, self.ap)
            self._dist[name] = _DistEntry(dist, "implicit")
            return dist
        return entry.dist

    def distribution_source(self, name: str) -> str:
        """'explicit', 'implicit', 'frozen', or 'aligned'."""
        if name in self.forest and self.forest.is_secondary(name):
            return "aligned"
        entry = self._dist.get(name)
        return entry.source if entry else "implicit"

    def owners(self, name: str, index: Sequence[int]) -> frozenset[int]:
        return self.distribution_of(name).owners(index)

    def owner_map(self, name: str) -> np.ndarray:
        return self.distribution_of(name).primary_owner_map()

    def _invalidate_constructed(self, affected=None) -> None:
        """Bump the layout epoch after a mapping mutation.

        ``affected`` names the arrays whose owner maps may have changed
        (the remapped array plus the members of its alignment forest that
        are re-CONSTRUCTed with it); only compiled schedules depending on
        one of them are dropped.  ``None`` falls back to a full clear —
        the conservative path for mutations without a computed scope.
        """
        self._constructed.clear()
        self.layout_epoch += 1
        if affected is None:
            self.schedule_cache.clear()
        else:
            self.schedule_cache.invalidate_arrays(affected)

    def _forest_scope(self, name: str) -> set[str]:
        """``name`` plus the secondaries that re-CONSTRUCT through it when
        its distribution changes (a secondary's or degenerate array's
        scope is itself: siblings and the primary keep their maps)."""
        scope = {name}
        if name in self.forest and self.forest.is_primary(name):
            scope |= self.forest.secondaries_of(name)
        return scope

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def forest_snapshot(self) -> dict[str, frozenset[str]]:
        """Map primary -> secondaries, for tests and the E6 trace."""
        return self.forest.trees()

    def created_arrays(self) -> tuple[str, ...]:
        return tuple(sorted(n for n, a in self.arrays.items()
                            if a.is_allocated))

    def describe(self) -> str:
        lines = [f"DataSpace over AP({self.ap.size})"]
        for name in self.created_arrays():
            dist = self.distribution_of(name)
            kind = self.distribution_source(name)
            lines.append(f"  {name}: {kind}: {dist.describe()}")
        return "\n".join(lines)


def _factorize(n: int, ndims: int) -> tuple[int, ...]:
    """Factor ``n`` into ``ndims`` near-square factors (largest first),
    in the spirit of MPI_Dims_create."""
    dims = [1] * ndims
    remaining = n
    for k in range(ndims):
        # choose the largest factor of `remaining` not exceeding its
        # (ndims - k)-th root
        slots = ndims - k
        root = round(remaining ** (1.0 / slots))
        best = 1
        for f in range(root, 0, -1):
            if remaining % f == 0:
                best = f
                break
        # prefer slightly larger factors if the root choice leaves a prime
        for f in range(root + 1, remaining + 1):
            if remaining % f == 0 and abs(f - root) < abs(best - root):
                best = f
                break
        dims[k] = best
        remaining //= best
    dims[0] *= remaining
    dims.sort(reverse=True)
    return tuple(dims)
