"""Procedure-boundary semantics (§7).

The distribution of a dummy argument can be specified in four ways:

1. **explicitly** — ``DISTRIBUTE A d [TO r]``: the actual argument is
   remapped, if necessary, to the specified distribution, and the original
   distribution is restored upon exit;
2. **by inheritance** — ``DISTRIBUTE A *``: the actual's distribution is
   transferred into the procedure and inherited by the dummy (for section
   actuals this is the *restriction* of the parent's distribution to the
   section, re-indexed to the dummy's domain);
3. **by inheritance matching** — ``DISTRIBUTE A * d [TO r]``: the dummy
   inherits, but if the inherited distribution does not match ``d`` the
   program is not HPF-conforming — unless the caller knows the dummy's
   attribute (interface block, ``interface_known=True``), in which case
   the language processor remaps the actual at the call and maps it back
   on return;
4. **implicitly** — no specification: the compiler provides an implicit
   distribution (the data space's policy), treated like mode 1.

A dummy may instead be mapped by *alignment* to another dummy or local.
The alignment tree is local to a procedure: "an array which is the actual
argument of a procedure call is not connected with its alignment tree in
the calling unit during execution of the called procedure."  If a dummy is
redistributed or realigned during execution, the original distribution is
restored on procedure exit.

Remapping a *whole-array* actual really changes (and later restores) the
caller's mapping; remapping a *section* actual is priced as data movement
(events) without rewriting the parent array's mapping, since a section has
no distribution attribute of its own in the caller.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence, Union

import numpy as np

from repro.align.spec import AlignSpec
from repro.core.array import HpfArray
from repro.core.dataspace import DataSpace, RemapEvent, _DistEntry
from repro.distributions.base import DistributionFormat
from repro.distributions.distribution import Distribution, FormatDistribution
from repro.errors import ConformanceError, ProcedureError
from repro.fortran.section import ArraySection, full_section
from repro.fortran.triplet import Triplet

__all__ = ["DummyMode", "DummySpec", "Procedure", "CallRecord",
           "InheritedSectionDistribution", "distributions_equal"]


class DummyMode(enum.Enum):
    EXPLICIT = "explicit"            #: DISTRIBUTE A d [TO r]
    INHERIT = "inherit"              #: DISTRIBUTE A *
    INHERIT_MATCH = "inherit_match"  #: DISTRIBUTE A * d [TO r]
    IMPLICIT = "implicit"            #: no specification
    ALIGNED = "aligned"              #: ALIGN A(...) WITH <other dummy/local>


@dataclass(frozen=True)
class DummySpec:
    """Mapping specification of one dummy argument."""

    name: str
    mode: DummyMode = DummyMode.INHERIT
    formats: tuple[DistributionFormat, ...] | None = None
    to: Any = None
    align: AlignSpec | None = None
    dynamic: bool = False

    def __post_init__(self) -> None:
        needs_formats = self.mode in (DummyMode.EXPLICIT,
                                      DummyMode.INHERIT_MATCH)
        if needs_formats and not self.formats:
            raise ProcedureError(
                f"dummy {self.name!r}: mode {self.mode.value} requires a "
                "distribution format list")
        if self.mode is DummyMode.ALIGNED and self.align is None:
            raise ProcedureError(
                f"dummy {self.name!r}: ALIGNED mode requires an AlignSpec")
        if self.align is not None and self.align.alignee != self.name:
            raise ProcedureError(
                f"dummy {self.name!r}: AlignSpec aligns "
                f"{self.align.alignee!r} instead")


def _section_slicer(section: ArraySection) -> tuple:
    """NumPy basic-slicing tuple selecting the section from parent data."""
    slicer = []
    for s, dim in zip(section.subscripts, section.parent.dims):
        if isinstance(s, Triplet):
            start = dim.position(s.first)
            stop = dim.position(s.last) + (1 if s.stride > 0 else -1)
            stop = None if stop < 0 else stop
            slicer.append(slice(start, stop, s.stride))
        else:
            slicer.append(dim.position(s))
    return tuple(slicer)


def _is_whole(section: ArraySection) -> bool:
    """True iff the section selects every element, dimension order kept."""
    if section.rank != section.parent.rank:
        return False
    for s, dim in zip(section.subscripts, section.parent.dims):
        if not isinstance(s, Triplet):
            return False
        t = s.as_ascending_set()
        if t.stride != 1 or t.lower != dim.lower or t.last != dim.last:
            return False
    return True


class InheritedSectionDistribution(Distribution):
    """The restriction of a parent distribution to an array section,
    re-indexed to the section's standard domain — what a dummy inherits
    when the actual argument is a section (§8.1.2)."""

    def __init__(self, parent: Distribution, section: ArraySection) -> None:
        if section.parent != parent.domain:
            raise ProcedureError(
                f"section over {section.parent} does not match the "
                f"distribution domain {parent.domain}")
        super().__init__(section.domain())
        self.parent = parent
        self.section = section

    def owners(self, index: Sequence[int]) -> frozenset[int]:
        return self.parent.owners(self.section.to_parent(index))

    def primary_owner(self, index: Sequence[int]) -> int:
        return self.parent.primary_owner(self.section.to_parent(index))

    @property
    def is_replicated(self) -> bool:
        return self.parent.is_replicated

    def _compute_owner_map(self) -> np.ndarray:
        pmap = self.parent.primary_owner_map()
        return np.asfortranarray(pmap[_section_slicer(self.section)])

    def owner_mask(self, unit: int) -> np.ndarray:
        return self.parent.owner_mask(unit)[_section_slicer(self.section)]

    def processors(self) -> tuple[int, ...]:
        return tuple(u for u in self.parent.processors()
                     if self.owner_mask(u).any())

    def describe(self) -> str:
        return (f"INHERITED section {self.section} of "
                f"{self.parent.describe()}")


def distributions_equal(a: Distribution, b: Distribution) -> bool:
    """Extensional distribution equality with a vectorized fast path.

    Used for the matching check of §7 mode 3 and for deciding whether an
    explicit dummy specification requires a remap of the actual.
    """
    if a is b:
        return True
    if a.domain != b.domain:
        return False
    if a.is_replicated != b.is_replicated:
        return False
    if not a.is_replicated:
        return bool(np.array_equal(a.primary_owner_map(),
                                   b.primary_owner_map()))
    units = a.processors()
    return units == b.processors() and all(
        np.array_equal(a.owner_mask(u), b.owner_mask(u)) for u in units)


@dataclass
class CallRecord:
    """What happened at one procedure call (for cost accounting)."""

    procedure: str
    entry_remaps: list[RemapEvent] = field(default_factory=list)
    exit_restores: list[RemapEvent] = field(default_factory=list)
    body_events: list[RemapEvent] = field(default_factory=list)
    result: Any = None


Actual = Union[str, tuple[str, tuple]]


@dataclass
class _Binding:
    spec: DummySpec
    actual_name: str
    section: ArraySection
    whole: bool
    dummy: HpfArray
    inherited: Distribution


class Procedure:
    """A procedure with mapped dummy arguments.

    Parameters
    ----------
    name:
        Procedure name.
    dummies:
        One :class:`DummySpec` per dummy argument, in argument order.
    body:
        ``body(frame, *dummy_arrays)``; ``frame`` is the local
        :class:`~repro.core.dataspace.DataSpace` of the call (use it to
        declare locals, align them to dummies, redistribute DYNAMIC
        dummies, ...).  Its return value becomes the call result.
    """

    def __init__(self, name: str, dummies: Sequence[DummySpec],
                 body: Callable[..., Any]) -> None:
        self.name = name
        self.dummies = tuple(dummies)
        self.body = body
        seen = set()
        for d in self.dummies:
            if d.name in seen:
                raise ProcedureError(
                    f"duplicate dummy name {d.name!r} in {name}")
            seen.add(d.name)

    # ------------------------------------------------------------------
    def call(self, caller: DataSpace, *actuals: Actual,
             interface_known: bool = False) -> CallRecord:
        """Execute the procedure against actual arguments of ``caller``.

        Each actual is an array name or ``(name, subscripts)`` for a
        section argument.  Returns the :class:`CallRecord` (with
        ``result``).
        """
        if len(actuals) != len(self.dummies):
            raise ProcedureError(
                f"{self.name} expects {len(self.dummies)} arguments, got "
                f"{len(actuals)}")
        record = CallRecord(self.name)
        frame = DataSpace(ap=caller.ap, policy=caller.policy,
                          clamp=caller.clamp)
        frame.env.update(caller.env)

        bindings: list[_Binding] = []
        #: (actual name, distribution to restore) for mutated whole actuals
        restore_plan: list[tuple[str, Distribution]] = []

        # Pass 1: bind every dummy; resolve all non-ALIGNED mappings.
        for spec, actual in zip(self.dummies, actuals):
            b = self._bind(frame, caller, spec, actual)
            bindings.append(b)
            if spec.mode is DummyMode.ALIGNED:
                continue
            wanted = self._wanted_distribution(frame, spec, b)
            self._install(frame, caller, b, wanted, record, restore_plan,
                          interface_known=interface_known)

        # Pass 2: ALIGNED dummies (their bases — other dummies — now exist).
        for b in bindings:
            if b.spec.mode is not DummyMode.ALIGNED:
                continue
            frame.align(b.spec.align)
            wanted = frame.distribution_of(b.spec.name)
            self._charge_remap(caller, b, wanted, record, restore_plan)

        # Execute the body; remap events inside the frame are body events.
        before = len(frame.remap_events)
        entry_dists = {b.spec.name: frame.distribution_of(b.spec.name)
                       for b in bindings}
        dummy_arrays = [b.dummy for b in bindings]
        record.result = self.body(frame, *dummy_arrays)
        record.body_events = list(frame.remap_events[before:])

        # §7: dummies redistributed/realigned during execution are
        # restored on exit.
        for b in bindings:
            current = frame.distribution_of(b.spec.name)
            original = entry_dists[b.spec.name]
            if not distributions_equal(current, original):
                record.exit_restores.append(RemapEvent(
                    b.spec.name, current, original,
                    f"RETURN {self.name}: restore dummy distribution"))

        # §7: whole-array actuals remapped at entry are mapped back.
        for name, original in restore_plan:
            current = caller.distribution_of(name)
            caller._dist[name] = _DistEntry(original, "explicit")
            caller._invalidate_constructed()
            event = RemapEvent(name, current, original,
                               f"RETURN {self.name}: restore actual")
            caller.remap_events.append(event)
            record.exit_restores.append(event)
        return record

    # ------------------------------------------------------------------
    # Binding helpers
    # ------------------------------------------------------------------
    def _bind(self, frame: DataSpace, caller: DataSpace, spec: DummySpec,
              actual: Actual) -> _Binding:
        if isinstance(actual, str):
            name = actual
            arr = caller.arrays.get(name)
            if arr is None:
                raise ProcedureError(f"unknown actual argument {name!r}")
            section = full_section(arr.domain)
        else:
            name, subs = actual
            section = caller.section(name, *subs)
        whole = _is_whole(section)
        actual_arr = caller.arrays[name]
        parent_dist = caller.distribution_of(name)
        if whole:
            domain = section.parent
            inherited: Distribution = parent_dist
        else:
            domain = section.domain()
            inherited = InheritedSectionDistribution(parent_dist, section)
        dummy = HpfArray(spec.name, domain, dtype=actual_arr.dtype,
                         dynamic=spec.dynamic)
        # alias the actual's storage (sections become strided views)
        dummy._data = actual_arr.data[_section_slicer(section)]
        frame.arrays[spec.name] = dummy
        frame.forest.add(spec.name)
        return _Binding(spec, name, section, whole, dummy, inherited)

    def _wanted_distribution(self, frame: DataSpace, spec: DummySpec,
                             b: _Binding) -> Distribution:
        if spec.mode is DummyMode.INHERIT:
            return b.inherited
        if spec.mode is DummyMode.IMPLICIT:
            return frame.policy.implicit_distribution(b.dummy.domain,
                                                      frame.ap)
        n_consuming = sum(f.consumes_target_dim for f in spec.formats)
        target = frame.resolve_target(spec.to, n_consuming)
        return FormatDistribution(b.dummy.domain, tuple(spec.formats),
                                  target, frame.ap)

    def _install(self, frame: DataSpace, caller: DataSpace, b: _Binding,
                 wanted: Distribution, record: CallRecord,
                 restore_plan: list, *, interface_known: bool) -> None:
        spec = b.spec
        matches = distributions_equal(b.inherited, wanted)
        if spec.mode is DummyMode.INHERIT_MATCH and not matches \
                and not interface_known:
            raise ConformanceError(
                f"CALL {self.name}: actual for dummy {spec.name!r} "
                f"arrives with {b.inherited.describe()} but the dummy "
                f"declares {wanted.describe()}; without an interface "
                "block the program is not HPF-conforming (§7 mode 3)")
        if not matches:
            self._charge_remap(caller, b, wanted, record, restore_plan)
        frame._dist[spec.name] = _DistEntry(wanted, "explicit")

    def _charge_remap(self, caller: DataSpace, b: _Binding,
                      wanted: Distribution, record: CallRecord,
                      restore_plan: list) -> None:
        """Record the entry remap of the actual; whole-array actuals have
        the caller's mapping really rewritten (and scheduled for restore)."""
        if distributions_equal(b.inherited, wanted):
            return
        event = RemapEvent(b.actual_name, b.inherited, wanted,
                           f"CALL {self.name}: remap actual for dummy "
                           f"{b.spec.name}")
        record.entry_remaps.append(event)
        caller.remap_events.append(event)
        secondary = (b.actual_name in caller.forest
                     and caller.forest.is_secondary(b.actual_name))
        if b.whole and wanted.domain == b.inherited.domain and not secondary:
            restore_plan.append((b.actual_name, b.inherited))
            caller._dist[b.actual_name] = _DistEntry(wanted, "explicit")
            caller._invalidate_constructed()
