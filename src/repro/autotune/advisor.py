"""The advisor: candidate actions priced by the alpha-beta model.

Everything here is *static* and *read-only*: proposals are computed from
declared cost profiles (:meth:`DataSpace.set_cost_profile`), the current
owner maps, and the exact :func:`~repro.engine.redistribute.price_remap`
transfer matrix — no execution, no scope mutation.  That is what makes
``repro tune`` (report-only) and the runtime tuner agree by
construction: both call :func:`propose_for_loop` against the same scope
and get the identical :class:`Proposal`.

A proposal's economics follow the paper's own cost vocabulary:

* gain — ``flop * (max weighted work before - after)`` per referencing
  statement instance, times the statement instances per trip, times the
  trips left after the adaptation boundary;
* cost — ``alpha * messages + beta * words`` of the exact remap
  transfer matrix;
* adopt iff ``gain > HYSTERESIS * cost`` — the hysteresis margin keeps
  marginal crossovers from thrashing layouts.

:func:`select_passes` is the second candidate-action family: a
per-program ``-O2`` pass configuration scored by the same model
(coalescing buys ``alpha`` per merged message — worthless at
``alpha=0``; subsumption buys ``beta`` per contained word — worthless at
``beta=0`` or without repeated same-source references).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from repro.engine.ir import LoopNode, Node, ProgramGraph, \
    StatementNode, replay_blockers
from repro.machine.config import MachineConfig

__all__ = ["BOUNDARY_TRIP", "HYSTERESIS", "MIN_TRIPS_LEFT", "Proposal",
           "TUNE_LOG", "TuneReport", "modeled_work", "propose_for_loop",
           "select_passes", "tune_graph"]

#: modeled gain must exceed HYSTERESIS x remap cost to adopt
HYSTERESIS = 1.25

#: never adapt with fewer trips left — the last trip can never amortize
#: a remap, and one trip of margin keeps the decision robust
MIN_TRIPS_LEFT = 2

#: the adaptation boundary: trips [0, BOUNDARY_TRIP) are observed first
#: (the feedback half of the loop), the remap lands at this boundary
BOUNDARY_TRIP = 1


def modeled_work(dist: Any, costs: np.ndarray,
                 n_processors: int) -> np.ndarray:
    """Per-processor weighted work under ``dist``: the per-index costs
    along dimension 1, broadcast over the remaining dimensions,
    accumulated onto each element's primary owner."""
    om = dist.primary_owner_map()
    weights = np.asarray(costs, dtype=np.float64)
    shape = (len(weights),) + (1,) * (om.ndim - 1)
    grid = np.broadcast_to(weights.reshape(shape), om.shape)
    return np.bincount(om.reshape(-1), weights=grid.reshape(-1),
                       minlength=n_processors)


@dataclass(frozen=True)
class Proposal:
    """One candidate GENERAL_BLOCK re-partition with its economics."""

    array: str
    #: proposed format list (balanced GENERAL_BLOCK on dimension 1,
    #: remaining formats preserved)
    formats: tuple
    #: the array's current processor target, preserved
    to: Any
    #: the loop-trip boundary the remap would land at
    trip: int
    trips_left: int
    #: statement instances per trip referencing the array
    refs_per_trip: int
    per_trip_gain: float
    #: per_trip_gain * trips_left
    modeled_gain: float
    #: alpha * messages + beta * words of the exact remap matrix
    modeled_cost: float
    moved_words: int
    messages: int
    imbalance_before: float
    imbalance_after: float
    #: modeled per-trip compute makespan under the current / proposed
    #: layout (flop * max weighted work * refs per trip)
    makespan_before: float
    makespan_after: float

    @property
    def worthwhile(self) -> bool:
        return self.modeled_gain > HYSTERESIS * self.modeled_cost

    @property
    def improvement(self) -> float:
        """Fractional per-trip makespan improvement (0.62 = 62%)."""
        if self.makespan_before <= 0:
            return 0.0
        return 1.0 - self.makespan_after / self.makespan_before

    def describe(self) -> str:
        verdict = "ADAPT" if self.worthwhile else "keep"
        return (f"{verdict} {self.array} -> {self.formats[0]} at trip "
                f"{self.trip}: gain {self.per_trip_gain:.1f}/trip x "
                f"{self.trips_left} trips = {self.modeled_gain:.1f} vs "
                f"remap cost {self.modeled_cost:.1f} "
                f"({self.moved_words} words, {self.messages} msgs); "
                f"imbalance {self.imbalance_before:.2f} -> "
                f"{self.imbalance_after:.2f}")


def _ref_counts(loop: LoopNode) -> dict[str, int]:
    """Statement instances per single trip of ``loop`` referencing each
    array (nested loop trip counts multiply)."""
    counts: dict[str, int] = {}

    def visit(nodes: Sequence[Node], mult: int) -> None:
        for node in nodes:
            if isinstance(node, LoopNode):
                visit(node.body, mult * node.count)
            elif isinstance(node, StatementNode):
                for name in node.reads() | node.writes():
                    counts[name] = counts.get(name, 0) + mult

    visit(loop.body, 1)
    return counts


def propose_for_loop(ds: Any, config: MachineConfig, loop: LoopNode, *,
                     boundary_trip: int = BOUNDARY_TRIP,
                     skip: Iterable[str] = ()) -> list[Proposal]:
    """Candidate re-partitions for one loop, priced against ``config``.

    Empty unless the loop has at least ``MIN_TRIPS_LEFT`` trips after
    the boundary (never adapt on the last trip), is free of replay
    blockers (a mid-loop layout or storage event makes the split
    illegal), and references a profiled, explicitly-formatted DYNAMIC
    array whose first dimension is distributed.
    """
    profiles = getattr(ds, "cost_profiles", None)
    if not profiles:
        return []
    trips_left = loop.count - boundary_trip
    if trips_left < MIN_TRIPS_LEFT:
        return []
    if replay_blockers(loop):
        return []
    refs = _ref_counts(loop)
    excluded = set(skip)
    out: list[Proposal] = []
    for name in sorted(refs):
        if name in excluded or name not in profiles:
            continue
        proposal = _propose_array(ds, config, name, profiles[name],
                                  refs[name], boundary_trip, trips_left)
        if proposal is not None:
            out.append(proposal)
    return out


def _propose_array(ds: Any, config: MachineConfig, name: str,
                   costs: np.ndarray, refs_per_trip: int, trip: int,
                   trips_left: int) -> Proposal | None:
    from repro.autotune.partition import balanced_bounds
    from repro.core.dataspace import RemapEvent
    from repro.distributions.distribution import FormatDistribution
    from repro.distributions.general_block import GeneralBlock
    from repro.engine.redistribute import price_remap

    arr = getattr(ds, "arrays", {}).get(name)
    if arr is None or not getattr(arr, "dynamic", False) \
            or not arr.is_allocated:
        return None
    try:
        old = ds.distribution_of(name)
    except Exception:
        return None
    formats = getattr(old, "formats", None)
    if formats is None or getattr(old, "is_replicated", False):
        return None     # aligned/constructed/replicated: out of scope
    weights = np.asarray(costs, dtype=np.float64)
    dim0 = arr.domain.dims[0]
    if len(weights) != len(dim0):
        return None     # profile declared against a different extent
    if not formats[0].consumes_target_dim:
        return None     # dimension 1 not distributed: nothing to split
    np0 = int(old.dims[0].np_)
    if np0 < 2:
        return None
    p = int(ds.ap.size)
    new_fmt = GeneralBlock(balanced_bounds(weights, np0, lower=dim0.lower))
    new_formats = (new_fmt,) + tuple(formats[1:])
    try:
        new = FormatDistribution(old.domain, new_formats, old.target,
                                 ds.ap)
    except Exception:
        return None
    work_before = modeled_work(old, weights, p)
    work_after = modeled_work(new, weights, p)
    per_ref_gain = config.flop * float(work_before.max()
                                       - work_after.max())
    per_trip_gain = per_ref_gain * refs_per_trip
    if per_trip_gain <= 0.0:
        return None     # current layout is already as good (or better)
    matrix, moved = price_remap(RemapEvent(name, old, new, "AUTOTUNE"), p)
    messages = int(np.count_nonzero(matrix))
    cost = config.alpha * messages + config.beta * float(matrix.sum())
    mean = float(work_before.sum()) / p
    return Proposal(
        array=name, formats=new_formats, to=old.target, trip=trip,
        trips_left=trips_left, refs_per_trip=refs_per_trip,
        per_trip_gain=per_trip_gain,
        modeled_gain=per_trip_gain * trips_left,
        modeled_cost=cost, moved_words=int(moved), messages=messages,
        imbalance_before=(float(work_before.max() / mean)
                          if mean > 0 else 1.0),
        imbalance_after=(float(work_after.max() / mean)
                         if mean > 0 else 1.0),
        makespan_before=(config.flop * float(work_before.max())
                         * refs_per_trip),
        makespan_after=(config.flop * float(work_after.max())
                        * refs_per_trip))


# ----------------------------------------------------------------------
# Pass selection: the -O2 set scored instead of always-on
# ----------------------------------------------------------------------
def _statement_instances(nodes: Sequence[Node], mult: int = 1) -> int:
    total = 0
    for node in nodes:
        if isinstance(node, LoopNode):
            total += _statement_instances(node.body, mult * node.count)
        elif isinstance(node, StatementNode):
            total += mult
    return total


def _static_statements(nodes: Sequence[Node]) -> Iterable[StatementNode]:
    for node in nodes:
        if isinstance(node, LoopNode):
            yield from _static_statements(node.body)
        elif isinstance(node, StatementNode):
            yield node


def _has_repeated_source(graph: ProgramGraph) -> bool:
    for node in _static_statements(graph.nodes):
        names = [r.name for r in node.stmt.rhs.refs()]
        if len(names) != len(set(names)):
            return True
    return False


def select_passes(graph: ProgramGraph, config: MachineConfig
                  ) -> tuple[frozenset[str], dict[str, str]]:
    """A per-program pass configuration scored by the alpha-beta model.

    Returns ``(passes, rationale)``.  Halo validity and CSE are always
    on (they elide provably redundant traffic at zero risk); coalescing,
    subsumption and hoisting switch on only when the model prices a
    positive saving for *this* program on *this* machine.
    """
    from repro.engine.passes import plan_hoists

    chosen = {"halo", "cse"}
    rationale = {
        "halo": "on: resident-face reuse saves every re-shipped word",
        "cse": "on: identical-schedule elision saves every re-shipped "
               "word",
    }
    instances = _statement_instances(graph.nodes)
    if config.alpha > 0.0 and instances >= 2:
        chosen.add("coalesce")
        rationale["coalesce"] = (
            f"on: alpha={config.alpha:g} per message startup, "
            f"{instances} statement instances to merge across")
    elif config.alpha <= 0.0:
        rationale["coalesce"] = "off: alpha=0, message startups are free"
    else:
        rationale["coalesce"] = ("off: single-statement program, "
                                 "nothing to merge")
    if config.beta > 0.0 and _has_repeated_source(graph):
        chosen.add("subsume")
        rationale["subsume"] = (
            f"on: beta={config.beta:g} per word, repeated same-source "
            "references can skip element-contained cells")
    elif config.beta <= 0.0:
        rationale["subsume"] = "off: beta=0, words are free"
    else:
        rationale["subsume"] = ("off: no statement reads one source "
                                "array twice")
    if plan_hoists(graph):
        chosen.add("hoist")
        rationale["hoist"] = ("on: loop-invariant remaps found, "
                              "run each once")
    else:
        rationale["hoist"] = "off: no hoistable remap in the program"
    return frozenset(chosen), rationale


# ----------------------------------------------------------------------
# The report-only front door (`repro tune` / Session.tune())
# ----------------------------------------------------------------------
@dataclass
class TuneReport:
    """The advisor's full report for one recorded program."""

    proposals: list[Proposal] = field(default_factory=list)
    passes: frozenset[str] = frozenset()
    rationale: dict[str, str] = field(default_factory=dict)

    @property
    def adoptions(self) -> list[Proposal]:
        """The proposals ``opt="auto"`` would actually act on."""
        return [p for p in self.proposals if p.worthwhile]

    def render(self) -> str:
        lines = ["autotune proposals:"]
        if not self.proposals:
            lines.append("  (none: no profiled DYNAMIC array inside an "
                         "adaptable loop)")
        for prop in self.proposals:
            lines.append("  " + prop.describe())
        ordered = ", ".join(sorted(self.passes)) if self.passes \
            else "(none)"
        lines.append(f"passes: {ordered}")
        for name in sorted(self.rationale):
            lines.append(f"  {name}: {self.rationale[name]}")
        return "\n".join(lines)


#: reports collected by report-only mode (``REPRO_TUNE=1``), the same
#: process-wide drain pattern as ``diagnostics.LINT_LOG``
TUNE_LOG: list[TuneReport] = []


def tune_graph(ds: Any, graph: ProgramGraph,
               config: MachineConfig | None = None) -> TuneReport:
    """Run the advisor statically over a recorded program.

    Walks the loops in static pre-order, proposing for each exactly what
    the runtime tuner would at that loop's entry (once a worthwhile
    proposal adopts an array, later loops skip it — mirroring the
    one-adaptation-per-array rule).  Nothing executes; calling this any
    number of times leaves the scope untouched.
    """
    if config is None:
        config = MachineConfig(int(ds.ap.size))
    proposals: list[Proposal] = []
    adapted: set[str] = set()

    def visit(nodes: Sequence[Node]) -> None:
        for node in nodes:
            if not isinstance(node, LoopNode):
                continue
            for prop in propose_for_loop(ds, config, node, skip=adapted):
                proposals.append(prop)
                if prop.worthwhile:
                    adapted.add(prop.array)
            visit(node.body)

    visit(graph.nodes)
    passes, rationale = select_passes(graph, config)
    return TuneReport(proposals=proposals, passes=passes,
                      rationale=rationale)
