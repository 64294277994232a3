"""The optimizing pass pipeline over the program-level IR.

Per-statement execution charges every assignment in isolation: one
schedule, one exchange, one deposit per reference.  The passes here
rewrite that stream over a whole :class:`~repro.engine.ir.ProgramGraph`
into a fused :class:`ProgramSchedule`, selected by opt level:

========  ==============================================================
``-O0``   no passes — per-statement schedules, the baseline semantics
``-O1``   **halo validity** + **communication CSE**
``-O2``   ``-O1`` + **subset subsumption** + **message coalescing** +
          **remap hoisting**
========  ==============================================================

* *Halo validity* — a charged ghost/shift exchange leaves its faces
  resident on the receivers; the resident entry carries a validity state
  (layout epoch + write version of every source array) and a later
  statement needing the same faces in the same state skips the exchange
  instead of refetching (the Jacobi-with-residual and multigrid
  smoothing pattern).
* *Communication CSE* — the same mechanism for non-stencil shapes:
  an identical reference schedule (same section, same source data, same
  destination partition, same words matrix) charged twice within one
  layout epoch is compiled and charged once.
* *Subset subsumption* — residency keyed on element *ranges* instead of
  whole words matrices: each charged SHIFT exchange accumulates the
  global element ids it left resident per ``(source, src, dst)`` cell,
  and a later exchange whose cell's element set is *contained* in the
  resident set skips that cell — entirely when every cell is covered,
  partially (the covered cells zeroed out of the charge) otherwise.
  This is what halo validity cannot see: a 9-point stencil's diagonal
  refs stop re-shipping the face data its straight refs already moved,
  even though no two of the nine words matrices are equal.
* *Message coalescing* — deposits inside a fusion window buffer and
  flush as one merged matrix: messages to the same (src, dst) pair
  merge with summed words, so message counts drop while words and
  numerics stay exact.  The window flushes when a statement writes an
  array a buffered exchange read, at a size bound, and at every layout
  change — delaying a message past either boundary would be unsound on
  a real machine.
* *Remap hoisting* — a REDISTRIBUTE/REALIGN inside a loop body is
  proven loop-invariant via the IR (no other node in the body mutates
  the mapping of any array it touches) and executed on the first trip
  only; trips 2..N skip the directive entirely, so the layout epoch —
  and every compiled schedule — survives the iteration.

Numerics never route through a pass: the executors compute exactly what
they compute at ``-O0`` (the 4-way differential harness proves
bit-identity), and per-statement report attribution
(``per_ref``/``patterns``/``words_by_pattern``) stays complete; only
what the *machine* is charged changes, with every elision recorded in
:attr:`~repro.machine.metrics.CommStats.opt_words_saved`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dataspace import DataSpace
from repro.engine.executor import Accountant
from repro.engine.ir import (
    AllocateNode,
    DeallocateNode,
    LoopNode,
    ProgramGraph,
    RealignNode,
    RedistributeNode,
    StatementNode,
)
from repro.engine.lowering import Pattern, coalesce_deposits
from repro.engine.redistribute import charge_remap
from repro.errors import MachineError
from repro.machine.simulator import DistributedMachine

__all__ = [
    "CommAction", "OPT_PASSES", "OptimizingAccountant", "ProgramRunner",
    "ProgramRunResult", "ProgramSchedule", "StatementPlan",
    "adaptive_window", "passes_for",
]

#: pass names enabled at each opt level
OPT_PASSES: dict[int, tuple[str, ...]] = {
    0: (),
    1: ("halo", "cse"),
    2: ("halo", "cse", "subsume", "coalesce", "hoist"),
}

#: deposits buffered before a fusion window force-flushes until
#: :meth:`ProgramRunner.run` sizes it with :func:`adaptive_window`
_WINDOW_LIMIT = 16

#: clamp range for adaptively sized fusion windows
_WINDOW_MIN, _WINDOW_MAX = 4, 64


def adaptive_window(graph: ProgramGraph) -> int:
    """Size the coalescing window from the statement mix of ``graph``.

    The window only helps while deposits can legally stay buffered: a
    dependent write (a statement writing an array a buffered exchange
    read) or a layout mutation forces a flush regardless of the bound.
    So the useful window is the longest run of reference deposits
    between two forced flush boundaries — anything larger buys nothing,
    anything smaller force-flushes mid-run and splits messages that
    could have merged.  The run count is clamped to [4, 64]; an empty
    program falls back to the legacy fixed bound.
    """
    best = run = 0
    pending_reads: set[str] = set()
    for node, _, _ in graph.walk():
        if isinstance(node, StatementNode):
            run += max(len(node.stmt.rhs.refs()), 1)
            pending_reads |= node.reads()
            if node.stmt.lhs.name in pending_reads:
                best = max(best, run)
                run = 0
                pending_reads.clear()
        elif node.layout_of():
            best = max(best, run)
            run = 0
            pending_reads.clear()
    best = max(best, run)
    if best == 0:
        return _WINDOW_LIMIT
    return min(max(best, _WINDOW_MIN), _WINDOW_MAX)


def passes_for(opt_level) -> tuple[str, ...]:
    if str(opt_level).lower() == "auto":
        # the full -O2 pass set; auto adds only layout adaptation
        return OPT_PASSES[2]
    try:
        return OPT_PASSES[int(opt_level)]
    except (KeyError, ValueError, TypeError):
        raise MachineError(
            f"unknown opt level {opt_level!r}; use 0, 1, 2 or 'auto'"
        ) from None


# ----------------------------------------------------------------------
# The fused program schedule (what the pipeline produced)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CommAction:
    """What happened to one reference's deposit of one statement."""

    ref: str
    #: 'charged' | 'fused' | 'halo-skip' | 'cse-skip' | 'subsume-skip'
    #: | 'local'
    action: str
    words: int         #: logical words of the reference (attribution)
    pattern: str


@dataclass(frozen=True)
class StatementPlan:
    """One executed statement instance and its rewritten communication."""

    index: int                     #: dynamic instance number
    statement: str
    actions: tuple[CommAction, ...]

    @property
    def charged_words(self) -> int:
        return sum(a.words for a in self.actions
                   if a.action in ("charged", "fused"))

    @property
    def skipped_words(self) -> int:
        return sum(a.words for a in self.actions
                   if a.action.endswith("skip"))


@dataclass(frozen=True)
class RemapPlan:
    """One dynamic remap directive instance."""

    index: int
    directive: str
    executed: bool                 #: False when hoisted out of its trip
    moved_words: int = 0


@dataclass
class ProgramSchedule:
    """The per-statement schedules rewritten over the whole region —
    the record of every fusion/elision decision, in execution order."""

    opt_level: int
    passes: tuple[str, ...]
    steps: list = field(default_factory=list)   #: StatementPlan | RemapPlan

    @property
    def statement_plans(self) -> list[StatementPlan]:
        return [s for s in self.steps if isinstance(s, StatementPlan)]

    @property
    def hoisted_remaps(self) -> int:
        return sum(1 for s in self.steps
                   if isinstance(s, RemapPlan) and not s.executed)

    def summary(self) -> str:
        plans = self.statement_plans
        charged = sum(p.charged_words for p in plans)
        skipped = sum(p.skipped_words for p in plans)
        return (f"ProgramSchedule[-O{self.opt_level}]: "
                f"{len(plans)} statements, charged={charged} "
                f"skipped={skipped} hoisted_remaps={self.hoisted_remaps}")


# ----------------------------------------------------------------------
# The runtime pass engine (halo validity / CSE / coalescing)
# ----------------------------------------------------------------------
class OptimizingAccountant(Accountant):
    """Accounting policy implementing the dynamic passes.

    Bound to one ``(data space, machine)`` pair; executors route every
    deposit through :meth:`deposit` and report every completed write
    through :meth:`note_write`.  Two executors driven with the same
    statement stream and separate accountant instances make identical
    decisions — which is why the SPMD backend stays bit-identical to the
    simulator at every opt level.
    """

    def __init__(self, ds: DataSpace, machine: DistributedMachine,
                 opt_level: int = 2) -> None:
        self.ds = ds
        self.machine = machine
        self.opt_level = int(opt_level)
        self.passes = frozenset(passes_for(opt_level))
        self.window = _WINDOW_LIMIT
        #: resident-exchange table: key -> (layout epoch, src versions),
        #: LRU-bounded like the ScheduleCache it sits beside (a session
        #: sweeping many distinct statements must not accumulate stale
        #: entries whose versions can never match again)
        self._resident: dict = {}
        self._resident_max = 512
        #: per-array write version (bumped by note_write; bounded by the
        #: scope's array count)
        self._versions: dict[str, int] = {}
        #: element-range residency for the subsumption pass:
        #: (source array, src, dst) -> ((epoch, source version),
        #: accumulated resident element-id set) — union-accumulated by
        #: every charged SHIFT exchange, LRU-bounded like ``_resident``
        self._ghost_resident: dict = {}
        self._ghost_max = 512
        #: buffered (matrix, lowering, tag, reads, nnz) deposits — all
        #: bound for ``_buffer_machine``
        self._buffer: list = []
        self._buffer_machine: DistributedMachine | None = None
        self._pending_reads: set[str] = set()
        # pass counters
        self.halo_skips = 0
        self.cse_hits = 0
        self.subsume_skips = 0
        self.fused_windows = 0
        self.fused_deposits = 0
        self.hoisted_remaps = 0

    # -- helpers -------------------------------------------------------
    def _state(self, reads: tuple[str, ...]) -> tuple:
        return (self.ds.layout_epoch,
                tuple(self._versions.get(a, 0) for a in reads))

    def _note_ghosts(self, source: str, gstate: tuple, ghosts) -> None:
        """Union-accumulate a charged (or fully resident) exchange's
        element ids into the per-(source, src, dst) residency sets."""
        for q, p, ids in ghosts:
            k3 = (source, q, p)
            entry = self._ghost_resident.get(k3)
            if entry is not None and entry[0] == gstate:
                self._ghost_resident[k3] = (gstate, entry[1] | ids)
            else:
                if entry is None:
                    while len(self._ghost_resident) >= self._ghost_max:
                        self._ghost_resident.pop(
                            next(iter(self._ghost_resident)))
                self._ghost_resident[k3] = (gstate, ids)

    # -- the Accountant protocol ---------------------------------------
    def deposit(self, machine, words, lowering, tag, *, ref="",
                source="", lhs_key=b"", ghosts=None):
        w = np.asarray(words)
        off = w.copy()
        np.fill_diagonal(off, 0)
        moved = int(off.sum())
        if moved == 0:
            return "local"
        reads = (source,)
        key = (ref, reads, lhs_key, off.tobytes())
        state = self._state(reads)
        skippable = "halo" in self.passes or "cse" in self.passes
        hit = self._resident.get(key)
        if skippable and hit == state:
            self._resident[key] = self._resident.pop(key)   # LRU refresh
            n_msgs = int(np.count_nonzero(off))
            is_halo = lowering.pattern is Pattern.SHIFT
            opt = "halo" if is_halo else "cse"
            machine.note_savings(opt, moved, n_msgs)
            if opt == "halo":
                self.halo_skips += 1
            else:
                self.cse_hits += 1
            return f"{opt}-skip"
        # subset subsumption: per-(src, dst) cell, skip the cell when
        # its element set is contained in what earlier exchanges of the
        # same source left resident — the containment whole-matrix
        # residency (above) cannot express
        track_ghosts = "subsume" in self.passes and ghosts and source
        gstate: tuple = ()
        charged_w, charged_off = w, off
        if track_ghosts:
            gstate = (self.ds.layout_epoch,
                      self._versions.get(source, 0))
            covered = []
            for q, p, ids in ghosts:
                entry = self._ghost_resident.get((source, q, p))
                if (entry is not None and entry[0] == gstate
                        and off[q, p] and ids <= entry[1]):
                    covered.append((q, p))
            if covered:
                charged_off = off.copy()
                saved = 0
                for q, p in covered:
                    saved += int(charged_off[q, p])
                    charged_off[q, p] = 0
                machine.note_savings("subsume", saved, len(covered))
                if not charged_off.any():
                    # every cell resident element-wise: full skip.  The
                    # exact key becomes resident too — the exchange's
                    # data *is* on the receivers, so later identical
                    # deposits may take the cheaper matrix-hit path.
                    self.subsume_skips += 1
                    if skippable:
                        if hit is None:
                            while len(self._resident) >= \
                                    self._resident_max:
                                self._resident.pop(
                                    next(iter(self._resident)))
                        self._resident[key] = state
                    self._note_ghosts(source, gstate, ghosts)
                    return "subsume-skip"
                charged_w = w.copy()
                for q, p in covered:
                    charged_w[q, p] = 0
        partial = charged_off is not off
        if skippable:
            # the exchange will reach the machine (now or at the window
            # flush): its faces are resident from here on
            if hit is None:
                while len(self._resident) >= self._resident_max:
                    self._resident.pop(next(iter(self._resident)))
            self._resident[key] = state
        if track_ghosts:
            self._note_ghosts(source, gstate, ghosts)
        if "coalesce" in self.passes:
            if self._buffer and machine is not self._buffer_machine:
                # one window never spans machines
                self.flush()
            self._buffer_machine = machine
            self._buffer.append((charged_off, lowering, tag,
                                 frozenset(reads),
                                 int(np.count_nonzero(charged_off))))
            self._pending_reads.update(reads)
            if len(self._buffer) >= self.window:
                self.flush()
            if partial:
                return ("fused", int(charged_w.sum()))
            return "fused"
        machine.charge_collective(charged_w, lowering, tag=tag)
        if partial:
            return ("charged", int(charged_w.sum()))
        return "charged"

    def note_write(self, name: str) -> None:
        if not name:
            return
        if name in self._pending_reads:
            # Fortran semantics: the buffered exchanges read their data
            # before this write — they must reach the wire first
            self.flush()
        self._versions[name] = self._versions.get(name, 0) + 1

    def flush(self) -> None:
        if not self._buffer:
            return
        buffer, self._buffer = self._buffer, []
        machine = self._buffer_machine
        self._buffer_machine = None
        self._pending_reads = set()
        if len(buffer) == 1:
            matrix, lowering, tag, _, _ = buffer[0]
            machine.charge_collective(matrix, lowering, tag=tag)
            return
        merged, lowering = coalesce_deposits(
            [(m, lo) for m, lo, _, _, _ in buffer])
        n_before = sum(n for _, _, _, _, n in buffer)
        n_after = int(np.count_nonzero(merged))
        tag = f"fused[{len(buffer)}]:{buffer[0][2]}"
        machine.charge_collective(merged, lowering, tag=tag)
        self.fused_windows += 1
        self.fused_deposits += len(buffer)
        machine.note_savings("coalesce", 0, n_before - n_after)

    # -- layout / loop events (driven by the runner) -------------------
    def on_layout_change(self) -> None:
        """A remap/allocation is about to mutate the layout: buffered
        exchanges belong to the old layout and must deposit first.  The
        resident table self-invalidates through the epoch in its keys'
        states, so no explicit eviction is needed."""
        self.flush()

    def note_hoist(self) -> None:
        """A loop-invariant remap was elided on this trip.  The words
        saved are genuinely zero — re-applying an identical directive
        reproduces the same owner maps, so its transfer matrix is empty
        — what hoisting saves is the epoch bump and the schedule
        recompilations behind it; the elision count is the measure."""
        self.hoisted_remaps += 1
        self.machine.note_savings("hoist", 0, 0)

    def savings(self) -> dict[str, int]:
        stats = self.machine.stats
        return {
            "halo_skips": self.halo_skips,
            "cse_hits": self.cse_hits,
            "subsume_skips": self.subsume_skips,
            "fused_windows": self.fused_windows,
            "fused_deposits": self.fused_deposits,
            "hoisted_remaps": self.hoisted_remaps,
            "words_saved": stats.total_words_saved,
            "msgs_saved": stats.total_msgs_saved,
        }


# ----------------------------------------------------------------------
# The static pass: remap hoisting
# ----------------------------------------------------------------------
def plan_hoists(graph: ProgramGraph) -> set[int]:
    """``id``s of remap nodes proven loop-invariant.

    A REDISTRIBUTE/REALIGN directly inside a loop body hoists iff no
    *other* node anywhere in that body (nested loops included) mutates
    or depends on the mapping of any array it touches — re-executing it
    on trips 2..N would then reproduce the identical layout, so the
    directive runs on the first trip only.
    """
    hoisted: set[int] = set()

    def static_nodes(nodes):
        for node in nodes:
            yield node
            if isinstance(node, LoopNode):
                yield from static_nodes(node.body)

    def visit(nodes):
        for node in nodes:
            if not isinstance(node, LoopNode):
                continue
            visit(node.body)
            body_nodes = list(static_nodes(node.body))
            for cand in node.body:      # only direct children hoist
                if not isinstance(cand, (RedistributeNode, RealignNode)):
                    continue
                scope = cand.layout_of()
                clash = any(
                    other is not cand and (other.layout_of() & scope)
                    for other in body_nodes)
                if not clash:
                    hoisted.add(id(cand))

    visit(graph.nodes)
    return hoisted


# ----------------------------------------------------------------------
# The runner: interpret a ProgramGraph under one backend + opt level
# ----------------------------------------------------------------------
@dataclass
class ProgramRunResult:
    """Everything one program-level run produced."""

    reports: list                       #: per-statement execution reports
    schedule: ProgramSchedule
    machine: DistributedMachine
    ds: DataSpace
    savings: dict = field(default_factory=dict)
    #: autotune actions taken this run (``opt="auto"`` only), each an
    #: :class:`~repro.autotune.tuner.Adaptation` carrying modeled
    #: gain/cost beside the words/messages actually charged
    adaptations: list = field(default_factory=list)

    @property
    def charged_words(self) -> int:
        """Words the machine physically moved."""
        return self.machine.stats.total_words

    @property
    def logical_words(self) -> int:
        """Per-statement attribution total (opt-level invariant)."""
        return sum(r.total_words for r in self.reports)


class ProgramRunner:
    """Executes a :class:`~repro.engine.ir.ProgramGraph` against a data
    space and machine under one execution backend and opt level.

    ``backend`` is a :class:`~repro.machine.backend.Backend` spec:
    ``Backend.simulate()`` (the ``None`` default) or
    ``Backend.spmd(...)``.  Both executors charge the same compiled
    schedules through the shared
    :func:`~repro.engine.executor.charge_schedule` deposit seam, so the
    optimizer's decisions (and the resulting machine state) are backend
    independent while numerics come from whichever engine was asked.
    """

    def __init__(self, ds: DataSpace, machine: DistributedMachine, *,
                 backend=None, opt_level=0,
                 charge_remaps: bool = True) -> None:
        self.ds = ds
        self.machine = machine
        #: ``opt_level="auto"`` runs the full -O2 pass set and enables
        #: the feedback loop: a tuner may adapt layouts at loop-trip
        #: boundaries (repro.autotune)
        self.auto = str(opt_level).lower() == "auto"
        self.opt_level = 2 if self.auto else int(opt_level)
        self.passes = frozenset(passes_for(opt_level))
        self.charge_remaps = charge_remaps
        from repro.machine.backend import make_executor
        self.executor = make_executor(ds, machine, backend)
        self.accountant = (OptimizingAccountant(ds, machine, self.opt_level)
                           if self.passes else None)
        self.executor.accountant = self.accountant
        #: the AutoTuner of the most recent ``auto`` run (introspection)
        self._tuner = None

    # ------------------------------------------------------------------
    def close(self) -> None:
        if hasattr(self.executor, "close"):
            self.executor.close()

    def __enter__(self) -> "ProgramRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _replay_eligible(self, loop: LoopNode) -> bool:
        """Whether ``loop`` may be handed to the executor whole as a
        worker-resident replay program: the executor must support (and
        not have opted out of) replay, and the loop must carry the IR's
        trip-invariance certificate — the same legality
        :func:`plan_hoists` reasons from.  A loop containing a hoistable
        remap is *not* trip-invariant and falls back to the unrolled
        dispatch path, where hoisting handles it."""
        return (getattr(self.executor, "replay", False)
                and hasattr(self.executor, "execute_loop")
                and loop.is_trip_invariant())

    def run(self, graph: ProgramGraph,
            on_node=None) -> ProgramRunResult:
        """Execute every dynamic node instance of ``graph`` in order.

        ``on_node(node, trip)`` — when given — is invoked after each
        dynamic node instance executes (front ends use it to trace
        per-line mapping snapshots).  A loop proven trip-invariant is
        handed to a replay-capable executor whole
        (:meth:`~repro.engine.spmd.SpmdExecutor.execute_loop`); its
        statement instances are then traced after the loop completes, in
        the exact order :meth:`~repro.engine.ir.ProgramGraph.walk` would
        have produced — sound because trip invariance means no mapping
        snapshot can change inside the loop.
        """
        acct = self.accountant
        tuner = None
        if self.auto and acct is not None:
            from repro.autotune import AutoTuner, WorkProfile
            # the feedback loop's measurement half rides the accountant;
            # charge_schedule observes into it without touching ledgers
            profile = WorkProfile(self.machine.config.n_processors)
            acct.profile = profile
            tuner = AutoTuner(self.ds, self.machine,
                              config=self.machine.config, profile=profile)
            self._tuner = tuner
        if acct is not None and "coalesce" in self.passes:
            acct.window = adaptive_window(graph)
        hoists = plan_hoists(graph) if "hoist" in self.passes else set()
        schedule = ProgramSchedule(self.opt_level, tuple(self.passes))
        reports: list = []
        index = 0

        def emit(node, trip, report) -> None:
            nonlocal index
            reports.append(report)
            schedule.steps.append(self._plan(index, report))
            if on_node is not None:
                on_node(node, trip)
            index += 1

        def replay(loop: LoopNode) -> None:
            flat = loop.flat_body()
            loop_reports = self.executor.execute_loop(
                [sn.stmt for sn in flat], loop.count)
            it = iter(loop_reports)

            def visit(nodes, trip) -> None:
                for n in nodes:
                    if isinstance(n, LoopNode):
                        for k in range(n.count):
                            visit(n.body, k)
                    else:
                        emit(n, trip, next(it))

            for k in range(loop.count):
                visit(loop.body, k)
            del visit       # break the self-reference (see run_nodes)

        def adapt(proposal) -> None:
            # actuation goes through the ordinary REDISTRIBUTE path:
            # epoch bump, cache invalidation, flush, ledger charge
            nonlocal index
            node = RedistributeNode(proposal.array,
                                    tuple(proposal.formats), proposal.to)
            schedule.steps.append(self._remap(index, node))
            index += 1

        def run_nodes(nodes, trip) -> None:
            nonlocal index
            for node in nodes:
                if isinstance(node, LoopNode):
                    split = tuner.consider(node) if tuner is not None \
                        else None
                    if split is not None:
                        # observation trips run unrolled; the adaptation
                        # lands at the trip boundary (only if the
                        # profile confirmed real work); the remaining
                        # trips go back to the ordinary loop path
                        for k in range(split.trip):
                            run_nodes(node.body, k)
                        tuner.apply(split, adapt)
                        rest = LoopNode(node.count - split.trip,
                                        node.body)
                        if self._replay_eligible(rest):
                            replay(rest)
                        else:
                            for k in range(rest.count):
                                run_nodes(node.body, split.trip + k)
                    elif self._replay_eligible(node):
                        replay(node)
                    else:
                        for k in range(node.count):
                            run_nodes(node.body, k)
                    continue
                if isinstance(node, StatementNode):
                    emit(node, trip, self.executor.execute(node.stmt))
                    continue
                if isinstance(node, (RedistributeNode, RealignNode)):
                    if id(node) in hoists and trip > 0:
                        acct.note_hoist()
                        schedule.steps.append(
                            RemapPlan(index, str(node), executed=False))
                    else:
                        schedule.steps.append(self._remap(index, node))
                elif isinstance(node, AllocateNode):
                    if acct is not None:
                        acct.on_layout_change()
                    self.ds.allocate(node.array, *node.bounds)
                    if acct is not None:
                        acct.note_write(node.array)
                elif isinstance(node, DeallocateNode):
                    if acct is not None:
                        acct.on_layout_change()
                    self.ds.deallocate(node.array)
                if on_node is not None:
                    on_node(node, trip)
                index += 1

        try:
            run_nodes(graph.nodes, 0)
        finally:
            # run_nodes references itself through its closure cell; drop
            # it so what the run reached is freed by reference counting,
            # not at whichever later cyclic collection happens to run
            del run_nodes
            if acct is not None:
                acct.flush()
        return ProgramRunResult(
            reports, schedule, self.machine, self.ds,
            savings=acct.savings() if acct is not None else {},
            adaptations=list(tuner.adaptations)
            if tuner is not None else [])

    # ------------------------------------------------------------------
    def _plan(self, index: int, report) -> StatementPlan:
        actions = tuple(
            CommAction(ref, report.comm_actions.get(ref, "charged"),
                       int(matrix.sum()),
                       report.patterns.get(ref, "pointwise"))
            for ref, matrix, _, _ in report.per_ref)
        return StatementPlan(index, str(report.statement), actions)

    def _remap(self, index: int, node) -> RemapPlan:
        if self.accountant is not None:
            self.accountant.on_layout_change()
        if isinstance(node, RedistributeNode):
            event = self.ds.redistribute(node.array, node.formats,
                                         to=node.to)
        else:
            event = self.ds.realign(node.spec)
        moved = 0
        if self.charge_remaps:
            _, moved = charge_remap(self.machine, event)
        return RemapPlan(index, str(node), executed=True,
                         moved_words=moved)
