"""Static analysis over the program IR: `repro lint` without executing.

Everything this analyzer reasons about is *declared* — index domains,
distribution formats, alignment, DYNAMIC/ALLOCATABLE attributes, loop
trip counts — which is exactly the paper's argument for a directive
language: the compiler can verify a distributed program and predict its
communication before anything runs.  :func:`analyze` walks a
:class:`~repro.engine.ir.ProgramGraph` purely structurally and reports
:class:`~repro.engine.diagnostics.Diagnostic` findings:

* **name/storage hazards** — unknown arrays (RPR001), use after
  DEALLOCATE (RPR003), references to never-allocated allocatables
  (RPR004), double ALLOCATE / DEALLOCATE-of-unallocated (RPR008), and
  the loop-carried variant (RPR007: a body whose net allocation state
  changes re-runs into a guaranteed failure on trip 2);
* **section hazards** — subscripts or ranks outside the declared domain
  (RPR002) and non-conforming LHS/RHS section shapes (RPR005), the
  static halves of :class:`~repro.fortran.section.ArraySection` and
  :meth:`~repro.engine.assignment.Assignment.validate`;
* **def-use hazards** — reads of in-program allocations that nothing
  ever wrote (RPR010) and zero-trip loops (RPR011), computed once per
  static node, not once per trip;
* **layout hazards** — remaps of non-DYNAMIC arrays (RPR006), dead
  remaps whose layout epoch no statement ever uses (RPR012), and writes
  to replicated arrays, where every copy must be updated (RPR013);
* **perf lints** — statements whose compile-time lowering
  (:func:`~repro.engine.schedule.schedule_for` /
  :func:`~repro.engine.lowering.classify_matrix`) classifies as
  ALLTOALL (RPR020), remaps the transfer-matrix pricing calls dense
  (RPR021), and loop-invariant remaps the ``-O2`` hoist pass would
  lift but lower opt levels re-execute every trip (RPR022).

On top sits the **fusion-window race checker**: an independent
reimplementation of the SPMD window formation rule
(:func:`plan_windows`) plus a pairwise RAW/WAR conflict detector
(:func:`window_conflicts`), asserting the one concurrency-critical
planner in the system (:meth:`repro.engine.spmd.SpmdExecutor.execute_all`)
never groups conflicting statements under a single phase barrier.  WAW
pairs are legal there: workers apply a window's writes in statement
order, and the canonical download happens per statement in order.  The
checker runs standalone (:func:`check_fusion_windows`), inside
:func:`analyze`, and as a debug-mode assertion inside the SPMD executor
(``REPRO_DEBUG_WINDOWS=1``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Mapping, Sequence

from repro.engine.assignment import Assignment
from repro.engine.diagnostics import Diagnostic, DiagnosticError, Span
from repro.engine.expr import ArrayRef
from repro.engine.ir import (
    AllocateNode,
    DeallocateNode,
    LoopNode,
    Node,
    ProgramGraph,
    RealignNode,
    RedistributeNode,
    StatementNode,
)
from repro.engine.lowering import Pattern
from repro.fortran.domain import IndexDomain
from repro.fortran.triplet import Triplet

__all__ = [
    "analyze", "assert_window_race_free", "check_fusion_windows",
    "plan_windows", "window_conflicts",
]

#: wrap-around bound for liveness scans: two unrolled trips expose every
#: loop-carried next-use a further trip could (trip 3 repeats trip 2)
_LOOP_CLAMP = 2

#: dense-remap threshold: fraction of the domain a remap must move for
#: RPR021 (matches the ALLTOALL density intuition of the lowering model)
_DENSE_REMAP = 0.5


# ----------------------------------------------------------------------
# Per-array abstract state
# ----------------------------------------------------------------------
@dataclass
class _ArrayState:
    """What the analyzer knows about one array at a program point."""

    domain: IndexDomain | None
    allocatable: bool = False
    dynamic: bool = False
    #: a recorded DEALLOCATE killed the instance (RPR003 vs RPR004)
    deallocated: bool = False
    #: the live instance came from an in-graph ALLOCATE
    fresh: bool = False
    #: some statement wrote the array at or before this point
    written: bool = False
    #: the data space's layout for this array still matches the program
    #: point (no in-graph remap/ALLOCATE/DEALLOCATE has touched it), so
    #: compiled schedules and distributions read off ``ds`` are valid
    layout_current: bool = True


def _initial_state(ds: Any) -> dict[str, _ArrayState]:
    states: dict[str, _ArrayState] = {}
    for name, arr in getattr(ds, "arrays", {}).items():
        states[name] = _ArrayState(
            domain=arr.domain if arr.is_allocated else None,
            allocatable=bool(getattr(arr, "allocatable", False)),
            dynamic=bool(getattr(arr, "dynamic", False)))
    return states


# ----------------------------------------------------------------------
# The analyzer
# ----------------------------------------------------------------------
class _Analysis:
    def __init__(self, ds: Any, graph: ProgramGraph, *, opt_level: int,
                 lines: Mapping[int, int] | None, perf: bool) -> None:
        self.ds = ds
        self.graph = graph
        self.opt_level = int(opt_level)
        self.lines = lines or {}
        self.perf = perf
        self.states = _initial_state(ds)
        self.diagnostics: list[Diagnostic] = []
        #: one finding per (code, node id, array): a hazard inside a
        #: loop body is reported once, never once per trip
        self._seen: set[tuple[str, int, str]] = set()
        #: static pre-order statement index per node id (Session spans)
        self._index: dict[int, int] = {}
        counter = 0
        for node in _static_preorder(graph.nodes):
            self._index[id(node)] = counter
            counter += 1
        self._hoisted: set[int] = set()
        if self.perf:
            from repro.engine.passes import plan_hoists
            self._hoisted = plan_hoists(graph)
        self._loop_stack: list[LoopNode] = []

    # -- spans ---------------------------------------------------------
    def span_of(self, node: Node) -> Span:
        line = self.lines.get(id(node))
        return Span(line=line,
                    statement=(self._index.get(id(node))
                               if line is None else None),
                    label=str(node))

    def report(self, code: str, node: Node, message: str, *,
               array: str = "", words: int | None = None) -> None:
        key = (code, id(node), array)
        if key in self._seen:
            return
        self._seen.add(key)
        self.diagnostics.append(Diagnostic(
            code, message, span=self.span_of(node), array=array,
            words=words))

    # -- the walk ------------------------------------------------------
    def run(self) -> list[Diagnostic]:
        self._visit_body(self.graph.nodes)
        self._check_dead_remaps()
        self.diagnostics.extend(check_fusion_windows(
            self.graph, span_of=self.span_of))
        return self.diagnostics

    def _visit_body(self, nodes: Sequence[Node]) -> None:
        for node in nodes:
            if isinstance(node, StatementNode):
                self._visit_statement(node)
            elif isinstance(node, (RedistributeNode, RealignNode)):
                self._visit_remap(node)
            elif isinstance(node, AllocateNode):
                self._visit_allocate(node)
            elif isinstance(node, DeallocateNode):
                self._visit_deallocate(node)
            elif isinstance(node, LoopNode):
                self._visit_loop(node)

    # -- storage events ------------------------------------------------
    def _visit_allocate(self, node: AllocateNode) -> None:
        state = self.states.get(node.array)
        if state is None:
            self.report("RPR001", node,
                        f"ALLOCATE of unknown array {node.array!r}",
                        array=node.array)
            return
        if not state.allocatable:
            self.report("RPR008", node,
                        f"ALLOCATE of {node.array!r}, which was not "
                        "declared ALLOCATABLE", array=node.array)
        if state.domain is not None:
            self.report("RPR008", node,
                        f"ALLOCATE of {node.array!r}, which is already "
                        "allocated at this point", array=node.array)
        from repro.core.dataspace import DataSpace
        try:
            domain = DataSpace._domain_from_bounds(node.bounds)
        except Exception:
            domain = None
        state.domain = domain
        state.deallocated = False
        state.fresh = True
        state.written = False
        state.layout_current = False

    def _visit_deallocate(self, node: DeallocateNode) -> None:
        state = self.states.get(node.array)
        if state is None:
            self.report("RPR001", node,
                        f"DEALLOCATE of unknown array {node.array!r}",
                        array=node.array)
            return
        if state.domain is None:
            self.report("RPR008", node,
                        f"DEALLOCATE of {node.array!r}, which is not "
                        "allocated at this point", array=node.array)
        state.domain = None
        state.deallocated = True
        state.layout_current = False

    # -- statements ----------------------------------------------------
    def _resolve_ref(self, node: Node, ref: ArrayRef,
                     *, reading: bool) -> tuple[int, ...] | None:
        """Name/storage/bounds checks of one reference; returns the
        section shape when the reference is resolvable."""
        state = self.states.get(ref.name)
        if state is None:
            self.report("RPR001", node,
                        f"reference to unknown array {ref.name!r}",
                        array=ref.name)
            return None
        if state.domain is None:
            if state.deallocated:
                self.report("RPR003", node,
                            f"{ref.name!r} is referenced after its "
                            "DEALLOCATE", array=ref.name)
            else:
                self.report("RPR004", node,
                            f"{ref.name!r} has no instance here: "
                            "ALLOCATE it before referencing it",
                            array=ref.name)
            return None
        if reading and state.fresh and not state.written:
            self.report("RPR010", node,
                        f"{ref.name!r} is read but nothing has written "
                        "it since its ALLOCATE", array=ref.name)
        domain = state.domain
        if ref.subscripts is None:
            return domain.shape
        if len(ref.subscripts) != domain.rank:
            self.report("RPR002", node,
                        f"{ref} has {len(ref.subscripts)} subscripts "
                        f"for the rank-{domain.rank} domain {domain}",
                        array=ref.name)
            return None
        shape: list[int] = []
        ok = True
        for k, (sub, dim) in enumerate(zip(ref.subscripts, domain.dims)):
            if isinstance(sub, Triplet):
                if not sub.is_empty and not (sub.first in dim
                                             and sub.last in dim):
                    self.report(
                        "RPR002", node,
                        f"{ref}: triplet subscript {sub} leaves "
                        f"dimension {k + 1} of the declared domain "
                        f"{domain}", array=ref.name)
                    ok = False
                shape.append(len(sub))
            else:
                if int(sub) not in dim:
                    self.report(
                        "RPR002", node,
                        f"{ref}: scalar subscript {int(sub)} is outside "
                        f"dimension {k + 1} of the declared domain "
                        f"{domain}", array=ref.name)
                    ok = False
        return tuple(shape) if ok else None

    def _visit_statement(self, node: StatementNode) -> None:
        stmt = node.stmt
        lhs_shape = self._resolve_ref(node, stmt.lhs, reading=False)
        rhs_shapes: list[tuple[int, ...] | None] = []
        resolvable = lhs_shape is not None
        for ref in stmt.rhs.refs():
            shape = self._resolve_ref(node, ref, reading=True)
            rhs_shapes.append(shape)
            resolvable = resolvable and shape is not None
        if resolvable and lhs_shape is not None:
            for ref, shape in zip(stmt.rhs.refs(), rhs_shapes):
                # rank-0 references are scalars and conform to anything
                if shape not in ((), None, lhs_shape):
                    self.report(
                        "RPR005", node,
                        f"RHS section {ref} has shape {shape}, which "
                        f"does not conform to the LHS shape {lhs_shape}",
                        array=ref.name)
        lhs_state = self.states.get(stmt.lhs.name)
        if lhs_state is not None and lhs_state.domain is not None:
            self._check_replicated_write(node, stmt, lhs_state)
            lhs_state.written = True
        if resolvable:
            self._perf_lint_statement(node, stmt)

    def _check_replicated_write(self, node: StatementNode,
                                stmt: Assignment,
                                state: _ArrayState) -> None:
        if not state.layout_current:
            return
        try:
            dist = self.ds.distribution_of(stmt.lhs.name)
        except Exception:
            return
        if getattr(dist, "is_replicated", False):
            self.report(
                "RPR013", node,
                f"{stmt.lhs.name!r} is replicated: every copy must be "
                "updated on each write, so the assignment broadcasts",
                array=stmt.lhs.name)

    def _perf_lint_statement(self, node: StatementNode,
                             stmt: Assignment) -> None:
        if not self.perf:
            return
        names = {stmt.lhs.name, *(r.name for r in stmt.rhs.refs())}
        if any(not self.states[n].layout_current for n in names
               if n in self.states):
            return      # an in-graph layout event outdated ds's mapping
        try:
            from repro.engine.schedule import schedule_for
            sched = schedule_for(self.ds, stmt, self.ds.ap.size)
        except Exception:
            return      # not compilable against the live scope: no lint
        flagged: set[str] = set()
        for ref in sched.refs:
            if ref.lowering.pattern is Pattern.ALLTOALL \
                    and ref.ref not in flagged:
                flagged.add(ref.ref)
                words = int(ref.words.sum())
                self.report(
                    "RPR020", node,
                    f"{ref.ref} lowers to an ALLTOALL exchange moving "
                    f"{words} words per execution under the declared "
                    "mappings", array=ref.source or ref.ref,
                    words=words)

    # -- remaps --------------------------------------------------------
    def _visit_remap(self, node: RedistributeNode | RealignNode) -> None:
        if isinstance(node, RedistributeNode):
            names = [node.array]
            what = f"REDISTRIBUTE {node.array}"
        else:
            names = [node.spec.alignee]
            what = f"REALIGN {node.spec.alignee}"
            base = self.states.get(node.spec.base)
            if base is None:
                self.report("RPR001", node,
                            f"{what}: unknown base array "
                            f"{node.spec.base!r}", array=node.spec.base)
        for name in names:
            state = self.states.get(name)
            if state is None:
                self.report("RPR001", node,
                            f"{what}: unknown array {name!r}",
                            array=name)
                continue
            if not state.dynamic:
                self.report("RPR006", node,
                            f"{what}: the array was not declared "
                            "DYNAMIC", array=name)
            if state.domain is None:
                code = "RPR003" if state.deallocated else "RPR004"
                self.report(code, node,
                            f"{what}: the array has no instance at "
                            "this point", array=name)
            else:
                self._perf_lint_remap(node, name, state)
            state.layout_current = False

    def _perf_lint_remap(self, node: RedistributeNode | RealignNode,
                         name: str, state: _ArrayState) -> None:
        if not self.perf:
            return
        loop = self._loop_stack[-1] if self._loop_stack else None
        if id(node) in self._hoisted and loop is not None \
                and loop.count >= 2 and self.opt_level < 2:
            self.report(
                "RPR022", node,
                f"loop-invariant remap of {name!r} re-executes on all "
                f"{loop.count} trips; -O2 hoists it to the first trip",
                array=name)
        if not isinstance(node, RedistributeNode) \
                or not state.layout_current:
            return
        try:
            from repro.core.dataspace import RemapEvent
            from repro.distributions.distribution import FormatDistribution
            from repro.engine.redistribute import price_remap
            old = self.ds.distribution_of(name)
            formats = tuple(node.formats)
            consuming = sum(f.consumes_target_dim for f in formats)
            target = self.ds.resolve_target(node.to, max(consuming, 1))
            new = FormatDistribution(old.domain, formats, target,
                                     self.ds.ap)
            event = RemapEvent(name, old, new, "LINT")
            _, moved = price_remap(event, self.ds.ap.size)
        except Exception:
            return
        size = max(old.domain.size, 1)
        if moved >= _DENSE_REMAP * size:
            self.report(
                "RPR021", node,
                f"REDISTRIBUTE {name} is a dense remap: {moved} of "
                f"{size} elements change owners under the declared "
                "mappings", array=name, words=moved)

    # -- loops ---------------------------------------------------------
    def _visit_loop(self, node: LoopNode) -> None:
        if node.count == 0:
            self.report("RPR011", node,
                        "zero-trip loop: the body never executes")
            # hazards in dead code still get reported, but its state
            # changes must not leak into the live program
            saved = {n: replace(s) for n, s in self.states.items()}
            self._loop_stack.append(node)
            self._visit_body(node.body)
            self._loop_stack.pop()
            self.states = saved
            return
        before_alloc = {n: s.domain is not None
                        for n, s in self.states.items()}
        self._loop_stack.append(node)
        self._visit_body(node.body)      # trip-0 semantics, once
        self._loop_stack.pop()
        if node.count >= 2:
            for name, was in before_alloc.items():
                now = self.states[name].domain is not None
                if was == now:
                    continue
                flipped = "ALLOCATEs" if now else "DEALLOCATEs"
                other = "DEALLOCATE" if now else "ALLOCATE"
                self.report(
                    "RPR007", node,
                    f"loop body {flipped} {name!r} without a matching "
                    f"{other}: trip 2 of {node.count} re-runs the body "
                    "against the flipped allocation state",
                    array=name)
        self._perf_lint_loop(node)

    def _perf_lint_loop(self, node: LoopNode) -> None:
        """RPR023: the declared cost profiles prove this loop's layout
        leaves processors idle and a priced GENERAL_BLOCK re-partition
        would pay for itself — the same advisor ``opt="auto"`` acts on."""
        if not self.perf or node.count < 2:
            return
        if not getattr(self.ds, "cost_profiles", None):
            return
        try:
            from repro.autotune.advisor import propose_for_loop
            from repro.machine.config import MachineConfig
            proposals = propose_for_loop(
                self.ds, MachineConfig(self.ds.ap.size), node)
        except Exception:
            return
        for prop in proposals:
            if not prop.worthwhile:
                continue
            state = self.states.get(prop.array)
            if state is None or not state.layout_current:
                continue
            self.report(
                "RPR023", node,
                f"load imbalance: {prop.array!r} runs this loop at "
                f"{prop.imbalance_before:.2f}x the mean processor work "
                f"under its declared cost profile; a balanced "
                f"GENERAL_BLOCK re-partition models {prop.modeled_gain:.0f} "
                f"gain over the remaining trips vs {prop.modeled_cost:.0f} "
                "remap cost (opt='auto' adapts this automatically)",
                array=prop.array, words=prop.moved_words)

    # -- dead remaps (dynamic-instance scan, reported per node) --------
    def _check_dead_remaps(self) -> None:
        instances = list(_walk_clamped(self.graph.nodes))
        live: set[int] = set()
        remaps: dict[int, tuple[Node, str]] = {}
        for i, node in enumerate(instances):
            for name in _remapped_arrays(node):
                remaps.setdefault(id(node), (node, name))
                if id(node) in live:
                    continue
                for later in instances[i + 1:]:
                    if isinstance(later, StatementNode):
                        if name in later.reads() | later.writes():
                            live.add(id(node))
                            break
                    elif name in later.layout_of():
                        break   # a later event closes the epoch unread
                else:
                    # the layout survives the program: the scope keeps
                    # it for owners() queries and later run() segments
                    live.add(id(node))
        for node, name in remaps.values():
            if id(node) in live:
                continue
            state = self.states.get(name)
            if state is None or not state.dynamic:
                continue    # already an error; no warning on top
            self.report(
                "RPR012", node,
                f"dead remap: no statement reads or writes {name!r} "
                "before the next layout event replaces the mapping",
                array=name)


def _remapped_arrays(node: Node) -> tuple[str, ...]:
    if isinstance(node, RedistributeNode):
        return (node.array,)
    if isinstance(node, RealignNode):
        return (node.spec.alignee,)
    return ()


def _static_preorder(nodes: Sequence[Node]) -> Iterator[Node]:
    for node in nodes:
        yield node
        if isinstance(node, LoopNode):
            yield from _static_preorder(node.body)


def _walk_clamped(nodes: Sequence[Node],
                  clamp: int = _LOOP_CLAMP) -> Iterator[Node]:
    """Execution order with loop trips clamped to ``clamp``: enough
    unrolling to expose every wrap-around next-use without paying for
    full trip counts."""
    for node in nodes:
        if isinstance(node, LoopNode):
            for _ in range(min(node.count, clamp)):
                yield from _walk_clamped(node.body, clamp)
        else:
            yield node


def analyze(ds: Any, graph: ProgramGraph, *, opt_level: int = 0,
            lines: Mapping[int, int] | None = None,
            perf: bool = True) -> list[Diagnostic]:
    """Statically analyze ``graph`` against the scope ``ds``.

    Nothing executes and the scope is never mutated.  ``lines`` is the
    directive front end's ``id(node) -> source line`` map; without it,
    findings carry statement indices.  ``perf=False`` skips the lints
    that compile schedules or price remaps — the cheap mode the serving
    stack uses to gate programs on error severity only.
    """
    analysis = _Analysis(ds, graph, opt_level=opt_level, lines=lines,
                         perf=perf)
    return analysis.run()


# ----------------------------------------------------------------------
# The fusion-window race checker
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WindowConflict:
    """One RAW/WAR pair inside a fusion window (``i`` before ``j``)."""

    kind: str                   #: 'RAW' or 'WAR'
    i: int
    j: int
    arrays: frozenset[str] = field(default_factory=frozenset)


def window_conflicts(window: Sequence[Assignment]) -> list[WindowConflict]:
    """Pairwise RAW/WAR conflicts between *distinct* statements of one
    fusion window.

    The legality contract of the fused SPMD path: a window executes
    under a single phase barrier, with every statement's reads gathered
    from pre-window state — so a later statement must not read an
    earlier one's write (RAW), and an earlier statement's reads must
    not be of an array a later statement overwrites (WAR).  WAW pairs
    are legal (writes apply in statement order on every worker and the
    canonical download is per statement, in order), and a statement's
    own LHS-in-RHS overlap stays within the statement: the barrier
    orders its reads before its writes.
    """
    out: list[WindowConflict] = []
    for i, earlier in enumerate(window):
        e_reads = {r.name for r in earlier.rhs.refs()}
        for j in range(i + 1, len(window)):
            later = window[j]
            l_reads = {r.name for r in later.rhs.refs()}
            raw = {earlier.lhs.name} & l_reads
            if raw:
                out.append(WindowConflict("RAW", i, j, frozenset(raw)))
            war = e_reads & {later.lhs.name}
            if war:
                out.append(WindowConflict("WAR", i, j, frozenset(war)))
    return out


def plan_windows(stmts: Sequence[Assignment]) -> list[list[Assignment]]:
    """Independent recomputation of the fused SPMD window formation.

    Grows each window greedily with the *pairwise* legality test of
    :func:`window_conflicts` — a statement joins the open window iff
    appending it introduces no RAW/WAR conflict with any statement
    already in it.  :meth:`~repro.engine.spmd.SpmdExecutor.execute_all`
    derives the same partition from running read/write sets; the
    differential property test (and the ``REPRO_DEBUG_WINDOWS``
    assertion) hold the two implementations to each other.
    """
    windows: list[list[Assignment]] = []
    window: list[Assignment] = []
    for stmt in stmts:
        if window and window_conflicts([*window, stmt]):
            windows.append(window)
            window = []
        window.append(stmt)
    if window:
        windows.append(window)
    return windows


def _conflict_message(window: Sequence[Assignment],
                      conflict: WindowConflict) -> str:
    arrays = ", ".join(sorted(conflict.arrays))
    return (f"fusion window groups racing statements: "
            f"{conflict.kind} conflict on {arrays} between "
            f"'{window[conflict.i]}' and '{window[conflict.j]}' under "
            "one phase barrier")


def assert_window_race_free(window: Sequence[Assignment]) -> None:
    """Raise :class:`DiagnosticError` (RPR009) if ``window`` pairs
    conflicting statements — the debug-mode assertion the SPMD executor
    runs per formed window when ``REPRO_DEBUG_WINDOWS`` is set."""
    conflicts = window_conflicts(window)
    if conflicts:
        raise DiagnosticError([
            Diagnostic("RPR009", _conflict_message(window, c),
                       span=Span(label=str(window[c.j])),
                       array=min(c.arrays))
            for c in conflicts])


def check_fusion_windows(graph: ProgramGraph,
                         span_of: Any = None) -> list[Diagnostic]:
    """The standalone window race check over a whole program: re-derive
    the fusion windows of every maximal consecutive statement run (the
    sequences the fused backend receives) and verify each is conflict
    free.  A sound window builder makes this an empty list — a finding
    here is an internal invariant violation, not a user error."""
    out: list[Diagnostic] = []
    run: list[tuple[Node, Assignment]] = []

    def flush() -> None:
        if not run:
            return
        stmts = [s for _, s in run]
        for w_start, window in _window_offsets(plan_windows(stmts)):
            for c in window_conflicts(window):
                node = run[w_start + c.j][0]
                span = span_of(node) if span_of is not None \
                    else Span(label=str(node))
                out.append(Diagnostic(
                    "RPR009", _conflict_message(window, c),
                    span=span, array=min(c.arrays)))
        run.clear()

    for node in _walk_clamped(graph.nodes):
        if isinstance(node, StatementNode):
            run.append((node, node.stmt))
        else:
            flush()
    flush()
    return out


def _window_offsets(windows: list[list[Assignment]]
                    ) -> Iterator[tuple[int, list[Assignment]]]:
    start = 0
    for window in windows:
        yield start, window
        start += len(window)
