"""The shared lowering spine: every front end builds one IR here.

Both public front doors — the lazy Python :class:`~repro.api.session.Session`
API and the directive-language analyzer
(:mod:`repro.directives.analyzer`) — record the *execution part* of a
user program through one :class:`ProgramBuilder`, producing the same
:class:`~repro.engine.ir.ProgramGraph` the optimizing pass pipeline
(:mod:`repro.engine.passes`) consumes.  The builder owns the pieces both
front ends need and neither should reimplement:

* the **loop stack** — ``begin_loop``/``end_loop`` nest
  :class:`~repro.engine.ir.LoopNode` bodies (``with session.loop(n):``
  and ``DO k = 1, N`` are the same operation);
* **shadow domains** — an ALLOCATE recorded into the graph has not run
  yet, but later recorded statements must still resolve their section
  bounds against the instance it *will* create; the builder tracks the
  would-be domain of every deferred allocation;
* the build/execute split itself — ``take()`` hands a completed graph
  to a runner and resets, so front ends can lower incrementally
  (the analyzer flushes whenever a specification directive interrupts
  the execution part; a session flushes at ``run()``).

Execution goes through :func:`run_graph`: with a machine attached it is
the :class:`~repro.engine.passes.ProgramRunner` (pass pipeline, backend
resolver, :class:`~repro.engine.executor.Accountant` seam); without one
it interprets the graph under the sequential reference semantics.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.align.spec import AlignSpec
from repro.core.dataspace import DataSpace
from repro.engine.assignment import Assignment
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
from repro.engine.reference import execute_sequential
from repro.errors import DirectiveError
from repro.fortran.domain import IndexDomain

__all__ = ["ProgramBuilder", "run_graph"]

#: callback signature front ends use to trace execution: (node, trip)
OnNode = Callable[[Node, int], None]


class ProgramBuilder:
    """Accumulates the execution part of a program as IR.

    The builder never mutates the data space: recording is free, and the
    recorded graph is plain data until a runner executes it.
    """

    def __init__(self, ds: DataSpace) -> None:
        self.ds = ds
        #: stack of open node lists; [0] is the program top level,
        #: deeper entries are unterminated loop bodies
        self._frames: list[list[Node]] = [[]]
        #: loop trip counts matching the open frames above level 0
        self._counts: list[int] = []
        #: name -> would-be IndexDomain after the recorded (de)allocation
        #: (``None`` marks a recorded DEALLOCATE)
        self._shadow: dict[str, IndexDomain | None] = {}

    # -- recording -----------------------------------------------------
    def _append(self, node: Node) -> Node:
        self._frames[-1].append(node)
        return node

    def assign(self, stmt: Assignment) -> StatementNode:
        return self._append(StatementNode(stmt))

    def record(self, *nodes) -> None:
        """Append ready-made statements or IR nodes in order."""
        for node in nodes:
            if isinstance(node, Assignment):
                node = StatementNode(node)
            self._append(node)

    def redistribute(self, array: str, formats: Iterable,
                     to=None) -> RedistributeNode:
        return self._append(RedistributeNode(array, tuple(formats), to))

    def realign(self, spec: AlignSpec) -> RealignNode:
        return self._append(RealignNode(spec))

    def allocate(self, array: str, *bounds) -> AllocateNode:
        node = self._append(AllocateNode(array, tuple(bounds)))
        self._shadow[array] = DataSpace._domain_from_bounds(bounds)
        return node

    def deallocate(self, array: str) -> DeallocateNode:
        node = self._append(DeallocateNode(array))
        self._shadow[array] = None
        return node

    # -- loops ---------------------------------------------------------
    def begin_loop(self, count: int) -> None:
        if count < 0:
            raise DirectiveError(f"loop count must be >= 0, got {count}",
                                 code="RPR101")
        self._frames.append([])
        self._counts.append(int(count))

    def end_loop(self) -> LoopNode:
        if not self._counts:
            raise DirectiveError("END DO / loop exit without an open loop",
                                 code="RPR101")
        body = self._frames.pop()
        node = LoopNode(self._counts.pop(), tuple(body))
        return self._append(node)

    def abort_loop(self) -> None:
        """Discard the innermost open loop and everything recorded in
        it (the recording failed mid-body; sealing a half-recorded loop
        into the program would execute phantom statements)."""
        if not self._counts:
            return
        self._frames.pop()
        self._counts.pop()

    @property
    def in_loop(self) -> bool:
        return bool(self._counts)

    @property
    def loop_depth(self) -> int:
        return len(self._counts)

    # -- domain resolution against the recorded-but-unexecuted state ---
    def domain_of(self, name: str) -> IndexDomain:
        """The index domain ``name`` will have at this point of the
        recorded program: a pending ALLOCATE's bounds win over the data
        space's current instance."""
        if name in self._shadow:
            dom = self._shadow[name]
            if dom is None:
                raise DirectiveError(
                    f"array {name!r} is deallocated at this point of "
                    "the recorded program", code="RPR003")
            return dom
        arr = self.ds.arrays.get(name)
        if arr is None:
            raise DirectiveError(f"unknown array {name!r}", code="RPR001")
        if not arr.is_allocated:
            raise DirectiveError(
                f"array {name!r} has no shape here: allocate it (or "
                "record its ALLOCATE) before referencing it", code="RPR004")
        return arr.domain

    # -- handing off ---------------------------------------------------
    def __len__(self) -> int:
        return sum(len(f) for f in self._frames)

    def peek(self) -> ProgramGraph:
        """The pending program as a graph, without resetting (loops
        still open are not included)."""
        return ProgramGraph(list(self._frames[0]))

    def take(self) -> ProgramGraph:
        """Detach the pending program as a graph and reset the builder.
        Raises if a loop is still open."""
        if self.in_loop:
            raise DirectiveError(
                f"{self.loop_depth} loop(s) still open: close every "
                "session.loop() block / END DO before running",
                code="RPR101")
        graph = ProgramGraph(self._frames[0])
        self._frames = [[]]
        self._shadow = {}
        return graph


def run_graph(ds: DataSpace, graph: ProgramGraph, *, runner=None,
              on_node: OnNode | None = None):
    """Execute ``graph`` against ``ds``.

    With ``runner`` (a :class:`~repro.engine.passes.ProgramRunner`) the
    graph goes through the full pipeline — passes, backend,
    accountant — and the :class:`~repro.engine.passes.ProgramRunResult`
    is returned.  Without one, the graph is interpreted under the
    sequential reference semantics (the ``machine=False`` path) and
    ``None`` is returned.
    """
    if runner is not None:
        return runner.run(graph, on_node=on_node)
    for node, trip, _ in graph.walk():
        if isinstance(node, StatementNode):
            node.stmt.validate(ds)
            execute_sequential(ds, node.stmt)
        elif isinstance(node, RedistributeNode):
            ds.redistribute(node.array, node.formats, to=node.to)
        elif isinstance(node, RealignNode):
            ds.realign(node.spec)
        elif isinstance(node, AllocateNode):
            ds.allocate(node.array, *node.bounds)
        elif isinstance(node, DeallocateNode):
            ds.deallocate(node.array)
        if on_node is not None:
            on_node(node, trip)
    return None
