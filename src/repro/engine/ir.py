"""Program-level IR: the statement graph the optimizer reasons over.

Per-statement compilation (:mod:`repro.engine.schedule`) answers "what
does *this* assignment move under the current layout"; the passes of
:mod:`repro.engine.passes` need the larger question — what does a whole
program *region* move, which exchanges are redundant across statements,
and which dynamic remaps are loop-invariant.  This module is the typed
representation they ask it of:

* :class:`StatementNode` — one array assignment, with its def-use sets
  (``writes`` = the LHS array, ``reads`` = the RHS leaves);
* :class:`RedistributeNode` / :class:`RealignNode` — dynamic remapping
  directives; ``layout_of`` names the arrays whose mapping they change;
* :class:`AllocateNode` / :class:`DeallocateNode` — storage events;
* :class:`LoopNode` — a repeated region (the Jacobi/multigrid iteration
  structure the directive language itself cannot express);
* :class:`ProgramGraph` — the ordered node sequence, a builder API, a
  flattening walk, def-use queries and the static *layout epoch*
  numbering: epoch boundaries fall after every node that mutates a
  mapping, and communication CSE is only sound between statements of one
  epoch.

The IR is purely structural — building a graph executes nothing; the
:class:`~repro.engine.passes.ProgramRunner` interprets it against a
:class:`~repro.core.dataspace.DataSpace` and machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence, Union

from repro.align.spec import AlignSpec
from repro.engine.assignment import Assignment
from repro.errors import DirectiveError

__all__ = [
    "AllocateNode", "DeallocateNode", "LoopNode", "Node", "ProgramGraph",
    "RealignNode", "RedistributeNode", "StatementNode", "replay_blockers",
]


# ----------------------------------------------------------------------
# Nodes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StatementNode:
    """One array assignment."""

    stmt: Assignment

    def reads(self) -> frozenset[str]:
        return frozenset(r.name for r in self.stmt.rhs.refs())

    def writes(self) -> frozenset[str]:
        return frozenset({self.stmt.lhs.name})

    def layout_of(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:
        return str(self.stmt)


@dataclass(frozen=True)
class RedistributeNode:
    """Execution-part REDISTRIBUTE of a DYNAMIC array."""

    array: str
    formats: tuple
    to: object = None

    def reads(self) -> frozenset[str]:
        return frozenset()

    def writes(self) -> frozenset[str]:
        return frozenset()

    def layout_of(self) -> frozenset[str]:
        return frozenset({self.array})

    def __str__(self) -> str:
        return f"REDISTRIBUTE {self.array}"


@dataclass(frozen=True)
class RealignNode:
    """Execution-part REALIGN of a DYNAMIC array."""

    spec: AlignSpec

    def reads(self) -> frozenset[str]:
        return frozenset()

    def writes(self) -> frozenset[str]:
        return frozenset()

    def layout_of(self) -> frozenset[str]:
        # the alignee's mapping changes; the base's does not, but the
        # invariance proof must still see the dependence on it
        return frozenset({self.spec.alignee, self.spec.base})

    def __str__(self) -> str:
        return f"REALIGN {self.spec.alignee} WITH {self.spec.base}"


@dataclass(frozen=True)
class AllocateNode:
    """ALLOCATE an instance of an allocatable array."""

    array: str
    bounds: tuple

    def reads(self) -> frozenset[str]:
        return frozenset()

    def writes(self) -> frozenset[str]:
        # fresh storage: any resident ghost copies of the old instance
        # are meaningless, so an allocation counts as a write
        return frozenset({self.array})

    def layout_of(self) -> frozenset[str]:
        return frozenset({self.array})

    def __str__(self) -> str:
        return f"ALLOCATE {self.array}"


@dataclass(frozen=True)
class DeallocateNode:
    """DEALLOCATE an allocatable array."""

    array: str

    def reads(self) -> frozenset[str]:
        return frozenset()

    def writes(self) -> frozenset[str]:
        return frozenset({self.array})

    def layout_of(self) -> frozenset[str]:
        return frozenset({self.array})

    def __str__(self) -> str:
        return f"DEALLOCATE {self.array}"


@dataclass(frozen=True)
class LoopNode:
    """A counted repetition of a body region."""

    count: int
    body: tuple["Node", ...]

    def reads(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for n in self.body:
            out |= n.reads()
        return out

    def writes(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for n in self.body:
            out |= n.writes()
        return out

    def layout_of(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for n in self.body:
            out |= n.layout_of()
        return out

    def is_trip_invariant(self) -> bool:
        """The trip-invariance certificate: every trip of this loop sees
        the same layouts, storage instances and compiled schedules —
        :func:`replay_blockers` finds nothing.  It is what licenses the
        SPMD backend to replay the body worker-resident."""
        return not replay_blockers(self)

    def flat_body(self) -> tuple["StatementNode", ...] | None:
        """The statement instances of ONE trip, in execution order, with
        nested pure loops unrolled — or ``None`` when the body holds any
        non-statement node (which :func:`replay_blockers` names)."""
        out: list[StatementNode] = []
        for n in self.body:
            if isinstance(n, StatementNode):
                out.append(n)
            elif isinstance(n, LoopNode):
                inner = n.flat_body()
                if inner is None:
                    return None
                out.extend(inner * n.count)
            else:
                return None
        return tuple(out)

    def __str__(self) -> str:
        return f"LOOP x{self.count} [{len(self.body)} nodes]"


def replay_blockers(loop: LoopNode) -> list[str]:
    """Why ``loop`` may NOT be compiled into a worker-resident replay
    program, naming each blocking node — the one statement of replay
    legality the runner, the autotuner and the tests all consult.

    An empty list means no node anywhere in the body (nested loops
    included) mutates a mapping or flips an allocation — exactly the
    condition under which the layout-epoch numbering stays constant
    across the whole loop, so every schedule compiled on trip 0 is valid
    verbatim for trips 1..N-1 and workers may run the whole loop ahead
    of the coordinator's per-trip accounting.  This is the same legality
    :func:`~repro.engine.passes.plan_hoists` reasons from (an empty
    ``layout_of`` means there is nothing to hoist *and* nothing that
    could invalidate a schedule).  A non-empty list is the reason the
    runner falls back to per-window dispatch.
    """
    blockers: list[str] = []
    if loop.count <= 0:
        blockers.append("zero-trip loop (nothing to replay)")

    def visit(nodes: Sequence["Node"]) -> None:
        for node in nodes:
            if isinstance(node, LoopNode):
                visit(node.body)
            elif isinstance(node, (RedistributeNode, RealignNode)):
                blockers.append(
                    f"mid-loop remap breaks trip invariance: {node}")
            elif isinstance(node, AllocateNode):
                blockers.append(
                    f"mid-loop allocation flips storage: {node}")
            elif isinstance(node, DeallocateNode):
                blockers.append(
                    f"mid-loop deallocation flips storage: {node}")

    visit(loop.body)
    return blockers


Node = Union[StatementNode, RedistributeNode, RealignNode, AllocateNode,
             DeallocateNode, LoopNode]

NodeLike = Union[Node, Assignment]


def _coerce(node: NodeLike) -> Node:
    if isinstance(node, Assignment):
        return StatementNode(node)
    if isinstance(node, (StatementNode, RedistributeNode, RealignNode,
                         AllocateNode, DeallocateNode, LoopNode)):
        return node
    raise DirectiveError(f"cannot put {node!r} in a program graph")


# ----------------------------------------------------------------------
# The graph
# ----------------------------------------------------------------------
@dataclass
class ProgramGraph:
    """An ordered program region over distributed arrays.

    Built either from node objects or through the fluent helpers::

        g = ProgramGraph()
        g.assign(stencil)
        g.loop(10, [stencil, copy_back])
        g.redistribute("X", [Cyclic()], to="PR")

    The graph is data; :class:`~repro.engine.passes.ProgramRunner`
    executes it.
    """

    nodes: list[Node] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.nodes = [_coerce(n) for n in self.nodes]

    # -- builders ------------------------------------------------------
    def assign(self, stmt: Assignment) -> StatementNode:
        node = StatementNode(stmt)
        self.nodes.append(node)
        return node

    def loop(self, count: int, body: Sequence[NodeLike]) -> LoopNode:
        if count < 0:
            raise DirectiveError(f"loop count must be >= 0, got {count}",
                                 code="RPR101")
        node = LoopNode(int(count), tuple(_coerce(n) for n in body))
        self.nodes.append(node)
        return node

    def redistribute(self, array: str, formats, to=None) -> RedistributeNode:
        node = RedistributeNode(array, tuple(formats), to)
        self.nodes.append(node)
        return node

    def allocate(self, array: str, *bounds) -> AllocateNode:
        node = AllocateNode(array, tuple(bounds))
        self.nodes.append(node)
        return node

    def deallocate(self, array: str) -> DeallocateNode:
        node = DeallocateNode(array)
        self.nodes.append(node)
        return node

    # -- def-use / traversal -------------------------------------------
    def walk(self) -> Iterator[tuple[Node, int, LoopNode | None]]:
        """Flattened execution order: yields ``(node, trip, loop)`` for
        every dynamic instance of every non-loop node — ``trip`` is the
        iteration index of the *innermost* enclosing loop (0 outside
        loops), which is what remap hoisting keys on."""
        def visit(nodes, trip, loop):
            for node in nodes:
                if isinstance(node, LoopNode):
                    for k in range(node.count):
                        yield from visit(node.body, k, node)
                else:
                    yield node, trip, loop
        yield from visit(self.nodes, 0, None)

    def statements(self) -> list[Assignment]:
        """Every statement instance, in execution order."""
        return [node.stmt for node, _, _ in self.walk()
                if isinstance(node, StatementNode)]

    def reads(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for n in self.nodes:
            out |= n.reads()
        return out

    def writes(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for n in self.nodes:
            out |= n.writes()
        return out

    def arrays(self) -> frozenset[str]:
        out = self.reads() | self.writes()
        for n in self.nodes:
            out |= n.layout_of()
        return out

    def layout_epochs(self) -> list[int]:
        """Static epoch number of every dynamic node instance, aligned
        with :meth:`walk`: the counter advances after each node that
        mutates a mapping.  Statements sharing an epoch see identical
        layouts, which is the soundness condition for communication CSE
        across them."""
        epochs: list[int] = []
        current = 0
        for node, _, _ in self.walk():
            epochs.append(current)
            if node.layout_of():
                current += 1
        return epochs

    def def_use(self) -> list[tuple[str, frozenset[str], frozenset[str]]]:
        """``(label, reads, writes)`` per dynamic node instance — the
        chain the passes (and the tests) inspect."""
        return [(str(node), node.reads(), node.writes())
                for node, _, _ in self.walk()]

    def __len__(self) -> int:
        return len(self.nodes)

    def describe(self) -> str:
        lines = [f"ProgramGraph[{len(self.nodes)} nodes]"]
        for node in self.nodes:
            lines.append(f"  {node}")
            if isinstance(node, LoopNode):
                for inner in node.body:
                    lines.append(f"    {inner}")
        return "\n".join(lines)
