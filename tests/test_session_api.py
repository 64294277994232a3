"""The lazy Session/DistributedArray front door: golden lowering tests
(fluent API -> IR), NumPy-flavored subscript conversion, directive
ordering, adaptive-window sizing and the run/rerun lifecycle."""

import numpy as np
import pytest

from repro.api import Session
from repro.core.dataspace import DataSpace
from repro.distributions.block import Block
from repro.distributions.cyclic import Cyclic
from repro.engine.assignment import Assignment
from repro.engine.expr import ArrayRef
from repro.engine.ir import (
    AllocateNode,
    DeallocateNode,
    LoopNode,
    RealignNode,
    RedistributeNode,
    StatementNode,
)
from repro.engine.passes import adaptive_window
from repro.errors import DirectiveError
from repro.fortran.triplet import Triplet
from repro.machine.backend import Backend


# ----------------------------------------------------------------------
# Subscript conversion: NumPy-flavored -> Fortran triplets
# ----------------------------------------------------------------------
class TestSlicing:
    def _array(self, *bounds):
        s = Session(4, machine=False)
        s.processors("PR", 4)
        return s.array("A", *bounds)

    def test_full_slice(self):
        a = self._array(10)
        assert a[:].subscripts == (Triplet(1, 10, 1),)

    def test_open_slices(self):
        a = self._array(10)
        assert a[2:].subscripts == (Triplet(3, 10, 1),)
        assert a[:-2].subscripts == (Triplet(1, 8, 1),)
        assert a[1:-1].subscripts == (Triplet(2, 9, 1),)

    def test_strided_slice(self):
        a = self._array(64)
        assert a[1::2].subscripts == (Triplet(2, 64, 2),)
        # the last element is the last *reached* position
        assert a[0:5:2].subscripts == (Triplet(1, 5, 2),)

    def test_nonunit_lower_bound(self):
        # U(0:N, 1:N): positions are zero-based into each dimension
        a = self._array((0, 8), (1, 8))
        assert a[:-1, :].subscripts == (Triplet(0, 7, 1), Triplet(1, 8, 1))
        assert a[1:, 1:].subscripts == (Triplet(1, 8, 1), Triplet(2, 8, 1))

    def test_integer_and_negative_index(self):
        a = self._array((0, 8))
        assert a[0].subscripts == (0,)
        assert a[-1].subscripts == (8,)

    def test_missing_trailing_dims_are_full(self):
        a = self._array(6, 7)
        assert a[2:].subscripts == (Triplet(3, 6, 1), Triplet(1, 7, 1))

    def test_errors(self):
        a = self._array(10)
        with pytest.raises(DirectiveError):
            a[::-1]
        with pytest.raises(DirectiveError):
            a[4:2]
        with pytest.raises(DirectiveError):
            a[10]
        with pytest.raises(DirectiveError):
            a[1, 2]


# ----------------------------------------------------------------------
# Arithmetic on handles and references, against NumPy
# ----------------------------------------------------------------------
_OPERATORS = {
    "2 - A": lambda a: 2 - a,
    "3 + A": lambda a: 3 + a,
    "3 * A": lambda a: 3 * a,
    "1 / A": lambda a: 1 / a,
    "A - 1": lambda a: a - 1,
    "A * 2": lambda a: a * 2,
    "A / 4": lambda a: a / 4,
}


@pytest.mark.parametrize("operand", ["handle", "reference"])
@pytest.mark.parametrize("op", list(_OPERATORS.values()),
                         ids=list(_OPERATORS))
def test_scalar_arithmetic_matches_numpy(op, operand):
    """A bare :class:`DistributedArray` handle means the whole array; an
    indexed one is an engine ``Expr``.  Either side of a scalar
    operator lowers to the statement NumPy would evaluate."""
    s = Session(4)
    s.constant("N", 16)
    assert s.ds.env["N"] == 16
    pr = s.processors("PR", 4)
    a, b = s.arrays("A", "B", bounds=(16,))
    assert a.shape == b.shape == (16,)
    for handle in (a, b):
        handle.distribute(Block(), to=pr)
    values = np.arange(1.0, 17.0)
    a.data[:] = values
    b[:] = op(a if operand == "handle" else a[:])
    s.run()
    np.testing.assert_allclose(b.data, op(values))


# ----------------------------------------------------------------------
# Golden lowering: the fluent API builds exactly the expected IR
# ----------------------------------------------------------------------
class TestLowering:
    def test_statement_recording_is_lazy(self):
        s = Session(4, machine=False)
        s.processors("PR", 4)
        a = s.array("A", 8).distribute(Block(), to="PR")
        b = s.array("B", 8).distribute(Block(), to="PR")
        a.data[:] = 1.0
        b[:] = a[:] + 1.0
        assert np.all(b.data == 0.0), "recording must not execute"
        graph = s.lower()
        assert len(graph) == 1
        node = graph.nodes[0]
        assert isinstance(node, StatementNode)
        assert node.stmt == Assignment(
            ArrayRef("B", (Triplet(1, 8, 1),)),
            ArrayRef("A", (Triplet(1, 8, 1),)) + 1.0)
        s.run()
        np.testing.assert_array_equal(b.data, np.full(8, 2.0))

    def test_loop_nesting(self):
        s = Session(4, machine=False)
        s.processors("PR", 4)
        a = s.array("A", 8).distribute(Block(), to="PR")
        b = s.array("B", 8).distribute(Block(), to="PR")
        b[:] = a[:]                      # before
        with s.loop(3):
            a[:] = b[:]
            with s.loop(2):
                b[:] = a[:]
        b[:] = a[:]                      # after
        g = s.lower()
        kinds = [type(n).__name__ for n in g.nodes]
        assert kinds == ["StatementNode", "LoopNode", "StatementNode"]
        outer = g.nodes[1]
        assert outer.count == 3
        assert [type(n).__name__ for n in outer.body] == \
            ["StatementNode", "LoopNode"]
        inner = outer.body[1]
        assert isinstance(inner, LoopNode) and inner.count == 2
        # dynamic instances: 1 + 3*(1 + 2) + 1
        assert len(list(g.walk())) == 11

    def test_directive_ordering(self):
        """Eager spec directives surround lazy execution nodes in the
        order written; the graph records only the execution part."""
        s = Session(4, machine=False)
        pr = s.processors("PR", 4)
        a = s.array("A", 12, dynamic=True).distribute(Block(), to=pr)
        c = s.array("C", allocatable=True, rank=1, dynamic=True)
        b = s.array("B", 12).align(a, lambda I: I)   # eager: ALIGN
        c.allocate(12)                               # lazy: ALLOCATE
        b[:] = a[:]                                  # lazy: statement
        a.redistribute(Cyclic(), to=pr)              # lazy: REDISTRIBUTE
        c.realign(a, lambda I: I)                    # lazy: REALIGN
        c.deallocate()                               # lazy: DEALLOCATE
        g = s.lower()
        assert [type(n) for n in g.nodes] == [
            AllocateNode, StatementNode, RedistributeNode, RealignNode,
            DeallocateNode]
        # the eager directives already took effect
        assert s.ds.forest_snapshot() == {"A": frozenset({"B"})}
        s.run()
        assert s.ds.distribution_source("A") == "explicit"
        assert not s.ds.arrays["C"].is_allocated

    def test_pending_allocate_resolves_shapes(self):
        """A recorded (unexecuted) ALLOCATE must already shape later
        recorded statements — the shadow-domain path."""
        s = Session(2, machine=False)
        s.processors("PR", 2)
        a = s.array("A", 6).distribute(Block(), to="PR")
        c = s.array("C", allocatable=True, rank=1)
        c.allocate(6)
        c[1:-1] = a[1:-1]
        with pytest.raises(DirectiveError):
            _ = c.data          # still unallocated for real
        s.run()
        assert s.ds.arrays["C"].is_allocated
        assert c.data.shape == (6,)

    def test_unclosed_loop_refuses_to_run(self):
        s = Session(2, machine=False)
        s.processors("PR", 2)
        s.array("A", 4)
        with pytest.raises(DirectiveError):
            with s.loop(2):
                s.run()              # run() inside the open loop

    def test_failed_loop_body_is_discarded(self):
        """A with-block that raises mid-recording must not seal the
        half-recorded body into the program."""
        s = Session(2, machine=False)
        s.processors("PR", 2)
        a = s.array("A", 8).distribute(Block(), to="PR")
        b = s.array("B", 8).distribute(Block(), to="PR")
        with pytest.raises(DirectiveError):
            with s.loop(5):
                b[:] = a[:] + 1.0
                b[:] = a[99]            # out of range at record time
        assert len(s.lower()) == 0, "phantom half-loop recorded"
        # a corrected re-record runs exactly its own statements
        with s.loop(5):
            b[:] = a[:] + 1.0
        s.run()
        assert len(list(s.builder.peek().walk())) == 0
        np.testing.assert_array_equal(b.data, np.ones(8))


# ----------------------------------------------------------------------
# Adaptive fusion window
# ----------------------------------------------------------------------
class TestAdaptiveWindow:
    def _graph(self, statements):
        from repro.engine.ir import ProgramGraph
        g = ProgramGraph()
        for stmt in statements:
            g.assign(stmt)
        return g

    def test_empty_graph_falls_back(self):
        from repro.engine.ir import ProgramGraph
        from repro.engine.passes import _WINDOW_LIMIT
        assert adaptive_window(ProgramGraph()) == _WINDOW_LIMIT

    def test_dependent_write_bounds_the_run(self):
        # A = B(shift) + B(shift); B = A  -> run of 2+1 deposits, then
        # the write of B (read by the buffer) flushes
        t = Triplet(1, 8)
        s1 = Assignment(ArrayRef("A", (t,)),
                        ArrayRef("B", (t,)) + ArrayRef("B", (t,)))
        s2 = Assignment(ArrayRef("B", (t,)), ArrayRef("A", (t,)))
        g = self._graph([s1, s2] * 10)
        # each round: 2 (s1 refs) + 1 (s2 ref) = 3, clamped up to 4
        assert adaptive_window(g) == 4

    def test_long_independent_run_widens_the_window(self):
        t = Triplet(1, 8)
        stmts = [Assignment(ArrayRef(f"X{k}", (t,)),
                            ArrayRef("B", (t,)) + ArrayRef("C", (t,)))
                 for k in range(12)]
        assert adaptive_window(self._graph(stmts)) == 24

    def test_clamped_above(self):
        t = Triplet(1, 8)
        stmts = [Assignment(ArrayRef(f"X{k}", (t,)),
                            ArrayRef("B", (t,)) + ArrayRef("C", (t,)))
                 for k in range(100)]
        assert adaptive_window(self._graph(stmts)) == 64

    def test_session_default_window_is_adaptive(self):
        s = Session(4, opt=2)
        s.processors("PR", 4)
        a = s.array("A", 16).distribute(Block(), to="PR")
        b = s.array("B", 16).distribute(Cyclic(), to="PR")
        with s.loop(3):
            b[:] = a[:]
        s.run()
        # sized from the lowered graph (3 independent deposits, clamped
        # up to the floor), not left at the fixed legacy bound
        assert s._runner.accountant.window == 4

    def test_window_flush_order_is_preserved(self):
        """Golden: one dependence-free run of 70 deposits sizes the
        window at the upper clamp, so the first 64 flush as one fused
        window that reaches the ledger before the remaining 6."""
        from repro.machine.config import MachineConfig
        s = Session(4, opt=2, machine=MachineConfig(4))
        s.processors("PR", 4)
        a = s.array("A", 32).distribute(Block(), to="PR")
        # 70 distinct shifted sources: no CSE, halo or subsumption skip,
        # and A is never read, so only the size bound flushes
        srcs = [s.array(f"B{k}", 32).distribute(Block(), to="PR")
                for k in range(1, 71)]
        for lo, hi in zip(srcs[::2], srcs[1::2]):
            a[2:32] = lo[0:30] + hi[1:31]
        result = s.run()
        assert s._runner.accountant.window == 64
        assert result.savings["fused_windows"] == 2
        assert result.savings["fused_deposits"] == 70
        tags = [m.tag.split(":")[0] for m in s.machine.ledger]
        assert set(tags) == {"fused[64]", "fused[6]"}
        assert tags.index("fused[6]") > max(
            i for i, t in enumerate(tags) if t == "fused[64]")


# ----------------------------------------------------------------------
# Session lifecycle
# ----------------------------------------------------------------------
class TestSessionLifecycle:
    def test_run_returns_full_reports(self):
        s = Session(4, opt=0)
        s.processors("PR", 4)
        a = s.array("A", 16).distribute(Block(), to="PR")
        b = s.array("B", 16).distribute(Cyclic(), to="PR")
        b[:] = a[:]
        result = s.run()
        assert len(result.reports) == 1
        report = result.reports[0]
        assert report.total_words > 0
        assert report.total_words == s.machine.stats.total_words
        assert s.reports == result.reports

    def test_incremental_runs_accumulate(self):
        s = Session(4)
        s.processors("PR", 4)
        a = s.array("A", 16).distribute(Block(), to="PR")
        b = s.array("B", 16).distribute(Cyclic(), to="PR")
        b[:] = a[:]
        s.run()
        b[:] = a[:]
        s.run()
        assert len(s.reports) == 2
        # the second run reuses the compiled schedule
        assert s.ds.schedule_cache.hits >= 1

    def test_machine_false_is_sequential_only(self):
        s = Session(4, machine=False)
        s.processors("PR", 4)
        a = s.array("A", 8).distribute(Block(), to="PR")
        a.data[:] = 3.0
        b = s.array("B", 8).distribute(Block(), to="PR")
        b[:] = a[:] * 2.0
        assert s.run() is None
        np.testing.assert_array_equal(b.data, np.full(8, 6.0))
        assert s.stats is None

    def test_adopting_an_existing_dataspace(self):
        ds = DataSpace(4)
        ds.processors("PR", 4)
        ds.declare("A", 8)
        ds.distribute("A", [Block()], to="PR")
        s = Session(ds=ds)
        b = s.array("B", 8).distribute(Block(), to="PR")
        b[:] = 5.0
        s.run()
        np.testing.assert_array_equal(ds.arrays["B"].data, np.full(8, 5.0))

    def test_scalar_rhs(self):
        s = Session(2, machine=False)
        s.processors("PR", 2)
        a = s.array("A", 4)
        a[:] = 2
        s.run()
        np.testing.assert_array_equal(a.data, np.full(4, 2.0))

    def test_whole_array_arithmetic(self):
        s = Session(2, machine=False)
        s.processors("PR", 2)
        a = s.array("A", 4)
        b = s.array("B", 4)
        a.data[:] = 1.0
        b[:] = a + a
        s.run()
        np.testing.assert_array_equal(b.data, np.full(4, 2.0))

    def test_context_manager_closes_backend(self):
        with Session(2, backend=Backend.spmd()) as s:
            s.processors("PR", 2)
            a = s.array("A", 8).distribute(Block(), to="PR")
            b = s.array("B", 8).distribute(Cyclic(), to="PR")
            b[:] = a[:]
            result = s.run()
            assert result.reports[0].total_words > 0
