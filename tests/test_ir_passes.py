"""Golden and property tests for the program-level IR + pass pipeline.

One golden test per pass — halo-validity skip, communication CSE,
message coalescing, remap hoisting — plus the pipeline-level properties:
``-O2`` never moves more words than ``-O0``, messages strictly drop on
the Jacobi loop, numerics are bit-identical at every opt level and on
every backend, and per-statement report attribution
(``words_by_pattern``) is opt-level invariant.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.align.ast import Dummy
from repro.align.spec import AlignSpec, AxisDummy, BaseExpr
from repro.core.dataspace import DataSpace
from repro.distributions.block import Block
from repro.distributions.cyclic import Cyclic
from repro.engine.assignment import Assignment
from repro.engine.expr import ArrayRef
from repro.engine.ir import (
    AllocateNode,
    DeallocateNode,
    LoopNode,
    ProgramGraph,
    RealignNode,
    RedistributeNode,
    StatementNode,
    replay_blockers,
)
from repro.engine.passes import (
    ProgramRunner,
    StatementPlan,
    passes_for,
    plan_hoists,
)
from repro.fortran.triplet import Triplet
from repro.machine.backend import Backend
from repro.machine.config import MachineConfig
from repro.machine.simulator import DistributedMachine
from repro.workloads.multigrid import multigrid_program
from repro.workloads.stencil import jacobi_program

P = 8
N = 32


def _seed_arrays(ds: DataSpace, seed: int = 0) -> None:
    rng = np.random.default_rng(seed)
    for name in ds.created_arrays():
        data = ds.arrays[name].data
        data[...] = rng.uniform(-4.0, 4.0, size=data.shape)


def _run(builder, opt_level: int, backend=None):
    ds, graph = builder()
    _seed_arrays(ds)
    machine = DistributedMachine(MachineConfig(P))
    with ProgramRunner(ds, machine, backend=backend,
                       opt_level=opt_level) as runner:
        result = runner.run(graph)
    return ds, machine, result


def _jacobi():
    return jacobi_program(N, 4, 2, iters=10)


def _multigrid():
    return multigrid_program(N, 4, 2, cycles=2)


# ----------------------------------------------------------------------
# The IR itself
# ----------------------------------------------------------------------
_STMT = StatementNode(Assignment(ArrayRef("A", (Triplet(2, N),)),
                                 ArrayRef("B", (Triplet(1, N - 1),))))
_REALIGN = RealignNode(AlignSpec("C", [AxisDummy("I")], "B",
                                 [BaseExpr(Dummy("I"))]))
_ALLOCATE = AllocateNode("D", (N,))
_EMPTY: frozenset = frozenset()

#: (node, reads, writes, layout_of) — the protocol the passes read:
#: storage events count as writes (resident ghost copies of the old
#: instance die), a REALIGN's layout set names its base as well as the
#: alignee, and a loop answers with the union over its body
_PROTOCOL = [
    (_STMT, {"B"}, {"A"}, _EMPTY),
    (RedistributeNode("A", (Cyclic(),), "PR"), _EMPTY, _EMPTY, {"A"}),
    (_REALIGN, _EMPTY, _EMPTY, {"C", "B"}),
    (_ALLOCATE, _EMPTY, {"D"}, {"D"}),
    (DeallocateNode("D"), _EMPTY, {"D"}, {"D"}),
    (LoopNode(3, (_STMT, _REALIGN, _ALLOCATE)),
     {"B"}, {"A", "D"}, {"B", "C", "D"}),
]


class TestProgramGraph:
    @pytest.mark.parametrize("node,reads,writes,layout", _PROTOCOL,
                             ids=[type(row[0]).__name__
                                  for row in _PROTOCOL])
    def test_node_protocol_table(self, node, reads, writes, layout):
        assert node.reads() == reads
        assert node.writes() == writes
        assert node.layout_of() == layout

    def test_def_use_chains(self):
        _, graph = _jacobi()
        chains = graph.def_use()
        # 10 trips x 3 statements
        assert len(chains) == 30
        _, reads, writes = chains[0]        # the stencil
        assert reads == {"X"} and writes == {"XNEW"}
        _, reads, writes = chains[2]        # the copy-back
        assert reads == {"XNEW"} and writes == {"X"}

    def test_layout_epochs_split_at_remaps(self):
        ds = DataSpace(P)
        ds.processors("PR", P)
        ds.declare("A", N, dynamic=True)
        ds.declare("B", N)
        ds.distribute("A", [Block()], to="PR")
        ds.distribute("B", [Block()], to="PR")
        stmt = Assignment(ArrayRef("A", (Triplet(2, N),)),
                          ArrayRef("B", (Triplet(1, N - 1),)))
        g = ProgramGraph()
        g.assign(stmt)
        g.redistribute("A", (Cyclic(),), to="PR")
        g.assign(stmt)
        g.assign(stmt)
        assert g.layout_epochs() == [0, 0, 1, 1]
        assert g.arrays() == {"A", "B"}

    def test_walk_unrolls_loops_with_trip_indices(self):
        _, graph = _jacobi()
        trips = [trip for _, trip, _ in graph.walk()]
        assert trips[:6] == [0, 0, 0, 1, 1, 1]
        assert len(trips) == 30

    def test_statements_flattened_in_order(self):
        _, graph = _jacobi()
        stmts = graph.statements()
        assert len(stmts) == 30
        assert str(stmts[0]).startswith("XNEW")

    def test_opt_levels(self):
        assert passes_for(0) == ()
        assert set(passes_for(1)) == {"halo", "cse"}
        assert set(passes_for(2)) == {"halo", "cse", "subsume",
                                      "coalesce", "hoist"}
        with pytest.raises(Exception):
            passes_for(7)


# ----------------------------------------------------------------------
# Golden test: halo-validity skip
# ----------------------------------------------------------------------
class TestHaloValidity:
    def test_residual_reuses_update_halos(self):
        """The residual statement re-reads exactly the halo faces the
        update fetched; at -O1+ the second fetch is skipped."""
        ds0, m0, r0 = _run(_jacobi, 0)
        ds1, m1, r1 = _run(_jacobi, 1)
        # exactly half the traffic is the redundant refetch
        assert m1.stats.total_words == m0.stats.total_words // 2
        assert r1.savings["halo_skips"] == 40     # 4 refs x 10 iterations
        assert m1.stats.opt_words_saved["halo"] == \
            m0.stats.total_words - m1.stats.total_words
        # the skipped deposits are attributed on the residual reports
        residual_report = r1.reports[1]
        assert set(residual_report.comm_actions.values()) == \
            {"halo-skip", "local"}
        assert residual_report.charged_words == 0
        assert residual_report.saved_words > 0

    def test_write_invalidates_resident_halos(self):
        """After the copy-back writes X, the next sweep's fetch must be
        charged again — the skip only covers genuinely unchanged data."""
        _, m1, r1 = _run(_jacobi, 1)
        plans = r1.schedule.statement_plans
        # every sweep's *update* statement is charged, every sweep's
        # residual is skipped: iteration 2's update must not ride
        # iteration 1's (stale) halos
        updates = [p for p in plans if p.statement.startswith("XNEW")]
        residuals = [p for p in plans if p.statement.startswith("R")]
        assert len(updates) == 10 and len(residuals) == 10
        assert all(p.charged_words > 0 for p in updates)
        assert all(p.charged_words == 0 for p in residuals)


# ----------------------------------------------------------------------
# Golden test: communication CSE
# ----------------------------------------------------------------------
class TestCommunicationCSE:
    def _cse_program(self):
        """Two statements with different LHS arrays (equal mappings)
        reading the same CYCLIC array: a dense, non-stencil pattern —
        the second read is a common subexpression, not a halo."""
        ds = DataSpace(P)
        ds.processors("PR", P)
        for name in ("A", "C"):
            ds.declare(name, N)
            ds.distribute(name, [Block()], to="PR")
        ds.declare("B", N)
        ds.distribute("B", [Cyclic()], to="PR")
        ref = ArrayRef("B", (Triplet(1, N - 1),))
        g = ProgramGraph()
        g.assign(Assignment(ArrayRef("A", (Triplet(2, N),)), ref))
        g.assign(Assignment(ArrayRef("C", (Triplet(2, N),)), ref))
        return ds, g

    def test_identical_refs_charged_once_per_epoch(self):
        ds0, m0, r0 = _run(self._cse_program, 0)
        ds1, m1, r1 = _run(self._cse_program, 1)
        assert m1.stats.total_words == m0.stats.total_words // 2
        assert r1.savings["cse_hits"] == 1
        assert r1.savings["halo_skips"] == 0
        assert "cse" in m1.stats.opt_words_saved
        # numerics unchanged
        for name in ds0.arrays:
            np.testing.assert_array_equal(ds1.arrays[name].data,
                                          ds0.arrays[name].data)

    def test_cse_does_not_cross_layout_epochs(self):
        """A remap between the two reads changes the destination/source
        maps: the second read must be recharged."""
        def build():
            ds, g = self._cse_program()
            stmts = g.statements()
            ds.set_dynamic("B")
            g2 = ProgramGraph()
            g2.assign(stmts[0])
            g2.redistribute("B", (Cyclic(2),), to="PR")
            g2.assign(stmts[1])
            return ds, g2
        _, m1, r1 = _run(build, 1)
        assert r1.savings["cse_hits"] == 0


# ----------------------------------------------------------------------
# Golden test: message coalescing
# ----------------------------------------------------------------------
class TestCoalescing:
    def _shift_pair_program(self):
        """One statement whose two shift refs ship between the *same*
        processor pairs: coalescing merges the pair's two messages into
        one with summed words.  The refs read *different* arrays so the
        subsumption pass (whose residency is per source array) cannot
        elide either — this fixture isolates coalescing."""
        ds = DataSpace(P)
        ds.processors("PR", P)
        for name in ("A", "B", "C"):
            ds.declare(name, N * P)
            ds.distribute(name, [Block()], to="PR")
        n = N * P
        stmt = Assignment(
            ArrayRef("A", (Triplet(3, n),)),
            ArrayRef("B", (Triplet(1, n - 2),))
            + ArrayRef("C", (Triplet(2, n - 1),)))
        g = ProgramGraph()
        g.assign(stmt)
        return ds, g

    def test_same_pair_messages_merge_words_exact(self):
        ds0, m0, r0 = _run(self._shift_pair_program, 0)
        ds2, m2, r2 = _run(self._shift_pair_program, 2)
        # words identical — coalescing only merges envelopes
        assert m2.stats.total_words == m0.stats.total_words
        # both refs ship q -> q+1: message count halves
        assert m0.stats.total_messages == 2 * (P - 1)
        assert m2.stats.total_messages == P - 1
        assert r2.savings["fused_windows"] == 1
        assert r2.savings["msgs_saved"] == P - 1
        assert m2.stats.opt_msgs_saved["coalesce"] == P - 1
        for name in ds0.arrays:
            np.testing.assert_array_equal(ds2.arrays[name].data,
                                          ds0.arrays[name].data)

    def test_window_flushes_before_dependent_write(self):
        """A statement writing an array a buffered exchange read forces
        the flush first (Fortran read-before-write order): the fused
        deposit must appear in the ledger before the writing statement's
        own traffic."""
        ds, g = self._shift_pair_program()
        n = N * P
        # second statement overwrites B (read by the buffered exchange)
        g.assign(Assignment(ArrayRef("B", (Triplet(1, n),)),
                            ArrayRef("A", (Triplet(1, n),))))
        _seed_arrays(ds)
        machine = DistributedMachine(MachineConfig(P))
        result = ProgramRunner(ds, machine, opt_level=2).run(g)
        fused = [m for m in machine.ledger if m.tag.startswith("fused")]
        assert fused, "window never flushed"
        # the B = A statement is pointwise (same mapping): no traffic,
        # but the flush must have been triggered by its write
        assert result.reports[1].total_words == 0
        assert machine.stats.total_words == \
            result.reports[0].total_words


# ----------------------------------------------------------------------
# Golden test: remap hoisting
# ----------------------------------------------------------------------
class TestRemapHoisting:
    def _invariant_loop(self):
        ds = DataSpace(P)
        ds.processors("PR", P)
        ds.declare("A", N, dynamic=True)
        ds.declare("B", N)
        ds.distribute("A", [Cyclic()], to="PR")
        ds.distribute("B", [Block()], to="PR")
        stmt = Assignment(ArrayRef("A", (Triplet(2, N),)),
                          ArrayRef("B", (Triplet(1, N - 1),)))
        g = ProgramGraph()
        g.loop(6, [RedistributeNode("A", (Block(),), "PR"),
                   StatementNode(stmt)])
        return ds, g

    def test_invariant_remap_executes_once(self):
        ds0, m0, r0 = _run(self._invariant_loop, 0)
        ds2, m2, r2 = _run(self._invariant_loop, 2)
        # -O0 re-executes the directive every trip (epoch churn), -O2
        # proves it invariant and runs it on the first trip only
        assert len([e for e in ds0.remap_events
                    if e.reason == "REDISTRIBUTE"]) == 6
        assert len([e for e in ds2.remap_events
                    if e.reason == "REDISTRIBUTE"]) == 1
        assert r2.savings["hoisted_remaps"] == 5
        assert r2.schedule.hoisted_remaps == 5
        # the steady state stays hot: one compile, five cache hits
        assert ds2.schedule_cache.misses == 1
        assert ds2.schedule_cache.hits == 5
        assert ds0.schedule_cache.misses == 6
        np.testing.assert_array_equal(ds2.arrays["A"].data,
                                      ds0.arrays["A"].data)

    def test_ping_pong_remap_is_not_hoisted(self):
        """Two remaps of the same array in one body: neither is
        loop-invariant, both must execute every trip."""
        ds = DataSpace(P)
        ds.processors("PR", P)
        ds.declare("A", N, dynamic=True)
        ds.declare("B", N)
        ds.distribute("A", [Block()], to="PR")
        ds.distribute("B", [Block()], to="PR")
        stmt = Assignment(ArrayRef("A", (Triplet(2, N),)),
                          ArrayRef("B", (Triplet(1, N - 1),)))
        g = ProgramGraph()
        g.loop(3, [RedistributeNode("A", (Cyclic(),), "PR"),
                   StatementNode(stmt),
                   RedistributeNode("A", (Block(),), "PR"),
                   StatementNode(stmt)])
        assert plan_hoists(g) == set()
        _seed_arrays(ds)
        machine = DistributedMachine(MachineConfig(P))
        result = ProgramRunner(ds, machine, opt_level=2).run(g)
        assert result.savings["hoisted_remaps"] == 0
        assert len([e for e in ds.remap_events
                    if e.reason == "REDISTRIBUTE"]) == 6

    def test_nested_loop_remap_does_not_hoist_past_its_loop(self):
        """A remap inside an inner loop only hoists relative to that
        loop; the plan never lifts it out of the outer repetition."""
        ds = DataSpace(P)
        ds.processors("PR", P)
        ds.declare("A", N, dynamic=True)
        ds.distribute("A", [Block()], to="PR")
        inner = LoopNode(3, (RedistributeNode("A", (Cyclic(),), "PR"),))
        g = ProgramGraph()
        g.loop(2, [inner])
        machine = DistributedMachine(MachineConfig(P))
        result = ProgramRunner(ds, machine, opt_level=2).run(g)
        # executed on trip 0 of the inner loop, once per outer trip
        assert len([e for e in ds.remap_events
                    if e.reason == "REDISTRIBUTE"]) == 2
        assert result.savings["hoisted_remaps"] == 4


# ----------------------------------------------------------------------
# Pipeline-level properties
# ----------------------------------------------------------------------
class TestPipelineProperties:
    @pytest.mark.parametrize("builder", [_jacobi, _multigrid],
                             ids=["jacobi", "multigrid"])
    def test_O2_words_le_O0_and_messages_strictly_drop(self, builder):
        _, m0, _ = _run(builder, 0)
        _, m2, _ = _run(builder, 2)
        assert m2.stats.total_words <= m0.stats.total_words
        assert m2.stats.total_messages < m0.stats.total_messages

    @pytest.mark.parametrize("builder", [_jacobi, _multigrid],
                             ids=["jacobi", "multigrid"])
    def test_jacobi_acceptance_reductions(self, builder):
        """The headline numbers: >= 40% fewer words, >= 50% fewer
        messages on the 10-iteration Jacobi loop and the two-cycle
        multigrid V-cycle."""
        _, m0, _ = _run(builder, 0)
        _, m2, _ = _run(builder, 2)
        words_cut = 1.0 - m2.stats.total_words / m0.stats.total_words
        msgs_cut = 1.0 - m2.stats.total_messages / m0.stats.total_messages
        assert words_cut >= 0.40
        assert msgs_cut >= 0.50

    @pytest.mark.parametrize("builder", [_jacobi, _multigrid],
                             ids=["jacobi", "multigrid"])
    @pytest.mark.parametrize("opt_level", [1, 2])
    def test_numerics_bit_identical_across_levels(self, builder,
                                                  opt_level):
        ds0, _, _ = _run(builder, 0)
        dsk, _, _ = _run(builder, opt_level)
        for name in ds0.arrays:
            np.testing.assert_array_equal(dsk.arrays[name].data,
                                          ds0.arrays[name].data)

    @pytest.mark.parametrize(
        "backend", [Backend.simulate(), Backend.spmd()],
        ids=["simulate", "spmd"])
    def test_numerics_bit_identical_across_backends_at_O2(self, backend):
        ds0, _, _ = _run(_jacobi, 0)
        dsb, _, _ = _run(_jacobi, 2, backend=backend)
        for name in ds0.arrays:
            np.testing.assert_array_equal(dsb.arrays[name].data,
                                          ds0.arrays[name].data)

    def test_spmd_machine_bit_identical_to_simulate_at_O2(self):
        _, m_sim, r_sim = _run(_jacobi, 2)
        _, m_spmd, r_spmd = _run(_jacobi, 2, backend=Backend.spmd())
        np.testing.assert_array_equal(m_spmd.stats.words_sent,
                                      m_sim.stats.words_sent)
        np.testing.assert_array_equal(m_spmd.stats.msgs_sent,
                                      m_sim.stats.msgs_sent)
        assert m_spmd.elapsed == m_sim.elapsed
        assert m_spmd.stats.pattern_words == m_sim.stats.pattern_words
        assert m_spmd.stats.opt_words_saved == m_sim.stats.opt_words_saved
        assert r_spmd.savings == r_sim.savings

    def test_report_attribution_is_opt_level_invariant(self):
        """Satellite: words_by_pattern() totals must be unchanged at
        every opt level — coalesced/skipped traffic is attributed back
        to its originating statement."""
        _, _, r0 = _run(_jacobi, 0)
        _, _, r2 = _run(_jacobi, 2)
        assert len(r0.reports) == len(r2.reports)
        for rep0, rep2 in zip(r0.reports, r2.reports):
            assert rep0.statement == rep2.statement
            assert rep0.words_by_pattern() == rep2.words_by_pattern()
            np.testing.assert_array_equal(rep2.words, rep0.words)
        assert r2.logical_words == r0.logical_words
        # while the physically charged traffic did drop
        assert r2.charged_words < r0.charged_words

    def test_program_schedule_records_the_rewrite(self):
        _, _, r2 = _run(_jacobi, 2)
        plans = r2.schedule.statement_plans
        assert len(plans) == 30
        assert all(isinstance(p, StatementPlan) for p in plans)
        actions = {a.action for p in plans for a in p.actions}
        assert actions == {"fused", "halo-skip", "local"}
        assert "-O2" in r2.schedule.summary()


# ----------------------------------------------------------------------
# The directive front end / CLI surface
# ----------------------------------------------------------------------
class TestFrontEndOpt:
    SRC = """
      PARAMETER (N = 48)
      REAL A(N,N), B(N,N), R(N,N)
!HPF$ PROCESSORS PR(4,2)
!HPF$ DISTRIBUTE A(BLOCK,BLOCK) TO PR
!HPF$ DISTRIBUTE B(BLOCK,BLOCK) TO PR
!HPF$ DISTRIBUTE R(BLOCK,BLOCK) TO PR
      B(2:N-1,2:N-1) = A(1:N-2,2:N-1) + A(3:N,2:N-1)
      R(2:N-1,2:N-1) = A(1:N-2,2:N-1) + A(3:N,2:N-1)
"""

    def test_run_program_opt_skips_redundant_fetch(self):
        from repro.directives.analyzer import run_program
        base = run_program(self.SRC, n_processors=8, machine=True)
        opt = run_program(self.SRC, n_processors=8, machine=True,
                          opt_level=2)
        assert opt.machine.stats.total_words == \
            base.machine.stats.total_words // 2
        assert opt.machine.stats.total_words_saved > 0
        for rep_b, rep_o in zip(base.reports, opt.reports):
            assert rep_b.words_by_pattern() == rep_o.words_by_pattern()

    def test_cli_run_opt_flag(self, tmp_path, capsys):
        from repro.cli import main
        src = tmp_path / "prog.f"
        src.write_text(self.SRC)
        assert main(["run", str(src), "-p", "8", "--opt", "2"]) == 0
        out = capsys.readouterr().out
        assert "opt=-O2" in out
        assert "optimizer savings" in out


# ----------------------------------------------------------------------
# Subset subsumption
# ----------------------------------------------------------------------
class TestSubsumption:
    """Golden tests for the subset-subsumption pass: an exchange whose
    per-(src, dst) element sets are contained in what earlier exchanges
    of the same source left resident is skipped (fully or cell-wise)."""

    @staticmethod
    def _shift_pair_1d():
        # B shift-by-2 deposits first; B shift-by-1 is element-contained
        # in it on every (src, dst) cell -> full subsume-skip
        ds = DataSpace(P)
        ds.processors("PR", P)
        n = 64
        ds.declare("A", n)
        ds.declare("B", n)
        ds.distribute("A", [Block()], to="PR")
        ds.distribute("B", [Block()], to="PR")
        stmt = Assignment(ArrayRef("A", (Triplet(3, n),)),
                          ArrayRef("B", (Triplet(1, n - 2),))
                          + ArrayRef("B", (Triplet(2, n - 1),)))
        g = ProgramGraph()
        g.assign(stmt)
        return ds, g

    @staticmethod
    def _diagonal_stencil_2d():
        # 5 refs of A on a (BLOCK, BLOCK) grid; the diagonal ref comes
        # last, after the four faces have populated residency, so its
        # face-overlapping cells are subsumed cell-wise
        ds = DataSpace(P)
        ds.processors("PR", 4, 2)
        ds.declare("A", N, N)
        ds.declare("B", N, N)
        ds.distribute("A", [Block(), Block()], to="PR")
        ds.distribute("B", [Block(), Block()], to="PR")
        inner = Triplet(2, N - 1)

        def a(rows, cols):
            return ArrayRef("A", (Triplet(*rows), Triplet(*cols)))

        rhs = (a((1, N - 2), (2, N - 1)) + a((3, N), (2, N - 1))
               + a((2, N - 1), (1, N - 2)) + a((2, N - 1), (3, N))
               + a((1, N - 2), (1, N - 2)))
        stmt = Assignment(ArrayRef("B", (inner, inner)), rhs)
        g = ProgramGraph()
        g.assign(stmt)
        return ds, g

    def test_contained_shift_fully_skipped_exact(self):
        ds0, m0, _ = _run(self._shift_pair_1d, 0)
        ds2, m2, r2 = _run(self._shift_pair_1d, 2)
        # -O0: shift-2 moves 2(P-1), shift-1 moves (P-1)
        assert m0.stats.total_words == 3 * (P - 1)
        assert m2.stats.total_words == 2 * (P - 1)
        assert r2.savings["subsume_skips"] == 1
        assert m2.stats.opt_words_saved["subsume"] == P - 1
        for name in ds0.arrays:
            np.testing.assert_array_equal(ds2.arrays[name].data,
                                          ds0.arrays[name].data)

    def test_diagonal_stencil_word_count_drops(self):
        ds0, m0, _ = _run(self._diagonal_stencil_2d, 0)
        ds2, m2, r2 = _run(self._diagonal_stencil_2d, 2)
        assert m2.stats.total_words < m0.stats.total_words
        assert m2.stats.opt_words_saved["subsume"] > 0
        # no full skip here: only the diagonal's face-overlapping cells
        # are resident; its corner cells still move
        assert r2.savings["subsume_skips"] == 0
        for name in ds0.arrays:
            np.testing.assert_array_equal(ds2.arrays[name].data,
                                          ds0.arrays[name].data)

    def test_subsume_requires_O2(self):
        _, m1, r1 = _run(self._shift_pair_1d, 1)
        assert m1.stats.total_words == 3 * (P - 1)
        assert r1.savings["subsume_skips"] == 0


# ----------------------------------------------------------------------
# Loop replay legality (the SPMD worker-resident path)
# ----------------------------------------------------------------------
class TestReplayLegality:
    """The runner compiles a steady-state loop into a worker-resident
    replay program exactly when the loop is provably trip-invariant;
    anything layout-mutating inside the body forces the per-window
    dispatch fallback."""

    @staticmethod
    def _remap_loop():
        ds = DataSpace(P)
        ds.processors("PR", P)
        ds.declare("A", N, dynamic=True)
        ds.declare("B", N)
        ds.distribute("A", [Block()], to="PR")
        ds.distribute("B", [Block()], to="PR")
        stmt = Assignment(ArrayRef("A", (Triplet(2, N),)),
                          ArrayRef("B", (Triplet(1, N - 1),)))
        g = ProgramGraph()
        g.loop(6, [RedistributeNode("A", (Cyclic(),), "PR"),
                   StatementNode(stmt)])
        return ds, g

    @staticmethod
    def _alloc_loop():
        ds = DataSpace(P)
        ds.processors("PR", P)
        ds.declare("A", N)
        ds.declare("B", N)
        ds.distribute("A", [Block()], to="PR")
        ds.distribute("B", [Block()], to="PR")
        ds.declare("W", rank=1, allocatable=True)
        stmt = Assignment(ArrayRef("A", (Triplet(2, N),)),
                          ArrayRef("B", (Triplet(1, N - 1),)))
        g = ProgramGraph()
        g.loop(4, [StatementNode(stmt), AllocateNode("W", (8,)),
                   DeallocateNode("W")])
        return ds, g

    @staticmethod
    def _nested_dealloc_loop():
        ds = DataSpace(P)
        ds.processors("PR", P)
        ds.declare("A", N)
        ds.declare("B", N)
        ds.distribute("A", [Block()], to="PR")
        ds.distribute("B", [Block()], to="PR")
        ds.declare("W", rank=1, allocatable=True)
        stmt = Assignment(ArrayRef("A", (Triplet(2, N),)),
                          ArrayRef("B", (Triplet(1, N - 1),)))
        g = ProgramGraph()
        g.loop(3, [StatementNode(stmt), AllocateNode("W", (8,)),
                   LoopNode(1, (DeallocateNode("W"),))])
        return ds, g

    def _run_spmd(self, builder, opt_level=0):
        ds, graph = builder()
        _seed_arrays(ds)
        machine = DistributedMachine(MachineConfig(P))
        with ProgramRunner(ds, machine, backend=Backend.spmd(),
                           opt_level=opt_level) as runner:
            result = runner.run(graph)
            counts = (runner.executor.replay_count,
                      runner.executor.dispatch_count)
        return ds, machine, result, counts

    def test_trip_invariant_loop_replays_bit_identically(self):
        ds, machine, result, (replays, dispatches) = \
            self._run_spmd(_jacobi)
        assert replays == 1
        assert dispatches == 0
        ds0, m0, r0 = _run(_jacobi, 0)
        assert len(result.reports) == len(r0.reports) == 30
        for name in ds0.arrays:
            np.testing.assert_array_equal(ds.arrays[name].data,
                                          ds0.arrays[name].data)
        np.testing.assert_array_equal(machine.stats.words_sent,
                                      m0.stats.words_sent)
        np.testing.assert_array_equal(machine.stats.msgs_sent,
                                      m0.stats.msgs_sent)
        assert machine.elapsed == m0.elapsed

    def test_mid_loop_remap_refuses_replay(self):
        ds, _, _, (replays, dispatches) = self._run_spmd(self._remap_loop)
        assert replays == 0
        assert dispatches == 6
        ds0, _, _ = _run(self._remap_loop, 0)
        np.testing.assert_array_equal(ds.arrays["A"].data,
                                      ds0.arrays["A"].data)

    def test_mid_loop_allocation_refuses_replay(self):
        ds, _, _, (replays, dispatches) = self._run_spmd(self._alloc_loop)
        assert replays == 0
        assert dispatches == 4
        ds0, _, _ = _run(self._alloc_loop, 0)
        np.testing.assert_array_equal(ds.arrays["A"].data,
                                      ds0.arrays["A"].data)

    def test_replay_blockers_name_each_cause(self):
        _, g = _jacobi()
        (loop,) = [n for n in g.nodes if isinstance(n, LoopNode)]
        assert replay_blockers(loop) == []
        assert loop.is_trip_invariant()

        _, g_remap = self._remap_loop()
        (loop,) = [n for n in g_remap.nodes if isinstance(n, LoopNode)]
        blockers = replay_blockers(loop)
        assert any("mid-loop remap" in b for b in blockers)
        assert not loop.is_trip_invariant()

        _, g_alloc = self._alloc_loop()
        (loop,) = [n for n in g_alloc.nodes if isinstance(n, LoopNode)]
        blockers = replay_blockers(loop)
        assert any("allocation flips storage" in b for b in blockers)
        assert any("deallocation flips storage" in b for b in blockers)
        assert not loop.is_trip_invariant()

        stmt = Assignment(ArrayRef("A", (Triplet(1, 4),)),
                          ArrayRef("A", (Triplet(1, 4),)))
        zero = LoopNode(0, (StatementNode(stmt),))
        assert any("zero-trip" in b for b in replay_blockers(zero))
        assert not zero.is_trip_invariant()

        # a storage event buried in a nested loop is still named, and
        # the runner refuses to replay the outer loop
        _, g_nested = self._nested_dealloc_loop()
        (loop,) = [n for n in g_nested.nodes if isinstance(n, LoopNode)]
        assert any("deallocation flips storage: DEALLOCATE W" in b
                   for b in replay_blockers(loop))
        assert not loop.is_trip_invariant()
        _, _, _, (replays, dispatches) = self._run_spmd(
            self._nested_dealloc_loop)
        assert replays == 0
        assert dispatches == 3
