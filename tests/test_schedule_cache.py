"""Schedule-cache correctness: hits on repeats, invalidation on remaps,
bulk ownership kernels against their scalar oracles, and batched message
deposits against per-message sends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.align.spec import AlignSpec, AxisDummy, BaseExpr
from repro.align.ast import Dummy
from repro.core.dataspace import DataSpace
from repro.distributions.block import Block, BlockVariant
from repro.distributions.cyclic import Cyclic
from repro.distributions.general_block import GeneralBlock
from repro.distributions.indirect import Indirect
from repro.distributions.replicated import ReplicatedFormat
from repro.engine.assignment import Assignment
from repro.engine.commsets import comm_matrix
from repro.engine.executor import SimulatedExecutor
from repro.engine.expr import ArrayRef
from repro.engine.schedule import schedule_for
from repro.engine.spmd import SpmdExecutor
from repro.fortran.triplet import Triplet
from repro.machine.config import MachineConfig
from repro.machine.simulator import DistributedMachine


def _pair(n: int = 64, np_: int = 8) -> DataSpace:
    ds = DataSpace(np_)
    ds.processors("PR", np_)
    ds.declare("A", n)
    ds.declare("B", n)
    ds.distribute("A", [Block()], to="PR")
    ds.distribute("B", [Cyclic(3)], to="PR")
    return ds


def _stmt(n: int = 64) -> Assignment:
    return Assignment(ArrayRef("A", (Triplet(2, n),)),
                      ArrayRef("B", (Triplet(1, n - 1),)))


class TestCacheHits:
    def test_repeated_identical_statement_is_a_hit(self):
        ds = _pair()
        s1 = schedule_for(ds, _stmt(), 8)
        # a structurally equal but distinct statement object hits too
        s2 = schedule_for(ds, _stmt(), 8)
        assert s1 is s2
        assert ds.schedule_cache.hits == 1
        assert ds.schedule_cache.misses == 1

    def test_distinct_statements_compile_separately(self):
        ds = _pair()
        schedule_for(ds, _stmt(), 8)
        other = Assignment(ArrayRef("A"), ArrayRef("B"))
        schedule_for(ds, other, 8)
        assert ds.schedule_cache.misses == 2

    def test_strategy_and_overlap_are_part_of_the_key(self):
        ds = _pair()
        a = schedule_for(ds, _stmt(), 8, strategy="oracle")
        b = schedule_for(ds, _stmt(), 8, strategy="auto")
        assert a is not b
        np.testing.assert_array_equal(a.refs[0].words, b.refs[0].words)

    def test_executor_reuses_schedule_across_iterations(self):
        ds = _pair()
        machine = DistributedMachine(MachineConfig(8))
        ex = SimulatedExecutor(ds, machine)
        reports = [ex.execute(_stmt()) for _ in range(4)]
        assert ds.schedule_cache.misses == 1
        assert ds.schedule_cache.hits == 3
        for r in reports[1:]:
            np.testing.assert_array_equal(r.words, reports[0].words)

    def test_schedule_matrices_match_direct_oracle(self):
        ds = _pair()
        stmt = _stmt()
        sched = schedule_for(ds, stmt, 8, strategy="oracle")
        m, local, off = comm_matrix(
            ds.distribution_of("A"), stmt.lhs.section(ds),
            ds.distribution_of("B"), stmt.rhs.section(ds), 8)
        rs = sched.refs[0]
        np.testing.assert_array_equal(rs.words, m)
        assert (rs.local, rs.off) == (local, off)

    def test_analytic_equals_oracle_through_the_cache(self):
        ds = _pair()
        a = schedule_for(ds, _stmt(), 8, strategy="analytic")
        b = schedule_for(ds, _stmt(), 8, strategy="oracle")
        np.testing.assert_array_equal(a.refs[0].words, b.refs[0].words)
        assert a.refs[0].strategy == "analytic"
        assert b.refs[0].strategy == "oracle"


class TestIndirectSchedules:
    """INDIRECT / UserDefined layouts through the compiled-schedule
    subsystem: the cache memoizes their schedules like any format
    distribution, the matrices agree with the oracle, and REDISTRIBUTE
    away from (and back onto) an explicit mapping invalidates."""

    def _indirect_pair(self, n: int = 48, p: int = 6) -> DataSpace:
        from repro.distributions.indirect import UserDefined
        ds = DataSpace(p)
        ds.processors("PR", p)
        ds.declare("A", n, dynamic=True)
        ds.declare("B", n)
        ds.distribute("A", [Indirect([(5 * i + 2) % p
                                      for i in range(n)])], to="PR")
        ds.distribute("B", [UserDefined(lambda i: (i * i) % p,
                                        name="sq")], to="PR")
        return ds

    def test_indirect_schedule_cached_and_exact(self):
        ds = self._indirect_pair()
        stmt = _stmt(48)
        s1 = schedule_for(ds, stmt, 6)
        s2 = schedule_for(ds, _stmt(48), 6)
        assert s1 is s2
        assert ds.schedule_cache.hits == 1
        m, local, off = comm_matrix(
            ds.distribution_of("A"), ds.section("A", Triplet(2, 48)),
            ds.distribution_of("B"), ds.section("B", Triplet(1, 47)), 6)
        np.testing.assert_array_equal(s1.refs[0].words, m)
        assert (s1.refs[0].local, s1.refs[0].off) == (local, off)

    def test_redistribute_indirect_invalidates_and_recompiles(self):
        ds = self._indirect_pair()
        stmt = _stmt(48)
        old = schedule_for(ds, stmt, 6)
        epoch = ds.layout_epoch
        ds.redistribute("A", [Indirect([i % 6 for i in range(48)])],
                        to="PR")
        assert ds.layout_epoch > epoch
        assert len(ds.schedule_cache) == 0
        new = schedule_for(ds, stmt, 6)
        assert new is not old
        assert new.epoch == ds.layout_epoch
        m, _, _ = comm_matrix(
            ds.distribution_of("A"), ds.section("A", Triplet(2, 48)),
            ds.distribution_of("B"), ds.section("B", Triplet(1, 47)), 6)
        np.testing.assert_array_equal(new.refs[0].words, m)


class TestInvalidation:
    def test_redistribute_invalidates(self):
        ds = _pair()
        ds.set_dynamic("B")
        before = schedule_for(ds, _stmt(), 8)
        epoch = ds.layout_epoch
        ds.redistribute("B", [Block()], to="PR")
        assert ds.layout_epoch > epoch
        assert len(ds.schedule_cache) == 0
        after = schedule_for(ds, _stmt(), 8)
        assert after is not before
        # BLOCK = BLOCK shifted by one: neighbour traffic only, far less
        # than the BLOCK = CYCLIC(3) all-to-all of the old layout
        assert after.total_words < before.total_words

    def test_realign_invalidates(self):
        ds = _pair()
        ds.set_dynamic("B")
        before = schedule_for(ds, _stmt(), 8)
        spec = AlignSpec("B", (AxisDummy("I"),), "A",
                         (BaseExpr(Dummy("I")),))
        ds.realign(spec)
        assert len(ds.schedule_cache) == 0
        after = schedule_for(ds, _stmt(), 8)
        assert after is not before
        # B now collocated with A: only the shift-by-one boundary traffic
        assert after.total_words < before.total_words

    def test_new_schedule_correct_after_redistribute(self):
        ds = _pair()
        ds.set_dynamic("B")
        schedule_for(ds, _stmt(), 8)
        ds.redistribute("B", [Block()], to="PR")
        stmt = _stmt()
        sched = schedule_for(ds, stmt, 8)
        m, _, _ = comm_matrix(
            ds.distribution_of("A"), stmt.lhs.section(ds),
            ds.distribution_of("B"), stmt.rhs.section(ds), 8)
        np.testing.assert_array_equal(sched.refs[0].words, m)

    def test_deallocate_invalidates_schedules_of_the_deallocated(self):
        ds = _pair()
        ds.declare("T", 64, allocatable=True, dynamic=True)
        stmt_t = Assignment(ArrayRef("T", (Triplet(2, 64),)),
                            ArrayRef("B", (Triplet(1, 63),)))
        schedule_for(ds, stmt_t, 8)
        schedule_for(ds, _stmt(), 8)
        assert len(ds.schedule_cache) == 2
        ds.deallocate("T")
        # the schedule reading T dies with it; A = B is untouched by
        # the deallocation and survives (fine-grained invalidation)
        assert len(ds.schedule_cache) == 1
        assert schedule_for(ds, _stmt(), 8) is not None
        assert ds.schedule_cache.hits == 1

    def test_unrelated_forest_schedule_survives_remap(self):
        """The fine-grained invalidation contract: a remap of one
        alignment forest must not drop compiled schedules whose arrays
        all live in *other* forests."""
        ds = _pair()            # A BLOCK, B CYCLIC(3)
        ds.declare("U", 64, dynamic=True)
        ds.declare("V", 64)
        ds.align(AlignSpec("V", (AxisDummy("I"),), "U",
                           (BaseExpr(Dummy("I")),)))   # forest {U, V}
        stmt_ab = _stmt()                              # forest {A}, {B}
        stmt_uv = Assignment(ArrayRef("U", (Triplet(2, 64),)),
                             ArrayRef("V", (Triplet(1, 63),)))
        before_ab = schedule_for(ds, stmt_ab, 8)
        before_uv = schedule_for(ds, stmt_uv, 8)
        assert len(ds.schedule_cache) == 2

        # remap the {U, V} forest: its schedules drop, A = B survives
        ds.redistribute("U", [Cyclic(2)], to="PR")
        assert len(ds.schedule_cache) == 1
        assert schedule_for(ds, stmt_ab, 8) is before_ab
        assert ds.schedule_cache.hits == 1
        after_uv = schedule_for(ds, stmt_uv, 8)
        assert after_uv is not before_uv
        # and the recompiled schedule matches the direct oracle
        m, _, _ = comm_matrix(
            ds.distribution_of("U"), stmt_uv.lhs.section(ds),
            ds.distribution_of("V"), stmt_uv.rhs.section(ds), 8)
        np.testing.assert_array_equal(after_uv.refs[0].words, m)

    def test_remap_of_primary_invalidates_reconstructed_secondaries(self):
        """REDISTRIBUTE of a primary re-CONSTRUCTs its secondaries, so a
        schedule touching only a *secondary* of the remapped primary must
        also drop."""
        ds = _pair()
        ds.set_dynamic("A")
        ds.declare("C", 64)
        ds.align(AlignSpec("C", (AxisDummy("I"),), "A",
                           (BaseExpr(Dummy("I")),)))   # C secondary of A
        stmt_cb = Assignment(ArrayRef("C", (Triplet(2, 64),)),
                             ArrayRef("B", (Triplet(1, 63),)))
        before = schedule_for(ds, stmt_cb, 8)
        ds.redistribute("A", [Cyclic(2)], to="PR")     # C's map changes too
        assert len(ds.schedule_cache) == 0
        after = schedule_for(ds, stmt_cb, 8)
        assert after is not before
        m, _, _ = comm_matrix(
            ds.distribution_of("C"), stmt_cb.lhs.section(ds),
            ds.distribution_of("B"), stmt_cb.rhs.section(ds), 8)
        np.testing.assert_array_equal(after.refs[0].words, m)

    def test_realign_of_aligned_array_invalidates_forest_sharers(self):
        """Regression for the forest-sharing invalidation edge: REALIGN
        of an array that is itself *aligned* (a secondary) must also
        drop cached schedules of the *other* arrays in its forest — a
        sibling's schedule that references the realigned array was
        compiled against the old forest and must not survive."""
        ds = _pair()            # A BLOCK, B CYCLIC(3)
        ds.declare("C", 64, dynamic=True)
        ds.declare("E", 64)
        ds.align(AlignSpec("C", (AxisDummy("I"),), "A",
                           (BaseExpr(Dummy("I")),)))   # C secondary of A
        ds.align(AlignSpec("E", (AxisDummy("I"),), "A",
                           (BaseExpr(Dummy("I")),)))   # E sibling of C
        stmt_c = Assignment(ArrayRef("C", (Triplet(2, 64),)),
                            ArrayRef("A", (Triplet(1, 63),)))
        # the forest-sharing hazard: E's schedule reads C
        stmt_e = Assignment(ArrayRef("E", (Triplet(2, 64),)),
                            ArrayRef("C", (Triplet(1, 63),)))
        before_c = schedule_for(ds, stmt_c, 8)
        before_e = schedule_for(ds, stmt_e, 8)
        assert before_e.total_words == 7   # pure shift while collocated
        assert len(ds.schedule_cache) == 2

        # REALIGN the *aligned* C onto B's CYCLIC(3) mapping: every
        # schedule compiled in the old forest must be dropped
        ds.realign(AlignSpec("C", (AxisDummy("I"),), "B",
                             (BaseExpr(Dummy("I")),)))
        assert len(ds.schedule_cache) == 0

        after_c = schedule_for(ds, stmt_c, 8)
        after_e = schedule_for(ds, stmt_e, 8)
        assert after_c is not before_c and after_e is not before_e
        # C moved off A's BLOCK mapping: the sibling's schedule now has
        # real redistribution traffic where the stale one had a shift
        assert after_e.total_words > before_e.total_words
        # and the fresh schedules match the direct oracle
        for stmt, sched, lhs, ref in ((stmt_c, after_c, "C", "A"),
                                      (stmt_e, after_e, "E", "C")):
            m, _, _ = comm_matrix(
                ds.distribution_of(lhs), stmt.lhs.section(ds),
                ds.distribution_of(ref), stmt.rhs.section(ds), 8)
            np.testing.assert_array_equal(sched.refs[0].words, m)


class TestSpmdWindowPlans:
    def test_cached_spmd_plan_gathers_fresh_values(self):
        """A cached SPMD window plan holds positions, not values: its
        second run gathers the operand's new contents."""
        n = 48
        ds = _pair(n)
        machine = DistributedMachine(MachineConfig(8))
        stmt = Assignment(ArrayRef("A", (Triplet(2, n),)),
                          ArrayRef("B", (Triplet(1, n - 1),)))
        ds.arrays["B"].data[:] = np.arange(n, dtype=np.float64)
        with SpmdExecutor(ds, machine, mode="thread") as ex:
            ex.execute(stmt)
            first = ds.arrays["A"].data.copy()
            # mutate the operand; the cached plan must gather new values
            ds.arrays["B"].data[:] = np.arange(n, dtype=np.float64) * 10
            ex.execute(stmt)
            assert len(ex._tasks) == 1
        assert ds.schedule_cache.hits >= 1
        np.testing.assert_array_equal(
            ds.arrays["A"].data[1:], np.arange(n - 1, dtype=np.float64) * 10)
        assert not np.array_equal(ds.arrays["A"].data, first)


class TestBulkKernels:
    @pytest.mark.parametrize("fmt", [
        Block(), Block(variant=BlockVariant.VIENNA), Block(size=8),
        Cyclic(), Cyclic(3),
        GeneralBlock.from_sizes([10, 0, 17, 8, 2, 12, 6, 9]),
        Indirect([i % 8 for i in range(64)]),
        ReplicatedFormat(),
    ], ids=str)
    def test_owners_and_local_index_match_scalar(self, fmt):
        dim = Triplet(1, 64)
        dd = fmt.bind(dim, 8)
        vals = dim.values()
        np.testing.assert_array_equal(
            dd.owners_of(vals),
            np.array([dd.owner_coord(int(v)) for v in vals]))
        np.testing.assert_array_equal(
            dd.local_index_of(vals),
            np.array([dd.local_index(int(v)) for v in vals]))

    def test_distribution_owners_of_matches_owner_map(self):
        ds = DataSpace(16)
        ds.processors("GRID", 4, 4)
        ds.declare("M", 12, 12)
        ds.distribute("M", [Block(), Cyclic(2)], to="GRID")
        dist = ds.distribution_of("M")
        indices = np.array([(i, j) for j in range(1, 13)
                            for i in range(1, 13)], dtype=np.int64)
        got = dist.owners_of(indices)
        want = dist.primary_owner_map().reshape(-1, order="F")
        np.testing.assert_array_equal(got, want)

    def test_constructed_owners_of_through_alignment(self):
        ds = _pair()
        ds.declare("C", 32)
        spec = AlignSpec("C", (AxisDummy("I"),), "A",
                         (BaseExpr(Dummy("I") * 2),))
        ds.align(spec)
        dist = ds.distribution_of("C")
        indices = np.arange(1, 33, dtype=np.int64).reshape(-1, 1)
        got = dist.owners_of(indices)
        want = np.array([dist.primary_owner((int(i),))
                         for i in range(1, 33)])
        np.testing.assert_array_equal(got, want)

    def test_owner_map_is_memoized_and_read_only(self):
        ds = _pair()
        dist = ds.distribution_of("A")
        m1 = dist.primary_owner_map()
        m2 = dist.primary_owner_map()
        assert m1 is m2
        with pytest.raises(ValueError):
            m1[0] = 99


class TestCacheBound:
    def test_lru_eviction_keeps_table_bounded(self):
        ds = _pair(256)
        ds.schedule_cache.maxsize = 4
        for i in range(1, 12):
            stmt = Assignment(ArrayRef("A", (Triplet(i, i + 64),)),
                              ArrayRef("B", (Triplet(i, i + 64),)))
            schedule_for(ds, stmt, 8)
        assert len(ds.schedule_cache) == 4
        assert ds.schedule_cache.evictions == 7

    def test_lru_refresh_on_hit(self):
        ds = _pair(256)
        ds.schedule_cache.maxsize = 2
        s1 = Assignment(ArrayRef("A", (Triplet(1, 64),)),
                        ArrayRef("B", (Triplet(1, 64),)))
        s2 = Assignment(ArrayRef("A", (Triplet(2, 65),)),
                        ArrayRef("B", (Triplet(2, 65),)))
        s3 = Assignment(ArrayRef("A", (Triplet(3, 66),)),
                        ArrayRef("B", (Triplet(3, 66),)))
        schedule_for(ds, s1, 8)
        schedule_for(ds, s2, 8)
        schedule_for(ds, s1, 8)          # refresh s1; s2 becomes LRU
        schedule_for(ds, s3, 8)          # evicts s2
        schedule_for(ds, s1, 8)
        assert ds.schedule_cache.hits == 2
        assert ds.schedule_cache.evictions == 1


class TestSparseSectionPath:
    def test_small_section_owner_map_matches_dense(self):
        from repro.engine.owner_computes import section_owner_map
        from repro.fortran.section import ArraySection
        ds = DataSpace(8)
        ds.processors("GRID", 4, 2)
        ds.declare("M", 200, 100)
        ds.distribute("M", [Block(), Cyclic(3)], to="GRID")
        dist = ds.distribution_of("M")
        sec = ArraySection(ds.arrays["M"].domain, (Triplet(5, 60, 7), 42))
        assert dist._owner_map_cache is None
        sparse = section_owner_map(dist, sec).copy()   # sparse kernel path
        dense = dist.primary_owner_map()[(slice(4, 60, 7), 41)]
        np.testing.assert_array_equal(sparse, dense)


class TestBatchedExchange:
    def test_exchange_equals_individual_sends(self):
        p = 6
        rng = np.random.default_rng(7)
        matrix = rng.integers(0, 9, size=(p, p))
        batched = DistributedMachine(MachineConfig(p))
        batched.exchange(matrix, tag="t")
        serial = DistributedMachine(MachineConfig(p))
        for q in range(p):
            for d in range(p):
                if q != d:
                    serial.send(q, d, int(matrix[q, d]), tag="t")
        assert batched.ledger == serial.ledger
        np.testing.assert_array_equal(batched.stats.msgs_sent,
                                      serial.stats.msgs_sent)
        np.testing.assert_array_equal(batched.stats.words_recv,
                                      serial.stats.words_recv)
        assert batched.stats.hop_weighted_words == \
            pytest.approx(serial.stats.hop_weighted_words)
        assert batched.elapsed == pytest.approx(serial.elapsed)

    def test_exchange_ignores_diagonal_and_zeros(self):
        p = 4
        matrix = np.zeros((p, p), dtype=np.int64)
        matrix[1, 1] = 50   # diagonal: ignored
        machine = DistributedMachine(MachineConfig(p))
        machine.exchange(matrix)
        assert machine.ledger == [] and machine.elapsed == 0.0
