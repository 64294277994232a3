"""Golden tests for pattern-classified schedule lowering.

The contract under test: classification recognizes the paper's
structured-communication shapes (Jacobi stencils as SHIFT, replication
traffic as BROADCAST/ALLGATHER, dense remaps as ALLTOALL), never changes
what moves (``words.sum()`` and the per-pair matrix are bit-identical to
the point-to-point deposit), and charges recognized patterns strictly
less elapsed time than the point-to-point model for P >= 4.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.align.ast import Dummy
from repro.align.spec import AlignSpec, AxisDummy, BaseExpr, BaseStar
from repro.core.dataspace import DataSpace
from repro.distributions.block import Block
from repro.distributions.cyclic import Cyclic
from repro.distributions.replicated import ReplicatedFormat
from repro.engine.assignment import Assignment
from repro.engine.commsets import comm_matrix
from repro.engine.executor import SimulatedExecutor
from repro.engine.expr import ArrayRef
from repro.engine.lowering import (
    Lowering,
    Pattern,
    classify_matrix,
    p2p_time,
)
from repro.engine.redistribute import charge_remap, price_remap
from repro.engine.schedule import schedule_for
from repro.fortran.triplet import Triplet
from repro.machine.config import MachineConfig
from repro.machine.simulator import DistributedMachine


def _blocked_pair(n: int = 64, p: int = 8) -> DataSpace:
    ds = DataSpace(p)
    ds.processors("PR", p)
    ds.declare("A", n)
    ds.declare("B", n)
    ds.distribute("A", [Block()], to="PR")
    ds.distribute("B", [Block()], to="PR")
    return ds


def _jacobi(n: int = 64) -> Assignment:
    return Assignment(ArrayRef("A", (Triplet(2, n),)),
                      ArrayRef("B", (Triplet(1, n - 1),)))


class TestGoldenClassification:
    def test_jacobi_stencil_is_shift(self):
        ds = _blocked_pair()
        sched = schedule_for(ds, _jacobi(), 8)
        rs = sched.refs[0]
        assert rs.lowering.pattern is Pattern.SHIFT
        assert rs.lowering.offset_words == (1,)
        assert sched.patterns == {"B(1:63)": "shift"}

    def test_two_sided_stencil_is_shift(self):
        ds = _blocked_pair()
        stmt = Assignment(
            ArrayRef("A", (Triplet(2, 63),)),
            ArrayRef("B", (Triplet(1, 62),)) + ArrayRef("B", (Triplet(3, 64),)))
        sched = schedule_for(ds, stmt, 8)
        assert {r.pattern for r in sched.refs} == {"shift"}

    def test_single_root_distinct_fanout_is_scatter(self):
        # the whole referenced section lives on processor 0 and every
        # destination receives a *distinct* piece: a scatter, whose
        # root volume is irreducible (no broadcast-tree discount)
        p = 4
        ds = DataSpace(p)
        ds.processors("PR", p)
        ds.declare("A", 64)
        ds.declare("B", 256)
        ds.distribute("A", [Cyclic()], to="PR")
        ds.distribute("B", [Block()], to="PR")   # B(1:64) all on proc 0
        stmt = Assignment(ArrayRef("A"), ArrayRef("B", (Triplet(1, 64),)))
        sched = schedule_for(ds, stmt, p)
        low = sched.refs[0].lowering
        assert low.pattern is Pattern.SCATTER
        assert low.root == 0 and low.participants == p

    def test_single_root_replicated_fanout_is_broadcast(self):
        # one old owner fanning the *same* data to a replication group:
        # BLOCK over a width-1 arrangement -> REPLICATED over the machine
        p = 4
        ds = DataSpace(p)
        ds.processors("PR", p)
        ds.processors("ONE", 1)
        ds.declare("X", 64, dynamic=True)
        ds.distribute("X", [Block()], to="ONE")  # everything on one unit
        event = ds.redistribute("X", [ReplicatedFormat()], to="PR")
        matrix, _ = price_remap(event, p)
        low = classify_matrix(matrix, replicated=True)
        assert low.pattern is Pattern.BROADCAST
        assert low.participants == p

    def test_star_subscript_replication_remap_is_allgather(self):
        # the §5.1 shape: REALIGN A(I) WITH D(I, *) replicates A across
        # the second target dimension — each old owner's block must end
        # up on every processor of its row
        p, n = 8, 32
        ds = DataSpace(p)
        ds.processors("PR", p)
        ds.declare("D", n, p)
        ds.declare("A", n, dynamic=True)
        ds.distribute("D", [Block(), Block()], to=None)
        ds.distribute("A", [Block()], to="PR")
        event = ds.realign(AlignSpec(
            "A", [AxisDummy("I")], "D",
            [BaseExpr(Dummy("I")), BaseStar()]))
        matrix, _ = price_remap(event, p)
        low = classify_matrix(matrix, replicated=event.new.is_replicated)
        assert low.pattern in (Pattern.ALLGATHER, Pattern.BROADCAST)

    def test_replicate_format_remap_is_allgather(self):
        p = 8
        ds = DataSpace(p)
        ds.processors("PR", p)
        ds.declare("X", 64, dynamic=True)
        ds.distribute("X", [Block()], to="PR")
        event = ds.redistribute("X", [ReplicatedFormat()], to="PR")
        matrix, _ = price_remap(event, p)
        low = classify_matrix(matrix, replicated=True)
        assert low.pattern is Pattern.ALLGATHER

    def test_dense_remap_is_alltoall(self):
        p = 8
        ds = DataSpace(p)
        ds.processors("PR", p)
        ds.declare("X", 64, dynamic=True)
        ds.distribute("X", [Block()], to="PR")
        event = ds.redistribute("X", [Cyclic()], to="PR")
        matrix, _ = price_remap(event, p)
        assert classify_matrix(matrix).pattern is Pattern.ALLTOALL

    def test_empty_matrix_is_pointwise(self):
        assert classify_matrix(np.zeros((4, 4), dtype=np.int64)) \
            .pattern is Pattern.POINTWISE

    def test_unstructured_matrix_is_pointwise(self):
        p = 12
        matrix = np.zeros((p, p), dtype=np.int64)
        # five pairs with five distinct circular offsets, sparse
        for q, d, w in [(0, 1, 9), (1, 3, 4), (2, 6, 7), (3, 8, 1),
                        (4, 10, 2)]:
            matrix[q, d] = w
        assert classify_matrix(matrix).pattern is Pattern.POINTWISE

    def test_fan_in_never_undercharges_receiver_ingest(self):
        # many-to-one uniform traffic under the replicated hint must not
        # price as ONE concurrent broadcast tree: the shared receiver
        # forces one receiver-disjoint round per incoming root, so the
        # charge covers its physical ingest volume
        p = 8
        matrix = np.zeros((p, p), dtype=np.int64)
        matrix[0:7, 7] = 16                     # seven senders, one sink
        low = classify_matrix(matrix, replicated=True)
        assert low.rounds == 7
        config = MachineConfig(p)
        machine = DistributedMachine(config)
        machine.charge_collective(matrix, low)
        assert machine.elapsed >= config.beta * matrix.sum()

    def test_overlapping_groups_price_by_round_decomposition(self):
        # two roots sharing one destination: 2 receiver-disjoint rounds,
        # still far cheaper than serialized p2p but >= any ingest volume
        p = 8
        matrix = np.zeros((p, p), dtype=np.int64)
        matrix[0, [1, 2, 4]] = 4
        matrix[3, [4, 5, 6]] = 4                # proc 4 hears two roots
        low = classify_matrix(matrix, replicated=True)
        assert low.pattern is Pattern.BROADCAST and low.rounds == 2
        config = MachineConfig(p)
        t = low.time(config)
        assert config.beta * 8 <= t < p2p_time(config, matrix)

    def test_classification_is_pure(self):
        matrix = np.arange(16, dtype=np.int64).reshape(4, 4)
        before = matrix.copy()
        classify_matrix(matrix)
        np.testing.assert_array_equal(matrix, before)


class TestWordsInvariance:
    """Lowering changes the time model and attribution — never the
    matrices, the ledger or the per-processor counters."""

    def test_schedule_matrix_equals_direct_oracle(self):
        ds = _blocked_pair()
        stmt = _jacobi()
        sched = schedule_for(ds, stmt, 8, strategy="oracle")
        m, _, _ = comm_matrix(
            ds.distribution_of("A"), stmt.lhs.section(ds),
            ds.distribution_of("B"), stmt.rhs.section(ds), 8)
        np.testing.assert_array_equal(sched.refs[0].words, m)
        assert int(sched.refs[0].words.sum()) == int(m.sum())

    def test_charge_collective_ledger_equals_exchange(self):
        rng = np.random.default_rng(11)
        matrix = rng.integers(0, 7, size=(6, 6))
        lowered = DistributedMachine(MachineConfig(6))
        lowered.charge_collective(matrix, classify_matrix(matrix), tag="t")
        p2p = DistributedMachine(MachineConfig(6))
        p2p.exchange(matrix, tag="t")
        assert lowered.ledger == p2p.ledger
        np.testing.assert_array_equal(lowered.stats.msgs_sent,
                                      p2p.stats.msgs_sent)
        np.testing.assert_array_equal(lowered.stats.words_sent,
                                      p2p.stats.words_sent)
        np.testing.assert_array_equal(lowered.stats.words_recv,
                                      p2p.stats.words_recv)

    def test_executor_matrices_unchanged_by_lowering(self):
        ds = _blocked_pair()
        machine = DistributedMachine(MachineConfig(8))
        report = SimulatedExecutor(ds, machine).execute(_jacobi())
        m, _, _ = comm_matrix(
            ds.distribution_of("A"), _jacobi().lhs.section(ds),
            ds.distribution_of("B"), _jacobi().rhs.section(ds), 8)
        np.testing.assert_array_equal(report.words, m)

    def test_remap_matrix_unchanged_by_lowering(self):
        p = 8
        ds = DataSpace(p)
        ds.processors("PR", p)
        ds.declare("X", 64, dynamic=True)
        ds.distribute("X", [Block()], to="PR")
        event = ds.redistribute("X", [Cyclic()], to="PR")
        want, moved = price_remap(event, p)
        machine = DistributedMachine(MachineConfig(p))
        got, got_moved = charge_remap(machine, event)
        np.testing.assert_array_equal(got, want)
        assert got_moved == moved
        assert machine.stats.total_words == int(want.sum())


class TestCollectiveTiming:
    def test_broadcast_strictly_lower_p2p_at_4(self):
        config = MachineConfig(4)
        matrix = np.zeros((4, 4), dtype=np.int64)
        matrix[0, 1:] = 16
        low = classify_matrix(matrix, replicated=True)
        assert low.pattern is Pattern.BROADCAST
        assert low.time(config) < p2p_time(config, matrix)

    def test_scatter_charge_covers_root_volume(self):
        # the scatter tree never undercuts the root's outgoing volume
        # (the physical lower bound a broadcast-tree price would violate)
        config = MachineConfig(16)
        matrix = np.zeros((16, 16), dtype=np.int64)
        matrix[0, 1:] = 1000
        low = classify_matrix(matrix)          # not replicated
        assert low.pattern is Pattern.SCATTER
        charged = low.time(config)
        assert charged >= config.beta * matrix.sum()
        assert charged < p2p_time(config, matrix)

    def test_allgather_strictly_lower_p2p_at_4(self):
        config = MachineConfig(4)
        matrix = np.full((4, 4), 16, dtype=np.int64)
        np.fill_diagonal(matrix, 0)
        low = classify_matrix(matrix, replicated=True)
        assert low.pattern is Pattern.ALLGATHER
        assert low.time(config) < p2p_time(config, matrix)

    def test_alltoall_strictly_lower_p2p_at_4(self):
        config = MachineConfig(4)
        matrix = np.full((4, 4), 16, dtype=np.int64)
        np.fill_diagonal(matrix, 0)
        low = classify_matrix(matrix)
        assert low.pattern is Pattern.ALLTOALL
        assert low.time(config) < p2p_time(config, matrix)

    def test_shift_strictly_lower_than_serialized_neighbours(self):
        config = MachineConfig(8)
        ds = _blocked_pair()
        machine = DistributedMachine(config)
        report = SimulatedExecutor(ds, machine).execute(_jacobi())
        comm = sum(machine.stats.pattern_time.values())
        assert comm < p2p_time(config, report.words)

    def test_charged_time_never_exceeds_p2p(self):
        # transport selection: min(collective, p2p) on arbitrary traffic
        rng = np.random.default_rng(5)
        for p in (2, 4, 7, 16):
            config = MachineConfig(p)
            for _ in range(20):
                matrix = rng.integers(0, 50, size=(p, p))
                matrix[rng.random((p, p)) < 0.5] = 0
                machine = DistributedMachine(config)
                machine.charge_collective(matrix, classify_matrix(matrix))
                assert machine.elapsed <= \
                    p2p_time(config, matrix) + 1e-9

    def test_pointwise_fallback_matches_exchange_time(self):
        matrix = np.zeros((12, 12), dtype=np.int64)
        for q, d, w in [(0, 1, 9), (1, 3, 4), (2, 6, 7), (3, 8, 1),
                        (4, 10, 2)]:
            matrix[q, d] = w
        lowered = DistributedMachine(MachineConfig(12))
        lowered.charge_collective(matrix, classify_matrix(matrix))
        p2p = DistributedMachine(MachineConfig(12))
        p2p.exchange(matrix)
        assert lowered.elapsed == pytest.approx(p2p.elapsed)

    def test_hop_sensitive_machines_keep_p2p_model(self):
        from repro.processors.topology import Line
        config = MachineConfig(4, hop_factor=0.5, topology=Line(4))
        matrix = np.full((4, 4), 16, dtype=np.int64)
        np.fill_diagonal(matrix, 0)
        low = classify_matrix(matrix)
        assert low.time(config) is None
        lowered = DistributedMachine(config)
        lowered.charge_collective(matrix, low)
        p2p = DistributedMachine(config)
        p2p.exchange(matrix)
        assert lowered.elapsed == pytest.approx(p2p.elapsed)


class TestPatternAttribution:
    def test_report_and_stats_attribute_shift(self):
        ds = _blocked_pair()
        machine = DistributedMachine(MachineConfig(8))
        report = SimulatedExecutor(ds, machine).execute(_jacobi())
        assert report.patterns == {"B(1:63)": "shift"}
        assert report.words_by_pattern() == {"shift": report.total_words}
        assert machine.stats.pattern_words == {"shift": report.total_words}
        assert machine.stats.pattern_msgs["shift"] == 7

    def test_remap_attributes_allgather(self):
        p = 8
        ds = DataSpace(p)
        ds.processors("PR", p)
        ds.declare("X", 64, dynamic=True)
        ds.distribute("X", [Block()], to="PR")
        event = ds.redistribute("X", [ReplicatedFormat()], to="PR")
        machine = DistributedMachine(MachineConfig(p))
        matrix, _ = charge_remap(machine, event)
        off = matrix.copy()
        np.fill_diagonal(off, 0)
        assert machine.stats.pattern_words == {"allgather": int(off.sum())}
        assert machine.elapsed < p2p_time(machine.config, matrix)

    def test_local_only_statement_records_no_pattern_buckets(self):
        # a ref that moves nothing leaves no (zero-valued) entry in the
        # machine's pattern stats
        ds = _blocked_pair()
        stmt = Assignment(ArrayRef("A"), ArrayRef("B"))   # collocated
        m_sim = DistributedMachine(MachineConfig(8))
        report = SimulatedExecutor(ds, m_sim).execute(stmt)
        assert m_sim.stats.pattern_words == {}
        assert m_sim.stats.pattern_time == {}
        assert report.words_by_pattern() == {}

    def test_stats_merge_accumulates_patterns(self):
        a = DistributedMachine(MachineConfig(4))
        b = DistributedMachine(MachineConfig(4))
        matrix = np.full((4, 4), 3, dtype=np.int64)
        np.fill_diagonal(matrix, 0)
        low = classify_matrix(matrix)
        a.charge_collective(matrix, low)
        b.charge_collective(matrix, low)
        merged = a.stats.copy().merge(b.stats)
        assert merged.pattern_words["alltoall"] == \
            2 * a.stats.pattern_words["alltoall"]


class TestLoweringObjects:
    def test_lowering_is_frozen_and_defaulted(self):
        low = Lowering(Pattern.POINTWISE)
        with pytest.raises(AttributeError):
            low.pattern = Pattern.SHIFT
        assert low.time(MachineConfig(4)) is None

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            classify_matrix(np.zeros((3, 4), dtype=np.int64))
