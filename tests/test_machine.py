"""Unit tests for the machine simulator (S8)."""

import numpy as np
import pytest

from repro.distributions.block import Block
from repro.distributions.distribution import FormatDistribution
from repro.distributions.replicated import ReplicatedDistribution
from repro.errors import MachineError
from repro.fortran.domain import IndexDomain
from repro.machine import collectives
from repro.machine.config import MachineConfig
from repro.machine.memory import LocalMemory
from repro.machine.message import Message
from repro.machine.metrics import CommStats
from repro.processors.abstract import AbstractProcessors
from repro.processors.arrangement import ProcessorArrangement
from repro.processors.section import ProcessorSection
from repro.processors.topology import Line


class TestConfig:
    def test_message_cost_linear(self):
        c = MachineConfig(4, alpha=10, beta=2)
        assert c.message_cost(0, 1, 5) == 20.0
        assert c.message_cost(0, 0, 5) == 0.0
        assert c.message_cost(0, 1, 0) == 0.0

    def test_hop_scaling(self):
        c = MachineConfig(4, alpha=10, beta=0, hop_factor=0.5,
                          topology=Line(4))
        assert c.message_cost(0, 1, 1) == 10.0            # 1 hop: base
        assert c.message_cost(0, 3, 1) == 10.0 * 2.0      # 3 hops: +2*0.5

    def test_topology_size_validated(self):
        with pytest.raises(ValueError):
            MachineConfig(4, topology=Line(8))

    def test_compute_cost(self):
        c = MachineConfig(4, flop=0.5)
        assert c.compute_cost(10) == 5.0


class TestCommStats:
    def test_record_and_totals(self):
        s = CommStats(4)
        s.record_message(Message(0, 1, 10))
        s.record_message(Message(1, 2, 5))
        s.record_message(Message(2, 2, 99))   # self message ignored
        assert s.total_messages == 2 and s.total_words == 15
        assert s.msgs_sent[0] == 1 and s.words_recv[1] == 10

    def test_locality(self):
        s = CommStats(4)
        s.record_refs(local=30, off=10)
        assert s.locality == 0.75
        assert CommStats(4).locality == 1.0

    def test_load_imbalance(self):
        s = CommStats(4)
        s.local_ops += np.array([10, 10, 10, 30])
        assert s.load_imbalance == pytest.approx(30 / 15)

    def test_estimated_time_is_max_processor(self):
        s = CommStats(2)
        s.record_message(Message(0, 1, 100))
        s.local_ops += np.array([0, 1000])
        c = MachineConfig(2, alpha=10, beta=1, flop=1)
        # proc 1: 1000 flop + 1 msg recv (10) + 100 words = 1110
        assert s.estimated_time(c) == pytest.approx(1110.0)


class TestCollectives:
    def test_broadcast_log_rounds(self):
        c = MachineConfig(8, alpha=10, beta=1)
        time, words = collectives.broadcast(c, 100)
        assert time == 3 * 110 and words == 700

    def test_gather_volume_doubles(self):
        c = MachineConfig(4, alpha=0, beta=1)
        time, words = collectives.gather(c, 10)
        assert time == 10 + 20 and words == 30

    def test_alltoall(self):
        c = MachineConfig(4, alpha=1, beta=1)
        time, words = collectives.alltoall(c, 5)
        assert time == 3 * 6 and words == 60

    def test_single_processor_free(self):
        c = MachineConfig(1)
        assert collectives.broadcast(c, 100) == (0.0, 0)


class TestSimulator:
    def test_send_and_ledger(self, machine8):
        machine8.send(0, 3, 12, tag="t")
        assert machine8.ledger == [Message(0, 3, 12, "t")]
        assert machine8.stats.total_words == 12
        assert machine8.elapsed > 0

    def test_self_send_ignored(self, machine8):
        machine8.send(2, 2, 100)
        assert machine8.ledger == []

    def test_out_of_range_send(self, machine8):
        with pytest.raises(MachineError):
            machine8.send(0, 9, 1)

    def test_exchange_matrix(self, machine8):
        m = np.zeros((8, 8), dtype=int)
        m[0, 1] = 5
        m[3, 2] = 7
        m[4, 4] = 9      # diagonal ignored
        machine8.exchange(m)
        assert machine8.stats.total_messages == 2
        assert machine8.stats.total_words == 12

    def test_exchange_shape_check(self, machine8):
        with pytest.raises(MachineError):
            machine8.exchange(np.zeros((4, 4)))

    def test_compute_charges_max(self, machine8):
        machine8.compute(np.array([1, 2, 3, 4, 0, 0, 0, 0]))
        assert machine8.elapsed == pytest.approx(
            machine8.config.flop * 4)

    def test_reset(self, machine8):
        machine8.send(0, 1, 5)
        machine8.reset()
        assert machine8.stats.total_words == 0 and machine8.ledger == []


class TestLocalMemory:
    def make_dist(self):
        ap = AbstractProcessors(4)
        pr = ap.declare(ProcessorArrangement("PR",
                                             IndexDomain.standard(4)))
        return FormatDistribution(IndexDomain.standard(16), [Block()],
                                  ProcessorSection(pr), ap)

    def test_host_and_extents(self):
        dist = self.make_dist()
        mem = LocalMemory(1)
        mem.host("A", dist)
        assert mem.extents["A"] == 4
        assert mem.footprint == 4
        assert mem.owns_position("A", 4)
        assert not mem.owns_position("A", 0)

    def test_replicated_hosting(self):
        rep = ReplicatedDistribution(IndexDomain.standard(6), [0, 2])
        mem0, mem1 = LocalMemory(0), LocalMemory(1)
        mem0.host("R", rep)
        mem1.host("R", rep)
        assert mem0.extents["R"] == 6
        assert mem1.extents["R"] == 0

    def test_machine_hosting(self, machine8):
        ap = AbstractProcessors(8)
        pr = ap.declare(ProcessorArrangement("PR",
                                             IndexDomain.standard(8)))
        dist = FormatDistribution(IndexDomain.standard(32), [Block()],
                                  ProcessorSection(pr), ap)
        machine8.host_array("A", dist)
        np.testing.assert_array_equal(machine8.footprints(),
                                      [4] * 8)
        machine8.drop_array("A")
        assert machine8.footprints().sum() == 0

    def test_unknown_array_query(self):
        mem = LocalMemory(0)
        with pytest.raises(MachineError):
            mem.owns_position("Z", 0)
