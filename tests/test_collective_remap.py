"""Tests for collective-tree remap charging (replication as broadcast).

Remaps are priced once (:func:`price_remap`) and charged through the
matrix's pattern lowering (:func:`charge_remap`): the words moved are the
transfer matrix's, the elapsed time the cheaper of the collective tree
and point-to-point fan-out.
"""

import numpy as np

from repro.align.ast import Dummy
from repro.align.spec import AlignSpec, AxisDummy, BaseExpr, BaseStar
from repro.core.dataspace import DataSpace
from repro.distributions.block import Block
from repro.distributions.cyclic import Cyclic
from repro.engine.redistribute import charge_remap, price_remap
from repro.machine.config import MachineConfig
from repro.machine.simulator import DistributedMachine


def replicating_event(np_=8, n=32):
    ds = DataSpace(np_)
    ds.processors("PR", np_)
    ds.declare("D", n, np_)
    ds.declare("A", n, dynamic=True)
    ds.distribute("D", [Block(), Block()], to=None)
    ds.distribute("A", [Block()], to="PR")
    event = ds.realign(AlignSpec(
        "A", [AxisDummy("I")], "D",
        [BaseExpr(Dummy("I")), BaseStar()]))
    return ds, event


def charged(event, config):
    """``(elapsed, words, matrix)`` of charging one remap on a fresh
    machine."""
    machine = DistributedMachine(config)
    matrix, moved = charge_remap(machine, event)
    assert machine.stats.total_words == moved
    return machine.elapsed, moved, matrix


class TestCollectivePricing:
    def test_nonreplicating_matches_p2p_volume(self):
        ds = DataSpace(8)
        ds.processors("PR", 8)
        ds.declare("A", 64, dynamic=True)
        ds.distribute("A", [Block()], to="PR")
        event = ds.redistribute("A", [Cyclic()], to="PR")
        time, words, matrix = charged(event, MachineConfig(8))
        expected, moved = price_remap(event, 8)
        assert words == moved
        np.testing.assert_array_equal(matrix, expected)
        assert time > 0

    def test_replication_volume_matches_p2p(self):
        _, event = replicating_event()
        _, words, matrix = charged(event, MachineConfig(8))
        expected, moved = price_remap(event, 8)
        assert words == moved    # same copies, different schedule
        np.testing.assert_array_equal(matrix, expected)

    def test_broadcast_tree_beats_fanout_on_alpha(self):
        """With expensive message startup, the tree collective wins over
        point-to-point fan-out (the reason collectives exist)."""
        _, event = replicating_event()
        config = MachineConfig(8, alpha=10_000.0, beta=0.01)
        time_collective, _, matrix = charged(event, config)
        time_p2p = sum(config.message_cost(int(s), int(d),
                                           int(matrix[s, d]))
                       for s, d in zip(*np.nonzero(matrix)))
        assert time_collective < time_p2p

    def test_fresh_event_free(self):
        ds = DataSpace(4)
        ds.processors("PR", 4)
        ds.declare("A", 8)
        ds.distribute("A", [Block()], to="PR")
        event = ds.remap_events[-1]
        assert charged(event, MachineConfig(4))[:2] == (0.0, 0)
