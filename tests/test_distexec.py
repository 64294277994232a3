"""Payload execution on the SPMD backend's thread leg.

The key property: numerics computed *exclusively by the workers* — each
owning its LHS elements and pulling every off-worker operand through
its compiled window plan — equal the sequential reference semantics,
and the charged word counts equal the counting executor's matrices.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataspace import DataSpace
from repro.distributions.block import Block
from repro.distributions.cyclic import Cyclic
from repro.distributions.general_block import GeneralBlock
from repro.engine.assignment import Assignment
from repro.engine.executor import SimulatedExecutor
from repro.engine.expr import ArrayRef
from repro.engine.reference import execute_sequential
from repro.engine.spmd import SpmdExecutor
from repro.fortran.triplet import Triplet
from repro.machine.config import MachineConfig
from repro.machine.simulator import DistributedMachine
from repro.workloads.stencil import staggered_grid_case


def fresh_machine(p=8):
    return DistributedMachine(MachineConfig(p))


def run_spmd(ds, machine, stmt):
    """Execute ``stmt`` on a thread-mode SPMD pool and close it."""
    with SpmdExecutor(ds, machine, mode="thread") as ex:
        return ex.execute(stmt)


class TestMessageAccurate:
    """Every off-worker operand arrives through a compiled pull, and the
    numerics come from those values alone."""

    def test_identity_copy_routes_nothing(self, blocked_pair):
        ds = blocked_pair
        ds.arrays["A"].fill_sequence()
        rep = run_spmd(ds, fresh_machine(),
                       Assignment(ArrayRef("B"), ArrayRef("A")))
        assert rep.total_words == 0 and rep.off_processor_refs == 0
        np.testing.assert_array_equal(ds.arrays["B"].data,
                                      ds.arrays["A"].data)

    def test_block_to_cyclic_values_routed(self, cyclic_pair):
        ds = cyclic_pair
        ds.arrays["A"].fill_sequence()
        machine = fresh_machine()
        rep = run_spmd(ds, machine, Assignment(ArrayRef("B"),
                                               2 * ArrayRef("A") + 1))
        np.testing.assert_array_equal(ds.arrays["B"].data,
                                      2 * np.arange(60) + 1)
        assert rep.total_words > 0
        assert machine.stats.total_words == rep.total_words

    def test_counts_match_counting_executor(self, cyclic_pair):
        ds = cyclic_pair
        stmt = Assignment(ArrayRef("B", (Triplet(1, 59, 2),)),
                          ArrayRef("A", (Triplet(2, 60, 2),)))
        m1 = fresh_machine()
        SimulatedExecutor(ds, m1, strategy="oracle").execute(stmt)
        m2 = fresh_machine()
        run_spmd(ds, m2, stmt)
        np.testing.assert_array_equal(m1.stats.words_sent,
                                      m2.stats.words_sent)
        np.testing.assert_array_equal(m1.stats.words_recv,
                                      m2.stats.words_recv)

    def test_staggered_grid_numerics(self):
        case = staggered_grid_case(24, 2, 2, "direct-block")
        ds = case.ds
        ds.arrays["U"].data[:] = 1.0
        ds.arrays["V"].data[:] = 2.0
        run_spmd(ds, fresh_machine(4), case.statement)
        np.testing.assert_array_equal(ds.arrays["P"].data,
                                      np.full((24, 24), 6.0))

    def test_scalar_rhs(self, blocked_pair):
        from repro.engine.expr import ScalarLit
        rep = run_spmd(blocked_pair, fresh_machine(),
                       Assignment(ArrayRef("B"), ScalarLit(3.0)))
        assert rep.total_words == 0
        assert (blocked_pair.arrays["B"].data == 3.0).all()

    def test_machine_size_checked(self, blocked_pair):
        from repro.errors import MachineError
        with pytest.raises(MachineError):
            SpmdExecutor(blocked_pair, fresh_machine(4), mode="thread")


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_routed_execution_equals_sequential(data):
    """Property: for random mappings, sections and expressions, the
    worker-computed result equals the sequential reference result."""
    np_ = data.draw(st.integers(2, 5))
    n = 48
    ds = DataSpace(np_)
    ds.processors("PR", np_)
    fmts = [Block(), Cyclic(), Cyclic(3),
            GeneralBlock.from_sizes([n // 2, n // 4, n - n // 2 - n // 4]
                                    + [0] * (np_ - 3)) if np_ >= 3
            else Block()]
    for name in ("A", "B", "C"):
        ds.declare(name, n)
        ds.distribute(name, [data.draw(st.sampled_from(fmts))], to="PR")
        ds.arrays[name].data[:] = np.arange(n) * (ord(name[0]) % 7 + 1)
    length = data.draw(st.integers(1, n // 2))
    secs = []
    for _ in range(3):
        stride = data.draw(st.integers(1, 2))
        lo = data.draw(st.integers(1, n - (length - 1) * stride))
        secs.append(Triplet(lo, lo + (length - 1) * stride, stride))
    stmt = Assignment(
        ArrayRef("C", (secs[0],)),
        ArrayRef("A", (secs[1],)) * 2 - ArrayRef("B", (secs[2],)))
    # sequential reference on a deep copy of the data space state
    expected_ds = DataSpace(np_, ap=ds.ap)
    for name in ("A", "B", "C"):
        expected_ds.declare(name, n)
        expected_ds.arrays[name].data[:] = ds.arrays[name].data
    expected = execute_sequential(expected_ds, stmt)
    machine = DistributedMachine(MachineConfig(np_))
    run_spmd(ds, machine, stmt)
    got = ds.arrays["C"].data[secs[0].lower - 1:secs[0].last:
                              secs[0].stride]
    np.testing.assert_array_equal(got, expected)