"""Cross-cutting engine benchmarks: comm-set computation strategies.

The analytic (regular-section) path must be array-size independent while
the oracle scales with N — the quantitative content of the paper's
"can be implemented efficiently [13]" remark.  The compiled-schedule
benchmarks quantify the schedule cache: construction is paid once per
(layout, statement) and iterations 2..N are dictionary hits, so repeated
statements beat per-statement oracle recomputation by orders of
magnitude while producing bit-identical message-count matrices.
"""

import numpy as np

from repro.core.dataspace import DataSpace
from repro.distributions.block import Block
from repro.distributions.cyclic import Cyclic
from repro.engine.assignment import Assignment
from repro.engine.commsets import (
    analytic_comm_sets,
    comm_matrix,
    words_matrix_from_pieces,
)
from repro.engine.executor import SimulatedExecutor
from repro.engine.expr import ArrayRef
from repro.fortran.section import full_section
from repro.fortran.triplet import Triplet
from repro.machine.config import MachineConfig
from repro.machine.simulator import DistributedMachine


def _pair(n, np_):
    ds = DataSpace(np_)
    ds.processors("PR", np_)
    ds.declare("X", n)
    ds.declare("Y", n)
    ds.distribute("X", [Block()], to="PR")
    ds.distribute("Y", [Cyclic()], to="PR")
    return ds


def test_bench_commsets_oracle_1e6(benchmark):
    ds = _pair(1_000_000, 16)
    dl, dr = ds.distribution_of("X"), ds.distribution_of("Y")
    sec = full_section(ds.arrays["X"].domain)
    m, _, _ = benchmark(comm_matrix, dl, sec, dr, sec, 16)
    assert m.sum() > 0


def test_bench_commsets_analytic_1e6(benchmark):
    """Same traffic, computed in closed form (size-independent)."""
    ds = _pair(1_000_000, 16)
    dl, dr = ds.distribution_of("X"), ds.distribution_of("Y")
    sec = full_section(ds.arrays["X"].domain)

    def run():
        return words_matrix_from_pieces(
            analytic_comm_sets(dl, sec, dr, sec), 16)

    m = benchmark(run)
    m2, _, _ = comm_matrix(dl, sec, dr, sec, 16)
    np.testing.assert_array_equal(m, m2)


def test_bench_simulated_statement(benchmark):
    """Full simulated execution of X(2:N) = Y(1:N-1), N=1e6."""
    n = 1_000_000
    ds = _pair(n, 16)
    machine = DistributedMachine(MachineConfig(16))
    ex = SimulatedExecutor(ds, machine)
    stmt = Assignment(ArrayRef("X", (Triplet(2, n),)),
                      ArrayRef("Y", (Triplet(1, n - 1),)))
    report = benchmark(ex.execute, stmt)
    assert report.total_words > 0


def test_bench_schedule_compile_1e6(benchmark):
    """Cold schedule compilation (cache cleared each round), N=1e6.
    Runs with no plan store: with one, every round after the first
    would adopt the stored plan and the benchmark would time an
    adoption, not a compile."""
    from repro.engine.planstore import swapped_plan_store
    from repro.engine.schedule import schedule_for
    n = 1_000_000
    ds = _pair(n, 16)
    stmt = Assignment(ArrayRef("X", (Triplet(2, n),)),
                      ArrayRef("Y", (Triplet(1, n - 1),)))

    def run():
        ds.schedule_cache.clear()
        return schedule_for(ds, stmt, 16)

    with swapped_plan_store(None):
        sched = benchmark(run)
    assert sched.total_words > 0


def test_bench_schedule_cached_1e6(benchmark):
    """Steady-state schedule lookup (the Jacobi iteration 2..N path)."""
    from repro.engine.schedule import schedule_for
    n = 1_000_000
    ds = _pair(n, 16)
    stmt = Assignment(ArrayRef("X", (Triplet(2, n),)),
                      ArrayRef("Y", (Triplet(1, n - 1),)))
    warm = schedule_for(ds, stmt, 16)
    sched = benchmark(schedule_for, ds, stmt, 16)
    assert sched is warm


def test_schedule_exactness_claims():
    """At the largest seed size, the compiled schedule's message-count
    matrix and the memoized owner maps are bit-identical to the seed
    implementation's (oracle) matrix and a cold owner-map recompute.
    (How much faster the cached paths are is a ``benchmarks/perf``
    layer metric, not an assert here.)"""
    from repro.engine.schedule import schedule_for
    n = 1_000_000
    ds = _pair(n, 16)
    dl, dr = ds.distribution_of("X"), ds.distribution_of("Y")
    stmt = Assignment(ArrayRef("X", (Triplet(2, n),)),
                      ArrayRef("Y", (Triplet(1, n - 1),)))
    oracle_matrix, _, _ = comm_matrix(dl, stmt.lhs.section(ds),
                                      dr, stmt.rhs.section(ds), 16)
    schedule_for(ds, stmt, 16)
    sched = schedule_for(ds, stmt, 16)          # the cache-hit path
    np.testing.assert_array_equal(sched.refs[0].words, oracle_matrix)
    for dist in (dl, dr):
        np.testing.assert_array_equal(dist.primary_owner_map(),
                                      dist._compute_owner_map())
