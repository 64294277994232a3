"""Tests for the shared-memory SPMD execution backend.

The contract under test: the SPMD backend produces numerics
bit-identical to the sequential reference while leaving the machine in
exactly the state the simulated executor would — same words matrices,
same counters, same modeled time — because both charge the same
compiled counting schedules.  Both worker substrates (forked processes
over shared mmap buffers, threads over the canonical arrays) and both
ends of the worker-count range are covered, as are INDIRECT /
UserDefined distributions flowing through the schedule cache and epoch
invalidation on REDISTRIBUTE mid-session.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataspace import DataSpace
from repro.distributions.block import Block
from repro.distributions.cyclic import Cyclic
from repro.distributions.indirect import Indirect, UserDefined
from repro.engine.assignment import Assignment
from repro.engine.executor import SimulatedExecutor
from repro.engine.expr import ArrayRef
from repro.engine.reference import execute_sequential
from repro.engine.spmd import SpmdExecutor
from repro.errors import MachineError
from repro.fortran.triplet import Triplet
from repro.machine.backend import Backend, BackendConfig, \
    make_executor, resolve_backend
from repro.machine.config import MachineConfig
from repro.machine.simulator import DistributedMachine
from repro.workloads.stencil import jacobi_case, staggered_grid_case

MODES = ("thread", "process")


def _jacobi(n=24, rows=2, cols=2, seed=7):
    case = jacobi_case(n, rows, cols)
    rng = np.random.default_rng(seed)
    case.ds.arrays["X"].data[:] = rng.uniform(-4.0, 4.0, size=(n, n))
    return case


def _copy_back(n):
    inner = Triplet(2, n - 1)
    return Assignment(ArrayRef("X", (inner, inner)),
                      ArrayRef("XNEW", (inner, inner)))


@pytest.mark.parametrize("mode", MODES)
def test_jacobi_iterations_match_reference_and_simulator(mode):
    n, iters = 24, 4
    case = _jacobi(n)
    case_sim = _jacobi(n)
    copy_back = _copy_back(n)
    machine = DistributedMachine(MachineConfig(4))
    machine_sim = DistributedMachine(MachineConfig(4))
    sim = SimulatedExecutor(case_sim.ds, machine_sim)
    with SpmdExecutor(case.ds, machine, mode=mode) as ex:
        assert ex.pool_mode == mode
        for _ in range(iters):
            spmd_rep = ex.execute(case.statement)
            sim_rep = sim.execute(case_sim.statement)
            np.testing.assert_array_equal(spmd_rep.words, sim_rep.words)
            assert spmd_rep.patterns == sim_rep.patterns
            ex.execute(copy_back)
            sim.execute(copy_back)
    for name in ("X", "XNEW"):
        np.testing.assert_array_equal(case.ds.arrays[name].data,
                                      case_sim.ds.arrays[name].data)
    np.testing.assert_array_equal(machine.stats.words_sent,
                                  machine_sim.stats.words_sent)
    np.testing.assert_array_equal(machine.stats.local_ops,
                                  machine_sim.stats.local_ops)
    assert machine.elapsed == machine_sim.elapsed
    assert machine.stats.pattern_words == machine_sim.stats.pattern_words
    # iterations 2..N were pure schedule-cache hits: one schedule per
    # distinct statement, charged by the coordinator and read by the
    # window compiler alike
    cache = case.ds.schedule_cache
    assert cache.misses == 2        # 2 distinct statements
    assert cache.hits == 2 * iters - 2


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n_workers", (1, 2, 3))
def test_fewer_workers_than_processors(mode, n_workers):
    n = 20
    case = _jacobi(n)
    ref = _jacobi(n)
    execute_sequential(ref.ds, ref.statement)
    machine = DistributedMachine(MachineConfig(4))
    with SpmdExecutor(case.ds, machine, mode=mode,
                      n_workers=n_workers) as ex:
        ex.execute(case.statement)
    np.testing.assert_array_equal(case.ds.arrays["XNEW"].data,
                                  ref.ds.arrays["XNEW"].data)


def test_worker_count_validated():
    case = _jacobi(20)
    machine = DistributedMachine(MachineConfig(4))
    with pytest.raises(MachineError):
        SpmdExecutor(case.ds, machine, n_workers=0)
    with pytest.raises(MachineError):
        SpmdExecutor(case.ds, machine, n_workers=5)
    with pytest.raises(MachineError):
        SpmdExecutor(case.ds, machine, mode="carrier-pigeon").execute(
            case.statement)


def test_machine_width_validated():
    case = _jacobi(20)
    with pytest.raises(MachineError):
        SpmdExecutor(case.ds, DistributedMachine(MachineConfig(2)))


@pytest.mark.parametrize("mode", MODES)
def test_inplace_shift_respects_fortran_semantics(mode):
    """A(2:N) = A(1:N-1) reads across worker boundaries while every
    worker overwrites its own part of A: the gather/write barrier must
    keep the RHS values pre-assignment."""
    n, p = 32, 4
    ds = DataSpace(p)
    ds.processors("PR", p)
    ds.declare("A", n)
    ds.distribute("A", [Block()], to="PR")
    ds.arrays["A"].data[:] = np.arange(n, dtype=np.float64)
    ds_ref = DataSpace(p)
    ds_ref.processors("PR", p)
    ds_ref.declare("A", n)
    ds_ref.distribute("A", [Block()], to="PR")
    ds_ref.arrays["A"].data[:] = np.arange(n, dtype=np.float64)
    stmt = Assignment(ArrayRef("A", (Triplet(2, n),)),
                      ArrayRef("A", (Triplet(1, n - 1),)))
    execute_sequential(ds_ref, stmt)
    machine = DistributedMachine(MachineConfig(p))
    with SpmdExecutor(ds, machine, mode=mode) as ex:
        ex.execute(stmt)
    np.testing.assert_array_equal(ds.arrays["A"].data,
                                  ds_ref.arrays["A"].data)


@pytest.mark.parametrize("mode", MODES)
def test_staggered_grid_spmd(mode):
    case = staggered_grid_case(16, 2, 2, "direct-block")
    ref = staggered_grid_case(16, 2, 2, "direct-block")
    rng = np.random.default_rng(3)
    for name in ("U", "V"):
        values = rng.uniform(-2.0, 2.0,
                             size=case.ds.arrays[name].data.shape)
        case.ds.arrays[name].data[:] = values
        ref.ds.arrays[name].data[:] = values
    execute_sequential(ref.ds, ref.statement)
    machine = DistributedMachine(MachineConfig(4))
    with SpmdExecutor(case.ds, machine, mode=mode) as ex:
        ex.execute(case.statement)
    np.testing.assert_array_equal(case.ds.arrays["P"].data,
                                  ref.ds.arrays["P"].data)


@pytest.mark.parametrize("mode", MODES)
def test_indirect_and_user_defined_through_cache_and_spmd(mode):
    """INDIRECT / UserDefined layouts flow through the schedule cache
    and the SPMD workers: compile once, execute repeatedly as cache
    hits, REDISTRIBUTE invalidates by epoch, numerics stay equal to the
    sequential reference throughout."""
    n, p = 24, 4
    mapping = [(3 * i + 1) % p for i in range(n)]

    def build():
        ds = DataSpace(p)
        ds.processors("PR", p)
        ds.declare("A", n, dynamic=True)
        ds.declare("B", n)
        ds.distribute("A", [Indirect(mapping)], to="PR")
        ds.distribute("B", [UserDefined(lambda i: (i * 7) % p,
                                        name="hash")], to="PR")
        rng = np.random.default_rng(11)
        ds.arrays["A"].data[:] = rng.uniform(-1.0, 1.0, size=n)
        ds.arrays["B"].data[:] = rng.uniform(-1.0, 1.0, size=n)
        return ds

    stmt = Assignment(ArrayRef("A", (Triplet(1, n),)),
                      ArrayRef("B", (Triplet(1, n),)) * 2.0 + 1.0)
    ds = build()
    ds_ref = build()
    machine = DistributedMachine(MachineConfig(p))
    with SpmdExecutor(ds, machine, mode=mode) as ex:
        ex.execute(stmt)
        misses_cold = ds.schedule_cache.misses
        assert misses_cold == 1             # one schedule per statement
        ex.execute(stmt)
        assert ds.schedule_cache.misses == misses_cold
        assert ds.schedule_cache.hits == 1  # the schedule is re-used
        execute_sequential(ds_ref, stmt)
        execute_sequential(ds_ref, stmt)
        np.testing.assert_array_equal(ds.arrays["A"].data,
                                      ds_ref.arrays["A"].data)

        # REDISTRIBUTE bumps the layout epoch: every schedule (and the
        # executor's compiled task splits) must be recompiled
        epoch = ds.layout_epoch
        ds.redistribute("A", [Cyclic()], to="PR")
        assert ds.layout_epoch > epoch
        assert ds.schedule_cache.invalidations >= 1
        assert len(ds.schedule_cache) == 0
        ex.execute(stmt)
        assert ds.schedule_cache.misses == misses_cold + 1
        ds_ref.redistribute("A", [Cyclic()], to="PR")
        execute_sequential(ds_ref, stmt)
        np.testing.assert_array_equal(ds.arrays["A"].data,
                                      ds_ref.arrays["A"].data)


@pytest.mark.parametrize("mode", MODES)
def test_replicated_operand(mode):
    n, p = 16, 4
    from repro.distributions.replicated import ReplicatedFormat

    def build():
        ds = DataSpace(p)
        ds.processors("PR", p)
        ds.declare("L", n)
        ds.declare("R", n)
        ds.distribute("L", [Block()], to="PR")
        ds.distribute("R", [ReplicatedFormat()], to="PR")
        rng = np.random.default_rng(5)
        ds.arrays["R"].data[:] = rng.uniform(-3.0, 3.0, size=n)
        return ds

    stmt = Assignment(ArrayRef("L", (Triplet(1, n),)),
                      ArrayRef("R", (Triplet(1, n),)))
    ds, ds_sim = build(), build()
    machine = DistributedMachine(MachineConfig(p))
    machine_sim = DistributedMachine(MachineConfig(p))
    with SpmdExecutor(ds, machine, mode=mode) as ex:
        rep = ex.execute(stmt)
    sim_rep = SimulatedExecutor(ds_sim, machine_sim).execute(stmt)
    # even for replicated operands (pulled from the primary copy, while
    # the counting oracle reads them locally) the SPMD report matches the
    # simulator
    np.testing.assert_array_equal(rep.words, sim_rep.words)
    np.testing.assert_array_equal(ds.arrays["L"].data,
                                  ds_sim.arrays["L"].data)


def test_process_mode_restarts_for_arrays_created_mid_session():
    """ALLOCATE-style programs: an array created after the workers
    forked transparently restarts the pool (the §6 allocatable pattern
    must work under ``--backend spmd`` exactly like under simulate)."""
    n, p = 20, 4
    ds = DataSpace(p)
    ds.processors("PR", p)
    ds.declare("A", n)
    ds.distribute("A", [Block()], to="PR")
    ds.arrays["A"].data[:] = np.arange(n, dtype=np.float64)
    shift = Assignment(ArrayRef("A", (Triplet(2, n),)),
                       ArrayRef("A", (Triplet(1, n - 1),)))
    machine = DistributedMachine(MachineConfig(p))
    with SpmdExecutor(ds, machine, mode="process") as ex:
        ex.execute(shift)
        ds.declare("Z", n)
        ds.distribute("Z", [Block()], to="PR")
        ds.arrays["Z"].data[:] = 3.0
        stmt = Assignment(ArrayRef("Z", (Triplet(2, n),)),
                          ArrayRef("A", (Triplet(1, n - 1),))
                          + ArrayRef("Z", (Triplet(1, n - 1),)))
        ex.execute(stmt)          # restarts the pool, no error
        ex.execute(stmt)          # steady state on the new pool
    ds_ref = DataSpace(p)
    ds_ref.processors("PR", p)
    for name in ("A", "Z"):
        ds_ref.declare(name, n)
        ds_ref.distribute(name, [Block()], to="PR")
    ds_ref.arrays["A"].data[:] = np.arange(n, dtype=np.float64)
    ds_ref.arrays["Z"].data[:] = 3.0
    execute_sequential(ds_ref, shift)
    execute_sequential(ds_ref, stmt)
    execute_sequential(ds_ref, stmt)
    for name in ("A", "Z"):
        np.testing.assert_array_equal(ds.arrays[name].data,
                                      ds_ref.arrays[name].data)


def test_run_program_spmd_with_allocate():
    """End to end through the directive front end: a program that
    ALLOCATEs between assignments runs under the SPMD backend and
    matches the simulated backend."""
    from repro.directives.analyzer import run_program
    source = """
      REAL A(1:N)
      REAL, ALLOCATABLE :: B(:)
!HPF$ PROCESSORS PR(4)
!HPF$ DISTRIBUTE (BLOCK) TO PR :: A
!HPF$ DISTRIBUTE (BLOCK) TO PR :: B
      A(2:N) = A(1:N-1)
      ALLOCATE (B(1:N))
      B(2:N) = A(1:N-1)
"""
    kwargs = dict(n_processors=4, inputs={"N": 24}, machine=True)
    sim = run_program(source, backend=Backend.simulate(), **kwargs)
    spmd = run_program(source, backend=Backend.spmd(), **kwargs)
    for name in ("A", "B"):
        np.testing.assert_array_equal(spmd.ds.arrays[name].data,
                                      sim.ds.arrays[name].data)


@pytest.mark.parametrize("mode", MODES)
def test_task_split_cache_is_bounded(mode, monkeypatch):
    """The per-executor task-split table is LRU-bounded; evicted splits
    are dropped from the workers too and re-ship correctly when the
    statement comes back."""
    from repro.engine import spmd as spmd_mod
    monkeypatch.setattr(spmd_mod, "_TASK_CACHE_MAX", 2)
    n, p = 16, 4
    ds = DataSpace(p)
    ds.processors("PR", p)
    ds.declare("A", n)
    ds.declare("B", n)
    ds.distribute("A", [Block()], to="PR")
    ds.distribute("B", [Cyclic()], to="PR")
    ds.arrays["B"].data[:] = np.arange(n, dtype=np.float64)
    stmts = [Assignment(ArrayRef("A", (Triplet(1, n - k),)),
                        ArrayRef("B", (Triplet(1 + k, n),)))
             for k in range(3)]
    machine = DistributedMachine(MachineConfig(p))
    with SpmdExecutor(ds, machine, mode=mode) as ex:
        for stmt in stmts:          # third compile evicts the first
            ex.execute(stmt)
        assert len(ex._tasks) == 2
        ex.execute(stmts[0])        # evicted split re-ships
        assert len(ex._tasks) == 2
    ds_ref = DataSpace(p)
    ds_ref.processors("PR", p)
    ds_ref.declare("A", n)
    ds_ref.declare("B", n)
    ds_ref.distribute("A", [Block()], to="PR")
    ds_ref.distribute("B", [Cyclic()], to="PR")
    ds_ref.arrays["B"].data[:] = np.arange(n, dtype=np.float64)
    for stmt in stmts + [stmts[0]]:
        execute_sequential(ds_ref, stmt)
    np.testing.assert_array_equal(ds.arrays["A"].data,
                                  ds_ref.arrays["A"].data)


def test_killed_worker_surfaces_machine_error_and_restarts():
    """A worker killed externally (OOM and friends) must surface as the
    documented MachineError with the close-and-retry recovery, never a
    raw pipe error, and must mark the pool broken."""
    case = _jacobi(20)
    machine = DistributedMachine(MachineConfig(4))
    ex = SpmdExecutor(case.ds, machine, mode="process")
    ex.execute(case.statement)
    pool = ex._pool
    pool._procs[0].terminate()
    pool._procs[0].join(timeout=5.0)
    with pytest.raises(MachineError):
        ex.execute(case.statement)
    assert pool.broken
    with pytest.raises(MachineError, match="broken"):
        ex.execute(case.statement)
    ex.close()
    ex.execute(case.statement)   # fresh pool works
    ex.close()


def test_worker_error_breaks_pool_and_close_restarts():
    case = _jacobi(20)
    machine = DistributedMachine(MachineConfig(4))
    ex = SpmdExecutor(case.ds, machine, mode="thread")
    pool = ex._ensure_pool()
    # dispatch a serial the workers never received: every worker
    # reports the error and the pool is marked broken
    with pytest.raises(MachineError, match="SPMD statement failed"):
        pool.run_statement(999)
    with pytest.raises(MachineError, match="broken"):
        ex.execute(case.statement)
    # close + execute restarts a fresh pool
    ex.close()
    ref = _jacobi(20)
    execute_sequential(ref.ds, ref.statement)
    ex.execute(case.statement)
    ex.close()
    np.testing.assert_array_equal(case.ds.arrays["XNEW"].data,
                                  ref.ds.arrays["XNEW"].data)


def test_refresh_reuploads_external_mutation():
    n = 20
    case = _jacobi(n)
    ref = _jacobi(n)
    machine = DistributedMachine(MachineConfig(4))
    with SpmdExecutor(case.ds, machine, mode="process") as ex:
        ex.execute(case.statement)
        # mutate the canonical array behind the session's back, then
        # tell the executor to re-upload before the next statement
        case.ds.arrays["X"].data[:] *= 2.0
        ref.ds.arrays["X"].data[:] *= 2.0
        ex.refresh()   # no names: re-upload every mirrored array
        ex.execute(case.statement)
    execute_sequential(ref.ds, ref.statement)
    execute_sequential(ref.ds, ref.statement)
    np.testing.assert_array_equal(case.ds.arrays["XNEW"].data,
                                  ref.ds.arrays["XNEW"].data)


# ----------------------------------------------------------------------
# Backend selection layer
# ----------------------------------------------------------------------
def test_resolve_backend_coercions():
    assert resolve_backend(None).kind == "simulate"
    config = BackendConfig(kind="spmd", n_workers=2, mode="thread")
    assert resolve_backend(config) is config
    # bare kind strings are not specs: the front doors that take
    # strings (CLI, wire protocol) convert them at the edge
    for bad in ("spmd", "quantum", 42):
        with pytest.raises(MachineError, match="bad backend spec"):
            resolve_backend(bad)


def test_backend_spec_constructors():
    sim = Backend.simulate()
    assert sim.kind == "simulate" and sim.strategy == "auto"
    spec = Backend.spmd(workers=2, mode="fork", replay=False)
    assert spec.kind == "spmd"
    assert spec.n_workers == 2
    assert spec.mode == "process"      # 'fork' is an alias
    assert spec.pool_key == ("spmd", 2, "process", False)
    with pytest.raises(TypeError):
        Backend()                      # namespace, not a class to build
    with pytest.raises(MachineError):
        Backend.spmd(mode="carrier-pigeon")
    # one SPMD generation: there is no fused/unfused switch, and the
    # worker split is part of the spec, not a loose Session kwarg
    with pytest.raises(TypeError):
        Backend.spmd(fused=True)
    from repro import Session
    with pytest.raises(TypeError):
        Session(4, backend=Backend.spmd(), n_workers=2, mode="thread")


def test_report_timing_fields():
    case = _jacobi(20)
    machine = DistributedMachine(MachineConfig(4))
    rep = SimulatedExecutor(case.ds, machine).execute(case.statement)
    assert rep.wall_s > 0.0
    assert rep.barrier_count == 0
    assert set(rep.per_phase_wall) == {"numerics", "charge"}

    case = _jacobi(20)
    machine = DistributedMachine(MachineConfig(4))
    with SpmdExecutor(case.ds, machine, mode="thread") as ex:
        rep = ex.execute(case.statement)
    assert rep.wall_s > 0.0
    assert rep.barrier_count == 1
    assert set(rep.per_phase_wall) == {"gather", "write"}


# ----------------------------------------------------------------------
# Fused per-peer transfer plans
# ----------------------------------------------------------------------
def _window_tasks(ex):
    """Every compiled WindowTask list sitting in the executor's plan
    cache (one list per fusion window, one task per worker)."""
    return [entry[1] for entry in ex._tasks.values()]


def test_execute_is_a_one_statement_window():
    """``execute(stmt)`` is ``execute_all([stmt])``: the same numerics,
    the same charges and one phase barrier per dispatched window (a
    replayed window-trip crosses twice — asserted by
    test_execute_loop_matches_dispatch_bit_identically)."""
    n, iters = 24, 3
    case, case_all = _jacobi(n), _jacobi(n)
    copy_back = _copy_back(n)
    machine = DistributedMachine(MachineConfig(4))
    machine_all = DistributedMachine(MachineConfig(4))
    barriers = barriers_all = 0
    with SpmdExecutor(case.ds, machine, mode="thread") as ex, \
            SpmdExecutor(case_all.ds, machine_all,
                         mode="thread") as ex_all:
        for _ in range(iters):
            for stmt in (case.statement, copy_back):
                barriers += ex.execute(stmt).barrier_count
            # copy_back reads what the stencil wrote: 2 windows/sweep
            barriers_all += sum(r.barrier_count for r in
                                ex_all.execute_all([case_all.statement,
                                                    copy_back]))
        assert ex.dispatch_count == ex_all.dispatch_count == 2 * iters
    for name in ("X", "XNEW"):
        np.testing.assert_array_equal(case.ds.arrays[name].data,
                                      case_all.ds.arrays[name].data)
    np.testing.assert_array_equal(machine.stats.words_sent,
                                  machine_all.stats.words_sent)
    assert machine.elapsed == machine_all.elapsed
    assert barriers == barriers_all == 2 * iters


def test_independent_statements_share_one_window_barrier():
    n, p = 16, 4
    ds = DataSpace(p)
    ds.processors("PR", p)
    for name in ("A", "B", "C", "D"):
        ds.declare(name, n)
        ds.distribute(name, [Block()], to="PR")
    rng = np.random.default_rng(2)
    ds.arrays["B"].data[:] = rng.uniform(-1, 1, n)
    ds.arrays["D"].data[:] = rng.uniform(-1, 1, n)
    whole = (Triplet(1, n),)
    independent = [Assignment(ArrayRef("A", whole),
                              ArrayRef("B", whole) * 2.0),
                   Assignment(ArrayRef("C", whole),
                              ArrayRef("D", whole) + 1.0)]
    dependent = [Assignment(ArrayRef("A", whole),
                            ArrayRef("B", whole) * 2.0),
                 Assignment(ArrayRef("C", whole),
                            ArrayRef("A", whole) + 1.0)]
    machine = DistributedMachine(MachineConfig(p))
    with SpmdExecutor(ds, machine, mode="thread") as ex:
        reps = ex.execute_all(independent)
        assert sum(r.barrier_count for r in reps) == 1
        reps = ex.execute_all(dependent)
        assert sum(r.barrier_count for r in reps) == 2   # RAW break
    np.testing.assert_array_equal(
        ds.arrays["C"].data, ds.arrays["B"].data * 2.0 + 1.0)


def test_golden_zero_copy_faces_and_staged_gathers():
    """Jacobi 5-point on a 2x2 grid compiles both transfer shapes:
    column faces are one ascending stride-1 run of Fortran-order
    storage (zero-copy ``(lo, hi)`` windows, no gather index), row
    faces are strided (staged ndarray gathers)."""
    case = _jacobi(16)
    ref = _jacobi(16)
    execute_sequential(ref.ds, ref.statement)
    machine = DistributedMachine(MachineConfig(4))
    with SpmdExecutor(case.ds, machine, mode="thread") as ex:
        ex.execute(case.statement)
        windows = _window_tasks(ex)
        assert len(windows) == 1
        pulls = [pull for tasks in windows for task in tasks
                 for tr in task.transfers for pull in tr.pulls]
        zero_copy = [pl for pl in pulls if pl.index is None]
        staged = [pl for pl in pulls if pl.index is not None]
        assert zero_copy and staged
        for pl in zero_copy:
            assert pl.hi > pl.lo
    np.testing.assert_array_equal(case.ds.arrays["XNEW"].data,
                                  ref.ds.arrays["XNEW"].data)


def test_golden_aligned_copy_is_pure_view():
    """A = B with identical BLOCK layouts needs no transfer at all:
    every worker's single operand becomes a zero-copy view into B's
    shared segment and the write collapses to one contiguous slice."""
    n, p = 32, 4
    ds = DataSpace(p)
    ds.processors("PR", p)
    for name in ("A", "B"):
        ds.declare(name, n)
        ds.distribute(name, [Block()], to="PR")
    ds.arrays["B"].data[:] = np.arange(n, dtype=np.float64)
    stmt = Assignment(ArrayRef("A", (Triplet(1, n),)),
                      ArrayRef("B", (Triplet(1, n),)))
    machine = DistributedMachine(MachineConfig(p))
    with SpmdExecutor(ds, machine, mode="thread") as ex:
        ex.execute(stmt)
        (tasks,) = _window_tasks(ex)
        for task in tasks:
            assert task.transfers == ()
            assert all(op.view is not None for op in task.ops)
            assert all(sp.write_index is None and sp.hi > sp.lo
                       for sp in task.stmts)
    np.testing.assert_array_equal(ds.arrays["A"].data,
                                  ds.arrays["B"].data)


def test_golden_cyclic_gather_is_staged():
    """A(BLOCK) = B(CYCLIC): the stride-p positions can never collapse
    to a contiguous window, so every remote pull stages through a
    concatenated gather index."""
    n, p = 32, 4
    ds = DataSpace(p)
    ds.processors("PR", p)
    ds.declare("A", n)
    ds.declare("B", n)
    ds.distribute("A", [Block()], to="PR")
    ds.distribute("B", [Cyclic()], to="PR")
    ds.arrays["B"].data[:] = np.arange(n, dtype=np.float64)
    stmt = Assignment(ArrayRef("A", (Triplet(1, n),)),
                      ArrayRef("B", (Triplet(1, n),)))
    machine = DistributedMachine(MachineConfig(p))
    with SpmdExecutor(ds, machine, mode="thread") as ex:
        ex.execute(stmt)
        (tasks,) = _window_tasks(ex)
        remote = [pull for task_i, task in enumerate(tasks)
                  for tr in task.transfers if tr.src_worker != task_i
                  for pull in tr.pulls]
        assert remote
        assert all(pull.index is not None for pull in remote)
    np.testing.assert_array_equal(ds.arrays["A"].data,
                                  ds.arrays["B"].data)


@pytest.mark.parametrize("mode", MODES)
def test_window_plan_pulls_once_per_source_worker_and_array(mode):
    """Plans come straight from owner maps: with fewer workers than
    processors (P=4, W=2) each (source worker, array) of a WindowTask is
    one fused PeerPull, whatever the units behind it, and worker 0's
    shifted BLOCK operand (owned wholly by units 0-1, i.e. worker 0)
    collapses to a zero-copy view.  Numerics, ledger and elapsed time
    equal the simulator's."""
    n, p = 32, 4

    def build():
        ds = DataSpace(p)
        ds.processors("PR", p)
        rng = np.random.default_rng(9)
        for name in ("A", "B", "C", "D"):
            ds.declare(name, n)
            ds.distribute(name, [Block()], to="PR")
            ds.arrays[name].data[:] = rng.uniform(-2.0, 2.0, n)
        return ds

    shifted = (Triplet(1, n - 1),)
    window = [Assignment(ArrayRef("A", (Triplet(2, n),)),
                         ArrayRef("B", shifted) * 2.0
                         + ArrayRef("B", shifted)),
              Assignment(ArrayRef("C", shifted),
                         ArrayRef("D", (Triplet(2, n),)) + 1.0)]
    ds, ds_sim = build(), build()
    case, case_sim = _jacobi(24), _jacobi(24)
    machine = DistributedMachine(MachineConfig(p))
    machine_sim = DistributedMachine(MachineConfig(p))
    machine_j = DistributedMachine(MachineConfig(p))
    machine_j_sim = DistributedMachine(MachineConfig(p))
    with SpmdExecutor(ds, machine, mode=mode, n_workers=2) as ex, \
            SpmdExecutor(case.ds, machine_j, mode=mode, n_workers=2) as jx:
        ex.execute_all(window)
        jx.execute_loop([case.statement, _copy_back(24)], 2)
        splits = _window_tasks(ex) + _window_tasks(jx)
        (fused,) = _window_tasks(ex)        # one window, two statements
    for split in splits:
        assert len(split) == 2              # one WindowTask per worker
        for task in split:
            pairs = [(tr.src_worker, pull.name)
                     for tr in task.transfers for pull in tr.pulls]
            assert len(pairs) == len(set(pairs))
    b_ops = [op for op in fused[0].ops if op.name == "B"]
    assert len(b_ops) == 2 and all(op.view is not None for op in b_ops)
    SimulatedExecutor(ds_sim, machine_sim).execute_all(window)
    sim = SimulatedExecutor(case_sim.ds, machine_j_sim)
    for _ in range(2):
        sim.execute_all([case_sim.statement, _copy_back(24)])
    for got, want in ((ds, ds_sim), (case.ds, case_sim.ds)):
        for name in got.arrays:
            np.testing.assert_array_equal(got.arrays[name].data,
                                          want.arrays[name].data)
    assert machine.ledger == machine_sim.ledger
    assert machine.elapsed == machine_sim.elapsed
    assert machine_j.ledger == machine_j_sim.ledger
    assert machine_j.elapsed == machine_j_sim.elapsed


def test_make_executor_dispatch():
    case = _jacobi(20)
    machine = DistributedMachine(MachineConfig(4))
    assert isinstance(make_executor(case.ds, machine), SimulatedExecutor)
    ex = make_executor(case.ds, machine,
                       BackendConfig(kind="spmd", mode="thread"))
    assert isinstance(ex, SpmdExecutor)
    ex.close()


def test_run_program_spmd_backend():
    from repro.directives.analyzer import run_program
    source = """
      REAL U(0:N,1:N), V(1:N,0:N), P(1:N,1:N)
!HPF$ PROCESSORS PR(2,2)
!HPF$ DISTRIBUTE (BLOCK,BLOCK) TO PR :: U, V, P
      P = U(0:N-1,:) + U(1:N,:) + V(:,0:N-1) + V(:,1:N)
"""
    kwargs = dict(n_processors=4, inputs={"N": 12}, machine=True)
    sim = run_program(source, backend=Backend.simulate(), **kwargs)
    spmd = run_program(source, backend=Backend.spmd(), **kwargs)
    np.testing.assert_array_equal(spmd.ds.arrays["P"].data,
                                  sim.ds.arrays["P"].data)
    np.testing.assert_array_equal(spmd.reports[-1].words,
                                  sim.reports[-1].words)
    assert spmd.machine.elapsed == sim.machine.elapsed


def test_cli_run_subcommand(tmp_path, capsys):
    from repro.cli import main
    program = tmp_path / "prog.f"
    program.write_text("""
      REAL A(1:N), B(1:N)
!HPF$ PROCESSORS PR(4)
!HPF$ DISTRIBUTE (BLOCK) TO PR :: A, B
      A(2:N) = B(1:N-1)
""")
    assert main(["run", str(program), "--backend", "spmd",
                 "-p", "4", "-D", "N=32"]) == 0
    out_spmd = capsys.readouterr().out
    assert main(["run", str(program), "--backend", "simulate",
                 "-p", "4", "-D", "N=32"]) == 0
    out_sim = capsys.readouterr().out
    assert "backend=spmd" in out_spmd
    # identical accounting lines, backend label aside
    assert out_spmd.splitlines()[1:] == out_sim.splitlines()[1:]


# ----------------------------------------------------------------------
# Worker-resident loop replay
# ----------------------------------------------------------------------
def _loop_serials(ex):
    """The replay serials of every compiled fusion window in the
    executor's plan cache, in compilation (= program) order."""
    return sorted(entry[0] for entry in ex._tasks.values())


@pytest.mark.parametrize("mode", MODES)
def test_execute_loop_matches_dispatch_bit_identically(mode):
    """Replaying N trips worker-side produces the same reports, the
    same numerics and the same machine state as N coordinator-dispatched
    sweeps — run-ahead is invisible to the accounting seam."""
    n, trips = 24, 4
    case = _jacobi(n)
    ref = _jacobi(n)
    stmts = [case.statement, _copy_back(n)]
    ref_stmts = [ref.statement, _copy_back(n)]
    machine = DistributedMachine(MachineConfig(4))
    machine_ref = DistributedMachine(MachineConfig(4))
    with SpmdExecutor(case.ds, machine, mode=mode) as ex:
        reports = ex.execute_loop(stmts, trips)
        assert ex.replay_count == 1
        assert ex.dispatch_count == 0
    with SpmdExecutor(ref.ds, machine_ref, mode=mode) as rex:
        ref_reports = []
        for _ in range(trips):
            ref_reports.extend(rex.execute_all(ref_stmts))
        assert rex.dispatch_count == 2 * trips
        assert rex.replay_count == 0
    assert len(reports) == len(ref_reports) == 2 * trips
    for rep, ref_rep in zip(reports, ref_reports):
        np.testing.assert_array_equal(rep.words, ref_rep.words)
        assert rep.patterns == ref_rep.patterns
        assert rep.total_words == ref_rep.total_words
    for name in ("X", "XNEW"):
        np.testing.assert_array_equal(case.ds.arrays[name].data,
                                      ref.ds.arrays[name].data)
    np.testing.assert_array_equal(machine.stats.words_sent,
                                  machine_ref.stats.words_sent)
    np.testing.assert_array_equal(machine.stats.msgs_sent,
                                  machine_ref.stats.msgs_sent)
    assert machine.elapsed == machine_ref.elapsed
    assert machine.stats.pattern_words == machine_ref.stats.pattern_words
    # replay crosses its barrier twice per window per trip (phase +
    # post-write); dispatch crosses once per window, the coordinator ack
    # round providing write visibility instead
    assert sum(r.barrier_count for r in reports) == 4 * trips
    assert sum(r.barrier_count for r in ref_reports) == 2 * trips


@pytest.mark.parametrize("mode", MODES)
def test_replay_body_wider_than_the_plan_table(mode):
    """A trip-invariant body of 70 fusion windows overflows the
    64-entry plan table while its replay loop is being assembled: the
    loop's own plans are pinned, so the workers still hold window 0 when
    the ``loop`` message lands (it used to be evicted and dropped, and
    the replay died with 'no cached window task 0')."""
    from repro import Session

    def run(backend):
        with Session(2, backend=backend) as s:
            pr = s.processors("PR", 2)
            a = s.array("A", 200).distribute(Block(), to=pr)
            b = s.array("B", 200).distribute(Block(), to=pr)
            a.data[:] = np.arange(200, dtype=np.float64)
            with s.loop(2):
                for k in range(70):
                    if k % 2 == 0:
                        b[1 + k:199] = a[1 + k:199] * 1.0
                    else:
                        a[1 + k:199] = b[1 + k:199] + 1.0
            s.run()
            executor = s._runner.executor
            return (a.data.copy(), b.data.copy(), list(s.machine.ledger),
                    s.machine.elapsed,
                    getattr(executor, "replay_count", None))

    a_sim, b_sim, ledger_sim, elapsed_sim, _ = run(Backend.simulate())
    a_spmd, b_spmd, ledger, elapsed, replays = run(
        Backend.spmd(workers=2, mode=mode))
    assert replays == 1
    np.testing.assert_array_equal(a_spmd, a_sim)
    np.testing.assert_array_equal(b_spmd, b_sim)
    assert ledger == ledger_sim
    assert elapsed == elapsed_sim


def test_execute_loop_replay_off_falls_back_to_dispatch():
    n, trips = 20, 3
    case = _jacobi(n)
    ref = _jacobi(n)
    copy_back = _copy_back(n)
    machine = DistributedMachine(MachineConfig(4))
    with SpmdExecutor(case.ds, machine, mode="thread",
                      replay=False) as ex:
        assert ex.replay is False
        reports = ex.execute_loop([case.statement, copy_back], trips)
        assert ex.replay_count == 0
        assert ex.dispatch_count == 2 * trips
    assert len(reports) == 2 * trips
    for _ in range(trips):
        execute_sequential(ref.ds, ref.statement)
        execute_sequential(ref.ds, copy_back)
    np.testing.assert_array_equal(case.ds.arrays["X"].data,
                                  ref.ds.arrays["X"].data)


def test_execute_loop_degenerate_inputs():
    case = _jacobi(20)
    machine = DistributedMachine(MachineConfig(4))
    with SpmdExecutor(case.ds, machine, mode="thread") as ex:
        assert ex.execute_loop([], 5) == []
        assert ex.execute_loop([case.statement], 0) == []
        assert ex.replay_count == 0 and ex.dispatch_count == 0


def test_sense_barrier_timeout_sets_sticky_abort():
    from repro.engine import spmd as spmd_mod
    from repro.engine.spmd import SenseBarrier
    slots = np.zeros(SenseBarrier.n_slots(2), dtype=np.int64)
    b = SenseBarrier(slots, 0, 2)
    with pytest.raises(MachineError, match="timed out"):
        b.wait(0.2)
    # the timed-out waiter flips the sticky abort flag for its peers
    assert slots[2 * spmd_mod._SENSE_STRIDE] == 1


def test_sense_barrier_peer_abort_raises_peer_failed():
    from repro.engine import spmd as spmd_mod
    from repro.engine.spmd import SenseBarrier, _PeerAbortError
    slots = np.zeros(SenseBarrier.n_slots(2), dtype=np.int64)
    slots[2 * spmd_mod._SENSE_STRIDE] = 1          # a peer aborted
    b = SenseBarrier(slots, 0, 2)
    # _PeerAbortError is a MachineError carrying the relay message
    with pytest.raises(_PeerAbortError, match="peer failed"):
        b.wait(5.0)
    assert issubclass(_PeerAbortError, MachineError)


def test_sense_barrier_crossings_stay_in_lockstep():
    import threading

    from repro.engine import spmd as spmd_mod
    from repro.engine.spmd import SenseBarrier
    crossings = 50
    slots = np.zeros(SenseBarrier.n_slots(2), dtype=np.int64)
    errors = []

    def run(rank):
        b = SenseBarrier(slots, rank, 2)
        try:
            for _ in range(crossings):
                b.wait(10.0)
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(r,)) for r in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    assert not errors
    # generations are monotonic and never reset
    assert slots[0] == slots[spmd_mod._SENSE_STRIDE] == crossings
    assert slots[2 * spmd_mod._SENSE_STRIDE] == 0


def test_thread_peer_barrier_break_reports_peer_failed():
    """A worker whose peer aborts the phase barrier must relay the
    documented 'peer failed' message, not a raw BrokenBarrierError
    traceback (the real cause follows on the failing peer's pipe)."""
    case = _jacobi(20)
    machine = DistributedMachine(MachineConfig(4))
    ex = SpmdExecutor(case.ds, machine, mode="thread", n_workers=2)
    try:
        ex.execute(case.statement)          # caches the window split
        (serial,) = _loop_serials(ex)
        pool = ex._pool
        # worker 0 runs the cached window and parks at the phase
        # barrier; worker 1 hits an unknown serial, errors, and aborts
        # the barrier under worker 0
        pool._endpoints[0].send(("exec", serial))
        pool._endpoints[1].send(("exec", 999))
        status0, detail0, _ = pool._recv(0, pool._endpoints[0])
        status1, detail1, _ = pool._recv(1, pool._endpoints[1])
        assert status0 == "err" and status1 == "err"
        assert "peer failed" in detail0
        assert "its own error follows on its pipe" in detail0
        assert "BrokenBarrierError" not in detail0
        assert "no cached task 999" in detail1
    finally:
        ex.close()


def test_replay_wedge_detection_releases_survivors(monkeypatch):
    """If a peer never reaches the replay barrier, survivors must time
    out via the SenseBarrier (not hang), report the wedge, and return
    to their service loop so the pool can be torn down cleanly."""
    from repro.engine import spmd as spmd_mod
    # patch BEFORE the pool forks: children inherit the module state
    monkeypatch.setattr(spmd_mod, "_BARRIER_TIMEOUT", 3.0)
    n = 20
    case = _jacobi(n)
    stmts = [case.statement, _copy_back(n)]
    machine = DistributedMachine(MachineConfig(4))
    ex = SpmdExecutor(case.ds, machine, mode="process")
    try:
        ex.execute_loop(stmts, 1)           # forks pool, ships plans
        serials = _loop_serials(ex)
        pool = ex._pool
        # start a replay on workers 0..2 only: worker 3 never arrives
        # at the SenseBarrier, so the survivors wedge
        for endpoint in pool._endpoints[:-1]:
            endpoint.send(("loop", 777, tuple(serials), 2))
        details = []
        for w in range(3):
            status, detail, _ = pool._recv(w, pool._endpoints[w])
            assert status == "err"
            details.append(detail)
        # the first waiter past the deadline reports the timeout and
        # aborts; the rest are released into the peer-failed relay
        assert all(("timed out" in d) or ("peer failed" in d)
                   for d in details)
        assert any("timed out" in d for d in details)
        # every worker is back in its service loop: a plain stop
        # suffices, no terminate needed
        for endpoint in pool._endpoints:
            endpoint.send(("stop",))
        for proc in pool._procs:
            proc.join(timeout=30.0)
            assert not proc.is_alive()
    finally:
        ex.close()


def test_replay_dead_worker_surfaces_machine_error():
    case = _jacobi(20)
    stmts = [case.statement, _copy_back(20)]
    machine = DistributedMachine(MachineConfig(4))
    ex = SpmdExecutor(case.ds, machine, mode="process")
    try:
        ex.execute_loop(stmts, 1)
        pool = ex._pool
        pool._procs[0].terminate()
        pool._procs[0].join(timeout=5.0)
        with pytest.raises(MachineError):
            ex.execute_loop(stmts, 3)
        assert pool.broken
        with pytest.raises(MachineError, match="broken"):
            ex.execute_loop(stmts, 1)
    finally:
        ex.close()
    # close + execute restarts a fresh pool
    ex.execute_loop(stmts, 1)
    ex.close()
