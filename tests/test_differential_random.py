"""Randomized differential testing of the execution engines.

A seeded generator draws ~50 programs — random shapes, BLOCK /
BLOCK(m) / CYCLIC / CYCLIC(k) / GENERAL_BLOCK / REPLICATED layouts,
random offset alignments, random RHS sections and expression shapes —
and each case is executed four ways from identical initial data:

* the sequential reference semantics (ground truth);
* :class:`SimulatedExecutor` (counting matrices, lowered time model);
* :class:`SpmdExecutor` dispatching fused per-peer transfer plans (one
  phase barrier per fusion window, zero-copy face windows where legal);
* :class:`SpmdExecutor` through the worker-resident loop-replay
  protocol (:meth:`~repro.engine.spmd.SpmdExecutor.execute_loop` —
  preloaded window plans, one ``loop`` dispatch, coordinator
  accounting running behind the workers).

The differential assertions: SPMD-computed numerics equal the
sequential reference bit-for-bit; the SPMD backend's reported words
matrices, per-processor machine counters, modeled elapsed time and
pattern attribution equal the counting executor's *bit-identically in
every case* (both charge the same compiled counting schedules); and the
counting executor's words matrix equals the sum of the dense-oracle
:func:`~repro.engine.commsets.comm_matrix` over the statement's
references in every case, replicated operands included.  This is the
harness proving pattern lowering and the SPMD backend preserve both
numerics and message-count semantics.

The same 50 seeds additionally run 5-way through the optimizer
pipeline: reference == simulated == SPMD-dispatch == SPMD-replay at
``-O0`` == ``-O2`` — numerics and per-statement report attribution are
opt-level invariant, the ``-O2`` machine never moves *more* than
``-O0``, and the simulated and SPMD machines stay bit-identical to each
other at ``-O2`` (both accountants make the same decisions over the
same statement stream).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.align.ast import Dummy
from repro.align.spec import AlignSpec, AxisDummy, BaseExpr
from repro.core.dataspace import DataSpace
from repro.distributions.block import Block
from repro.distributions.cyclic import Cyclic
from repro.distributions.general_block import GeneralBlock
from repro.distributions.replicated import ReplicatedFormat
from repro.engine.assignment import Assignment
from repro.engine.executor import SimulatedExecutor
from repro.engine.spmd import SpmdExecutor
from repro.engine.expr import ArrayRef
from repro.engine.ir import ProgramGraph
from repro.engine.passes import ProgramRunner
from repro.engine.reference import execute_sequential
from repro.fortran.triplet import Triplet
from repro.machine.config import MachineConfig
from repro.machine.simulator import DistributedMachine

N_CASES = 50
_KINDS = ("block", "block_m", "cyclic", "cyclic_k", "gblock", "replicated")


# ----------------------------------------------------------------------
# Case generation (pure data, so one seed always builds one program)
# ----------------------------------------------------------------------
def _format_spec(rng: np.random.Generator, n: int, p: int) -> tuple:
    kind = _KINDS[int(rng.integers(0, len(_KINDS)))]
    if kind == "block_m":
        return ("block_m", int(-(-n // p) + rng.integers(0, 3)))
    if kind == "cyclic_k":
        return ("cyclic_k", int(rng.integers(2, 6)))
    if kind == "gblock":
        sizes = rng.multinomial(n, np.full(p, 1.0 / p))
        return ("gblock", tuple(int(s) for s in sizes))
    return (kind, None)


def _case(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    p = int(rng.choice([4, 5, 8]))
    n = int(rng.integers(24, 97))
    arrays = [("A", n, _format_spec(rng, n, p)),
              ("B", n, _format_spec(rng, n, p))]
    if rng.random() < 0.6:
        n_c = n - 4
        if rng.random() < 0.5:
            # C rides A's mapping through an offset alignment
            arrays.append(("C", n_c, ("aligned", int(rng.integers(0, 4)))))
        else:
            arrays.append(("C", n_c, _format_spec(rng, n_c, p)))
    names = [a[0] for a in arrays]
    sizes = {a[0]: a[1] for a in arrays}
    lhs_name = names[int(rng.integers(0, len(names)))]
    n_refs = int(rng.integers(1, 3))
    ref_names = [names[int(rng.integers(0, len(names)))]
                 for _ in range(n_refs)]
    min_size = min(sizes[nm] for nm in [lhs_name] + ref_names)
    extent = int(rng.integers(1, max((min_size - 1) // 3 + 1, 2)))

    def triplet_for(nm: str) -> tuple[int, int, int]:
        stride = int(rng.integers(1, 4))
        lo = int(rng.integers(1, sizes[nm] - (extent - 1) * stride + 1))
        return (lo, lo + (extent - 1) * stride, stride)

    return {
        "p": p, "n": n, "arrays": arrays, "data_seed": seed + 10_000,
        "lhs": (lhs_name, triplet_for(lhs_name)),
        "refs": [(nm, triplet_for(nm)) for nm in ref_names],
        "shape": int(rng.integers(0, 2)),
    }


def _build_format(spec: tuple):
    kind, arg = spec
    if kind == "block":
        return Block()
    if kind == "block_m":
        return Block(size=arg)
    if kind == "cyclic":
        return Cyclic()
    if kind == "cyclic_k":
        return Cyclic(arg)
    if kind == "gblock":
        return GeneralBlock.from_sizes(list(arg))
    return ReplicatedFormat()


def _materialize(case: dict) -> DataSpace:
    ds = DataSpace(case["p"])
    ds.processors("PR", case["p"])
    rng = np.random.default_rng(case["data_seed"])
    for name, size, spec in case["arrays"]:
        ds.declare(name, size)
        if spec[0] == "aligned":
            ds.align(AlignSpec(name, [AxisDummy("I")], "A",
                               [BaseExpr(Dummy("I") + spec[1])]))
        else:
            ds.distribute(name, [_build_format(spec)], to="PR")
        ds.arrays[name].data[:] = rng.uniform(-8.0, 8.0, size=size)
    return ds


def _statement(case: dict) -> Assignment:
    lhs_name, lhs_t = case["lhs"]
    refs = [ArrayRef(nm, (Triplet(*t),)) for nm, t in case["refs"]]
    if len(refs) == 1:
        rhs = refs[0] if case["shape"] == 0 else refs[0] * 2.0 + 1.0
    else:
        rhs = (refs[0] + refs[1] if case["shape"] == 0
               else refs[0] * 2.0 - refs[1])
    return Assignment(ArrayRef(lhs_name, (Triplet(*lhs_t),)), rhs)


# ----------------------------------------------------------------------
# The differential harness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(N_CASES))
def test_differential_random_program(seed):
    case = _case(seed)
    stmt = _statement(case)
    p = case["p"]

    ds_ref = _materialize(case)
    ds_sim = _materialize(case)
    ds_spmd = _materialize(case)

    execute_sequential(ds_ref, stmt)

    machine_sim = DistributedMachine(MachineConfig(p))
    sim_report = SimulatedExecutor(ds_sim, machine_sim).execute(stmt)

    machine_spmd = DistributedMachine(MachineConfig(p))
    with SpmdExecutor(ds_spmd, machine_spmd, mode="thread") as spmd:
        spmd_report = spmd.execute(stmt)

    ds_spmd_rp = _materialize(case)
    machine_spmd_rp = DistributedMachine(MachineConfig(p))
    with SpmdExecutor(ds_spmd_rp, machine_spmd_rp, mode="thread") as spmd_rp:
        (spmd_rp_report,) = spmd_rp.execute_loop([stmt], 1)
        assert spmd_rp.replay_count == 1
        assert spmd_rp.dispatch_count == 0

    # dispatch = one phase barrier per window; replay = two phase
    # crossings per window per trip (compute-ready + post-write)
    assert spmd_report.barrier_count == 1
    assert spmd_rp_report.barrier_count == 2

    # numerics: SPMD-parallel execution (dispatched and replayed) ==
    # sequential reference, for every array (untouched arrays stay
    # untouched)
    for name in ds_ref.arrays:
        np.testing.assert_array_equal(
            ds_sim.arrays[name].data, ds_ref.arrays[name].data,
            err_msg=f"seed {seed}: simulated numerics diverge on {name}")
        np.testing.assert_array_equal(
            ds_spmd.arrays[name].data, ds_ref.arrays[name].data,
            err_msg=f"seed {seed}: fused SPMD numerics diverge on {name}")
        np.testing.assert_array_equal(
            ds_spmd_rp.arrays[name].data, ds_ref.arrays[name].data,
            err_msg=f"seed {seed}: replayed SPMD numerics diverge "
                    f"on {name}")

    # the SPMD backend charges the same compiled counting schedules as
    # the simulator: its reported matrices, machine counters, modeled
    # time and pattern attribution are bit-identical in EVERY case
    # (replicated operands included)
    np.testing.assert_array_equal(
        spmd_report.words, sim_report.words,
        err_msg=f"seed {seed}: SPMD words matrix diverges from simulated")
    np.testing.assert_array_equal(machine_spmd.stats.words_sent,
                                  machine_sim.stats.words_sent)
    np.testing.assert_array_equal(machine_spmd.stats.words_recv,
                                  machine_sim.stats.words_recv)
    np.testing.assert_array_equal(machine_spmd.stats.msgs_sent,
                                  machine_sim.stats.msgs_sent)
    assert machine_spmd.elapsed == machine_sim.elapsed
    assert spmd_report.patterns == sim_report.patterns
    assert machine_spmd.stats.pattern_words == \
        machine_sim.stats.pattern_words

    # the replay path charges the same trip-invariant counting schedule
    # from the coordinator while the workers run ahead — accounting is
    # bit-identical to the simulator there too
    np.testing.assert_array_equal(
        spmd_rp_report.words, sim_report.words,
        err_msg=f"seed {seed}: replayed SPMD words diverge from simulated")
    np.testing.assert_array_equal(machine_spmd_rp.stats.words_sent,
                                  machine_sim.stats.words_sent)
    np.testing.assert_array_equal(machine_spmd_rp.stats.msgs_sent,
                                  machine_sim.stats.msgs_sent)
    assert machine_spmd_rp.elapsed == machine_sim.elapsed
    assert spmd_rp_report.patterns == sim_report.patterns

    # message counts: the charged matrix == the dense oracle summed over
    # the references, on every seed (replicated operands included)
    from repro.engine.commsets import comm_matrix
    lhs_section = stmt.lhs.section(ds_sim)
    lhs_dist = ds_sim.distribution_of(stmt.lhs.name)
    oracle = sum(comm_matrix(lhs_dist, lhs_section,
                             ds_sim.distribution_of(ref.name),
                             ref.section(ds_sim), p)[0]
                 for ref in stmt.rhs.refs())
    np.testing.assert_array_equal(
        oracle, sim_report.words,
        err_msg=f"seed {seed}: words matrices diverge from the oracle")

    # the lowered time model never charges more than point-to-point
    # (per deposited reference — each ref is one message batch)
    from repro.engine.lowering import p2p_time
    comm_elapsed = sum(machine_sim.stats.pattern_time.values())
    p2p_total = sum(p2p_time(machine_sim.config, matrix)
                    for _, matrix, _, _ in sim_report.per_ref)
    assert comm_elapsed <= p2p_total + 1e-9

    # ------------------------------------------------------------------
    # 5-way: the same case through the optimizer pipeline at -O2, on
    # the simulated backend, SPMD dispatch, and the SPMD loop-replay
    # path
    # ------------------------------------------------------------------
    from repro.engine.passes import OptimizingAccountant

    ds_o2 = _materialize(case)
    machine_o2 = DistributedMachine(MachineConfig(p))
    ex_o2 = SimulatedExecutor(ds_o2, machine_o2)
    ex_o2.accountant = OptimizingAccountant(ds_o2, machine_o2, 2)
    o2_report = ex_o2.execute(stmt)
    ex_o2.accountant.flush()

    ds_spmd2 = _materialize(case)
    machine_spmd2 = DistributedMachine(MachineConfig(p))
    with SpmdExecutor(ds_spmd2, machine_spmd2, mode="thread") as spmd2:
        spmd2.accountant = OptimizingAccountant(ds_spmd2, machine_spmd2, 2)
        spmd2_report = spmd2.execute(stmt)
        spmd2.accountant.flush()

    ds_spmd2_rp = _materialize(case)
    machine_spmd2_rp = DistributedMachine(MachineConfig(p))
    with SpmdExecutor(ds_spmd2_rp, machine_spmd2_rp,
                      mode="thread") as spmd2_rp:
        spmd2_rp.accountant = OptimizingAccountant(
            ds_spmd2_rp, machine_spmd2_rp, 2)
        spmd2_rp.execute_loop([stmt], 1)
        assert spmd2_rp.replay_count == 1
        spmd2_rp.accountant.flush()

    # numerics are opt-level and backend invariant
    for name in ds_ref.arrays:
        np.testing.assert_array_equal(
            ds_o2.arrays[name].data, ds_ref.arrays[name].data,
            err_msg=f"seed {seed}: -O2 simulated numerics diverge")
        np.testing.assert_array_equal(
            ds_spmd2.arrays[name].data, ds_ref.arrays[name].data,
            err_msg=f"seed {seed}: -O2 fused SPMD numerics diverge")
        np.testing.assert_array_equal(
            ds_spmd2_rp.arrays[name].data, ds_ref.arrays[name].data,
            err_msg=f"seed {seed}: -O2 replayed SPMD numerics diverge")

    # report attribution is opt-level invariant (fusion never loses it)
    np.testing.assert_array_equal(o2_report.words, sim_report.words)
    assert o2_report.words_by_pattern() == sim_report.words_by_pattern()
    assert o2_report.patterns == sim_report.patterns

    # the -O2 machine never moves more than -O0, and the two -O2
    # backends stay bit-identical to each other
    assert machine_o2.stats.total_words <= machine_sim.stats.total_words
    assert machine_o2.stats.total_messages <= \
        machine_sim.stats.total_messages
    np.testing.assert_array_equal(machine_spmd2.stats.words_sent,
                                  machine_o2.stats.words_sent)
    np.testing.assert_array_equal(machine_spmd2.stats.msgs_sent,
                                  machine_o2.stats.msgs_sent)
    assert machine_spmd2.elapsed == machine_o2.elapsed
    assert spmd2_report.words_by_pattern() == o2_report.words_by_pattern()
    assert machine_spmd2.stats.opt_words_saved == \
        machine_o2.stats.opt_words_saved
    np.testing.assert_array_equal(machine_spmd2_rp.stats.words_sent,
                                  machine_o2.stats.words_sent)
    assert machine_spmd2_rp.elapsed == machine_o2.elapsed
    assert machine_spmd2_rp.stats.opt_words_saved == \
        machine_o2.stats.opt_words_saved


def test_generator_covers_layout_families():
    """The 50 seeds collectively exercise every layout family, the
    alignment path, and both replicated and distributed operands."""
    kinds: set[str] = set()
    replicated_refs = 0
    for seed in range(N_CASES):
        case = _case(seed)
        for _, _, spec in case["arrays"]:
            kinds.add(spec[0])
        ref_specs = {nm: spec for nm, _, spec in case["arrays"]}
        if any(ref_specs[nm][0] == "replicated" for nm, _ in case["refs"]):
            replicated_refs += 1
    assert {"block", "block_m", "cyclic", "cyclic_k", "gblock",
            "replicated", "aligned"} <= kinds
    assert replicated_refs >= 1
    assert replicated_refs < N_CASES // 2   # mostly distributed operands


def test_generated_programs_are_deterministic():
    assert _case(7) == _case(7)
    assert _statement(_case(7)) == _statement(_case(7))


# ----------------------------------------------------------------------
# Diagonal-stencil halo soundness (2-D corner exchanges at -O2)
# ----------------------------------------------------------------------
# The 1-D harness above can never produce a diagonal shift vector, so
# the ``-O2`` subsumption pass — which proves a diagonal exchange's
# elements resident from the straight faces — gets its own seeded
# sweep: random 2-D block grids (even and uneven), random stencils with
# at least one diagonal vector (every 5th seed is the full 9-point
# star), each run at ``-O0`` and ``-O2`` and checked against an
# independent element-wise count of what every reader must receive.

_DIAG_GRIDS = ((2, 2), (2, 3), (3, 2), (2, 4))


def _diag_case(seed: int) -> dict:
    rng = np.random.default_rng(10_000 + seed)
    gr, gc = _DIAG_GRIDS[int(rng.integers(len(_DIAG_GRIDS)))]
    nr = int(rng.integers(12, 25))
    nc = int(rng.integers(12, 25))
    if seed % 5 == 0:
        # the full 9-point star: all eight unit neighbours
        vecs = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                if (dr, dc) != (0, 0)]
    else:
        w = int(rng.integers(1, 3))
        candidates = [(dr, dc) for dr in range(-w, w + 1)
                      for dc in range(-w, w + 1) if (dr, dc) != (0, 0)]
        rng.shuffle(candidates)
        vecs = candidates[:int(rng.integers(2, 6))]
        if not any(dr and dc for dr, dc in vecs):
            diag = [(dr, dc) for dr, dc in candidates if dr and dc]
            vecs.append(diag[0])
    # uneven rows on odd seeds: a random GENERAL_BLOCK split
    if seed % 2:
        cuts = sorted(rng.choice(np.arange(1, nr), size=gr - 1,
                                 replace=False).tolist())
        row_sizes = [b - a for a, b in
                     zip([0, *cuts], [*cuts, nr])]
    else:
        row_sizes = None
    return {"grid": (gr, gc), "n": (nr, nc), "vecs": vecs,
            "row_sizes": row_sizes, "data_seed": int(rng.integers(2**31))}


def _diag_materialize(case: dict) -> DataSpace:
    (gr, gc), (nr, nc) = case["grid"], case["n"]
    ds = DataSpace(gr * gc)
    ds.processors("PR", gr, gc)
    rng = np.random.default_rng(case["data_seed"])
    row_fmt = (GeneralBlock.from_sizes(case["row_sizes"])
               if case["row_sizes"] else Block())
    for name in ("X", "Y"):
        ds.declare(name, nr, nc)
        ds.distribute(name, [row_fmt, Block()], to="PR")
        ds.arrays[name].data[:] = rng.uniform(-8.0, 8.0, size=(nr, nc))
    return ds


def _diag_statement(case: dict) -> Assignment:
    nr, nc = case["n"]
    lo_r = max(0, max(-dr for dr, _ in case["vecs"]))
    hi_r = max(0, max(dr for dr, _ in case["vecs"]))
    lo_c = max(0, max(-dc for _, dc in case["vecs"]))
    hi_c = max(0, max(dc for _, dc in case["vecs"]))
    lt = (Triplet(1 + lo_r, nr - hi_r), Triplet(1 + lo_c, nc - hi_c))
    refs = [ArrayRef("Y", (Triplet(lt[0].lower + dr, lt[0].upper + dr),
                           Triplet(lt[1].lower + dc, lt[1].upper + dc)))
            for dr, dc in case["vecs"]]
    rhs = refs[0]
    for r in refs[1:]:
        rhs = rhs + r
    return Assignment(ArrayRef("X", lt), rhs)


def _diag_remote_needs(ds, case: dict, stmt: Assignment) -> np.ndarray:
    """Independent element-wise lower bound on any sound charge: per
    reader unit, the number of *distinct* remote ``Y`` elements its
    owned ``X`` iterations read, over every shift vector."""
    own = ds.distribution_of("Y").primary_owner_map()
    lhs = ds.distribution_of("X").primary_owner_map()
    rows, cols = stmt.lhs.subscripts
    needs: list[set] = [set() for _ in range(ds.ap.size)]
    for r in range(rows.lower - 1, rows.upper):
        for c in range(cols.lower - 1, cols.upper):
            u = int(lhs[r, c])
            for dr, dc in case["vecs"]:
                s = (r + dr, c + dc)
                if int(own[s]) != u:
                    needs[u].add(s)
    return np.array([len(n) for n in needs], dtype=np.int64)


def _diag_run(case: dict, opt_level: int):
    ds = _diag_materialize(case)
    graph = ProgramGraph()
    graph.assign(_diag_statement(case))
    p = case["grid"][0] * case["grid"][1]
    machine = DistributedMachine(MachineConfig(p))
    ProgramRunner(ds, machine, opt_level=opt_level).run(graph)
    return ds, machine


@pytest.mark.parametrize("seed", range(N_CASES))
def test_differential_diagonal_overlap(seed):
    from repro.engine.commsets import comm_matrix

    case = _diag_case(seed)
    p = case["grid"][0] * case["grid"][1]
    stmt = _diag_statement(case)
    ds_ref = _diag_materialize(case)
    execute_sequential(ds_ref, stmt)

    ds0, m0 = _diag_run(case, 0)
    ds2, m2 = _diag_run(case, 2)
    for ds in (ds0, ds2):
        np.testing.assert_array_equal(
            ds.arrays["X"].data, ds_ref.arrays["X"].data,
            err_msg=f"seed {seed}: numerics diverge from the reference")

    # -O0 charges exactly the per-reference oracle traffic
    lhs_sec = ds_ref.section("X", *stmt.lhs.subscripts)
    dl = ds_ref.distribution_of("X")
    dr_ = ds_ref.distribution_of("Y")
    oracle = sum(
        int(comm_matrix(dl, lhs_sec, dr_,
                        ds_ref.section("Y", *ref.subscripts), p)[0].sum())
        for ref in stmt.rhs.refs())
    assert m0.stats.total_words == oracle, f"seed {seed}"

    # -O2 is sound: every reader still receives each distinct remote
    # element it reads at least once ...
    needs = _diag_remote_needs(ds_ref, case, stmt)
    short = np.nonzero(m2.stats.words_recv < needs)[0]
    assert short.size == 0, (
        f"seed {seed}: -O2 under-charges readers {short.tolist()}: "
        f"received {m2.stats.words_recv.tolist()}, "
        f"need {needs.tolist()}")
    # ... and never moves more than -O0
    assert m2.stats.total_words <= m0.stats.total_words, f"seed {seed}"
    assert m2.stats.total_messages <= m0.stats.total_messages, \
        f"seed {seed}"
