"""Tests for the autotune subsystem (repro.autotune).

Covers the unified partitioners, the advisor's hand-computed economics
(crossover, hysteresis, never-adapt-on-the-last-trip), cost-driven pass
selection, the RPR023 imbalance lint, the feedback gate, the service's
per-tenant adaptation counters, the report-only front doors, and the
end-to-end acceptance scenario: a power-law-imbalanced Jacobi on P=8
where ``opt="auto"`` emits exactly one REDISTRIBUTE to GENERAL_BLOCK,
improves modeled makespan by >= 25% and stays bit-identical to the
static run — plus a 50-seed differential leg over the random corpus
proving ``opt="auto"`` never perturbs numerics or ledgers when there is
nothing to adapt.
"""

from __future__ import annotations

import numpy as np
import pytest

import test_differential_random as corpus

from repro.api.session import Session
from repro.autotune import (
    HYSTERESIS,
    MIN_TRIPS_LEFT,
    AutoTuner,
    WorkProfile,
    balanced_bounds,
    imbalance,
    lpt_partition,
    partition_work,
    propose_for_loop,
    select_passes,
)
from repro.distributions.block import Block
from repro.distributions.general_block import GeneralBlock
from repro.engine.ir import LoopNode
from repro.engine.passes import RemapPlan, passes_for
from repro.errors import MachineError, MappingError
from repro.machine.config import MachineConfig
from repro.machine.simulator import DistributedMachine
from repro.workloads.irregular import (
    imbalanced_jacobi_session,
    power_law_costs,
    stepped_costs,
    triangular_costs,
)


# ----------------------------------------------------------------------
# The unified partitioners
# ----------------------------------------------------------------------
def test_balanced_for_costs_delegates_to_partition_module():
    for costs in (triangular_costs(64), power_law_costs(100, 2.0),
                  stepped_costs(80, seed=3)):
        for np_ in (2, 4, 7):
            via_format = GeneralBlock.balanced_for_costs(costs, np_)
            assert via_format.bounds == \
                tuple(balanced_bounds(costs, np_, lower=1))


def test_balanced_bounds_respects_lower_bound():
    costs = np.ones(10)
    assert balanced_bounds(costs, 2, lower=1) == [5]
    assert balanced_bounds(costs, 2, lower=0) == [4]


def test_lpt_never_worse_than_contiguous_splitter():
    """LPT optimizes over a strictly larger feasible set (pieces need
    not be contiguous), so its makespan imbalance is never worse."""
    for costs in (triangular_costs(64), power_law_costs(64, 2.0),
                  stepped_costs(64, 0.1, 50.0, seed=7)):
        for np_ in (2, 4, 8):
            fmt = GeneralBlock.balanced_for_costs(costs, np_)
            bound = fmt.bind(
                __import__("repro.fortran.triplet",
                           fromlist=["Triplet"]).Triplet(1, len(costs)),
                np_)
            contiguous = bound.owners_of(np.arange(1, len(costs) + 1))
            lpt = lpt_partition(costs, np_)
            imb_contig = imbalance(partition_work(costs, contiguous, np_))
            imb_lpt = imbalance(partition_work(costs, lpt, np_))
            assert imb_lpt <= imb_contig + 1e-12


def test_partition_work_and_imbalance():
    costs = np.array([3.0, 1.0, 2.0, 2.0])
    owners = np.array([0, 1, 0, 1])
    work = partition_work(costs, owners, 2)
    np.testing.assert_array_equal(work, [5.0, 3.0])
    assert imbalance(work) == pytest.approx(5.0 / 4.0)
    assert imbalance(np.zeros(4)) == 1.0


# ----------------------------------------------------------------------
# Advisor economics (hand-computed crossovers)
# ----------------------------------------------------------------------
def _skew_session(count: int, opt=0) -> Session:
    """X(8) BLOCK over 2 procs, costs [0]*4+[1]*4: BLOCK work [0, 4],
    balanced GENERAL_BLOCK((6)) work [2, 2]; the remap moves indices
    5..6 from p1 to p0 — 2 words, 1 message."""
    s = Session(2, opt=opt)
    pr = s.processors("PR", 2)
    x = s.array("X", 8, dynamic=True).distribute(Block(), to=pr)
    x.cost_profile([0, 0, 0, 0, 1, 1, 1, 1])
    x.data[:] = np.arange(8.0)
    with s.loop(count):
        x[1:-1] = x[:-2] + x[2:]
    return s


def _only_loop(s: Session) -> LoopNode:
    loops = [n for n in s.lower().nodes if isinstance(n, LoopNode)]
    assert len(loops) == 1
    return loops[0]


def test_advisor_hand_computed_economics():
    s = _skew_session(5)
    config = MachineConfig(2, alpha=0.0, beta=1.0, flop=1.0)
    props = propose_for_loop(s.ds, config, _only_loop(s))
    assert len(props) == 1
    p = props[0]
    assert p.array == "X"
    assert p.formats[0].bounds == (6,)
    # work [0,4] -> [2,2]; flop=1, one referencing statement per trip
    assert p.per_trip_gain == pytest.approx(2.0)
    assert p.trips_left == 4
    assert p.modeled_gain == pytest.approx(8.0)
    # remap matrix: 2 elements move p1->p0 in one message
    assert p.moved_words == 2
    assert p.messages == 1
    assert p.modeled_cost == pytest.approx(2.0)
    assert p.imbalance_before == pytest.approx(2.0)
    assert p.imbalance_after == pytest.approx(1.0)
    assert p.worthwhile       # 8.0 > 1.25 * 2.0


def test_advisor_hysteresis_band_declines():
    """Gain above cost but inside the hysteresis band must not adopt."""
    s = _skew_session(3)      # trips_left = 2
    config = MachineConfig(2, alpha=0.0, beta=1.0, flop=0.55)
    (p,) = propose_for_loop(s.ds, config, _only_loop(s))
    assert p.modeled_gain == pytest.approx(2.2)
    assert p.modeled_cost == pytest.approx(2.0)
    assert p.modeled_gain > p.modeled_cost
    assert not p.worthwhile   # 2.2 <= 1.25 * 2.0
    # and exactly at the crossover the strict inequality still declines
    config_edge = MachineConfig(2, alpha=0.0, beta=1.0, flop=0.625)
    (edge,) = propose_for_loop(s.ds, config_edge, _only_loop(s))
    assert edge.modeled_gain == pytest.approx(
        HYSTERESIS * edge.modeled_cost)
    assert not edge.worthwhile


def test_advisor_never_adapts_on_the_last_trip():
    """A 2-trip loop leaves one trip after the boundary — less than
    MIN_TRIPS_LEFT — so no proposal exists at any price."""
    assert MIN_TRIPS_LEFT == 2
    s = _skew_session(2)
    config = MachineConfig(2, alpha=0.0, beta=0.0, flop=1e9)
    assert propose_for_loop(s.ds, config, _only_loop(s)) == []
    # three trips (two left) is the first adaptable count
    s3 = _skew_session(3)
    assert propose_for_loop(s3.ds, config, _only_loop(s3)) != []


def test_advisor_skips_balanced_and_static_arrays():
    # uniform costs: BLOCK is already balanced, nothing to gain
    s = Session(2)
    pr = s.processors("PR", 2)
    x = s.array("X", 8, dynamic=True).distribute(Block(), to=pr)
    x.cost_profile(np.ones(8))
    x.data[:] = 0.0
    with s.loop(5):
        x[1:-1] = x[:-2] + x[2:]
    assert propose_for_loop(s.ds, MachineConfig(2), _only_loop(s)) == []
    # non-DYNAMIC array: the remap would be illegal, no proposal
    s2 = Session(2)
    pr2 = s2.processors("PR", 2)
    y = s2.array("Y", 8).distribute(Block(), to=pr2)
    y.cost_profile([0, 0, 0, 0, 1, 1, 1, 1])
    y.data[:] = 0.0
    with s2.loop(5):
        y[1:-1] = y[:-2] + y[2:]
    assert propose_for_loop(s2.ds, MachineConfig(2), _only_loop(s2)) == []


def test_advisor_skip_list_excludes_adapted_arrays():
    s = _skew_session(5)
    config = MachineConfig(2, alpha=0.0, beta=1.0, flop=1.0)
    assert propose_for_loop(s.ds, config, _only_loop(s),
                            skip={"X"}) == []


def test_cost_profile_validation():
    s = Session(2)
    s.processors("PR", 2)
    s.array("X", 8, dynamic=True)
    with pytest.raises(MappingError):
        s.ds.set_cost_profile("X", [])
    with pytest.raises(MappingError):
        s.ds.set_cost_profile("X", [[1.0, 2.0]])
    with pytest.raises(MappingError):
        s.ds.set_cost_profile("X", [1.0, -1.0])
    with pytest.raises(MappingError):
        s.ds.set_cost_profile("X", [1.0] * 5)   # extent mismatch
    s.ds.set_cost_profile("X", [1.0] * 8)
    assert s.ds.cost_profile("X").shape == (8,)
    assert s.ds.cost_profile("NOPE") is None


# ----------------------------------------------------------------------
# Cost-driven pass selection
# ----------------------------------------------------------------------
def _pass_graph(statements: int = 2):
    s = Session(2, machine=False)
    pr = s.processors("PR", 2)
    x = s.array("X", 8).distribute(Block(), to=pr)
    x.data[:] = 0.0
    for _ in range(statements):
        x[1:-1] = x[:-2] + x[2:]
    return s.lower()


def test_select_passes_core_always_on():
    passes, rationale = select_passes(_pass_graph(), MachineConfig(2))
    assert {"halo", "cse"} <= passes
    assert set(rationale) == {"halo", "cse", "coalesce", "subsume",
                              "hoist"}


def test_select_passes_coalesce_needs_alpha_and_width():
    free_msgs = MachineConfig(2, alpha=0.0)
    passes, rationale = select_passes(_pass_graph(), free_msgs)
    assert "coalesce" not in passes
    assert "alpha=0" in rationale["coalesce"]
    passes, rationale = select_passes(_pass_graph(1), MachineConfig(2))
    assert "coalesce" not in passes
    assert "single-statement" in rationale["coalesce"]
    passes, _ = select_passes(_pass_graph(2), MachineConfig(2))
    assert "coalesce" in passes


def test_select_passes_subsume_needs_beta_and_repeated_source():
    # the stencil statement reads X twice: repeated source present
    passes, _ = select_passes(_pass_graph(), MachineConfig(2))
    assert "subsume" in passes
    free_words = MachineConfig(2, beta=0.0)
    passes, rationale = select_passes(_pass_graph(), free_words)
    assert "subsume" not in passes
    assert "beta=0" in rationale["subsume"]
    # distinct sources only: nothing for subsumption to contain
    s = Session(2, machine=False)
    pr = s.processors("PR", 2)
    x = s.array("X", 8).distribute(Block(), to=pr)
    y = s.array("Y", 8).distribute(Block(), to=pr)
    x.data[:] = 0.0
    y.data[:] = 0.0
    x[1:-1] = y[:-2] + 1.0
    x[1:-1] = y[2:] * 2.0
    passes, rationale = select_passes(s.lower(), MachineConfig(2))
    assert "subsume" not in passes
    assert "no statement" in rationale["subsume"]


def test_select_passes_hoist_needs_hoistable_remap():
    passes, rationale = select_passes(_pass_graph(), MachineConfig(2))
    assert "hoist" not in passes
    s = Session(2)
    pr = s.processors("PR", 2)
    x = s.array("X", 8, dynamic=True).distribute(Block(), to=pr)
    x.data[:] = 0.0
    with s.loop(3):
        x.redistribute(GeneralBlock([5]), to=pr)
        x[1:-1] = x[:-2] + x[2:]
    passes, rationale = select_passes(s.lower(), MachineConfig(2))
    assert "hoist" in passes
    assert "loop-invariant" in rationale["hoist"]


def test_passes_for_accepts_auto():
    assert passes_for("auto") == passes_for(2)
    with pytest.raises(MachineError):
        passes_for("fastest")
    with pytest.raises(MachineError):
        passes_for(3)


# ----------------------------------------------------------------------
# The feedback gate and the tuner
# ----------------------------------------------------------------------
def test_tuner_feedback_gate_requires_observed_work():
    s = _skew_session(5)
    config = MachineConfig(2, alpha=0.0, beta=1.0, flop=1.0)
    machine = DistributedMachine(config)
    profile = WorkProfile(2)
    tuner = AutoTuner(s.ds, machine, config=config, profile=profile)
    decision = tuner.consider(_only_loop(s))
    assert decision is not None
    # nothing observed since the mark: the gate declines, no emit
    emitted = []
    assert tuner.apply(decision, emitted.append) == []
    assert emitted == []
    assert tuner.adaptations == []
    # observed work flips the gate
    profile.statements += 1
    profile.local_ops += np.array([0, 4], dtype=np.int64)
    applied = tuner.apply(decision, emitted.append)
    assert len(applied) == 1 and len(emitted) == 1
    assert applied[0].confirmed
    assert tuner.adapted == frozenset({"X"})


def test_tuner_without_profile_never_acts():
    s = _skew_session(5)
    config = MachineConfig(2, alpha=0.0, beta=1.0, flop=1.0)
    tuner = AutoTuner(s.ds, DistributedMachine(config), config=config,
                      profile=None)
    decision = tuner.consider(_only_loop(s))
    assert decision is not None and decision.mark is None
    assert tuner.apply(decision, lambda p: None) == []


def test_tuner_decides_once_per_static_loop():
    s = _skew_session(5)
    config = MachineConfig(2, alpha=0.0, beta=1.0, flop=1.0)
    tuner = AutoTuner(s.ds, DistributedMachine(config), config=config,
                      profile=WorkProfile(2))
    loop = _only_loop(s)
    assert tuner.consider(loop) is not None
    assert tuner.consider(loop) is None


# ----------------------------------------------------------------------
# RPR023: statically detectable load imbalance
# ----------------------------------------------------------------------
def test_rpr023_reported_for_imbalanced_profile():
    s = imbalanced_jacobi_session(64, 8, 12)
    codes = [d.code for d in s.check()]
    assert "RPR023" in codes
    finding = next(d for d in s.check() if d.code == "RPR023")
    assert "2.6" in finding.message            # modeled imbalance ratio
    assert "opt='auto'" in finding.message


def test_rpr023_silent_when_balanced_or_perf_off():
    s = imbalanced_jacobi_session(64, 8, 12)
    assert all(d.code != "RPR023" for d in s.check(perf=False))
    balanced = imbalanced_jacobi_session(64, 8, 12,
                                         costs=np.ones(64))
    assert all(d.code != "RPR023" for d in balanced.check())
    # no profile declared: nothing to reason from
    plain = imbalanced_jacobi_session(64, 8, 12)
    plain.ds.cost_profiles.clear()
    assert all(d.code != "RPR023" for d in plain.check())


# ----------------------------------------------------------------------
# End-to-end acceptance: the imbalanced Jacobi on P=8
# ----------------------------------------------------------------------
def _acceptance_sessions():
    auto = imbalanced_jacobi_session(64, 8, 12, exponent=2.0, opt="auto")
    static = imbalanced_jacobi_session(64, 8, 12, exponent=2.0, opt=2)
    return auto, static


def test_auto_adapts_exactly_once_and_improves():
    auto, static = _acceptance_sessions()
    result = auto.run()
    static_result = static.run()

    # exactly one REDISTRIBUTE, to a balanced GENERAL_BLOCK
    assert len(result.adaptations) == 1
    adaptation = result.adaptations[0]
    remaps = [p for p in result.schedule.steps
              if isinstance(p, RemapPlan)]
    assert len(remaps) == 1 and remaps[0].executed
    new_fmt = adaptation.proposal.formats[0]
    assert isinstance(new_fmt, GeneralBlock)
    assert new_fmt.bounds == tuple(balanced_bounds(
        power_law_costs(64, 2.0), 8, lower=1))
    assert auto.ds.distribution_of("X").formats[0] is new_fmt

    # modeled makespan improves by >= 25% over the static BLOCK layout
    assert adaptation.proposal.improvement >= 0.25

    # numerics bit-identical to the static run
    np.testing.assert_array_equal(auto.ds.arrays["X"].data,
                                  static.ds.arrays["X"].data)

    # report honesty: modeled economics beside what was charged
    assert adaptation.modeled_gain > HYSTERESIS * adaptation.modeled_cost
    assert adaptation.charged_words == adaptation.proposal.moved_words
    assert adaptation.charged_messages >= 1
    assert adaptation.confirmed
    # the static run never remaps
    assert static_result.adaptations == []
    assert all(not isinstance(p, RemapPlan)
               for p in static_result.schedule.steps)


def test_tune_reports_the_identical_proposal_without_executing():
    auto, _ = _acceptance_sessions()
    report = auto.tune()                 # non-consuming, report-only
    assert len(report.adoptions) == 1
    proposed = report.adoptions[0]
    assert auto.ds.distribution_of("X").formats[0].__class__ is Block
    assert len(s := auto.lower().nodes) == 1   # program still pending

    result = auto.run()
    assert len(result.adaptations) == 1
    acted = result.adaptations[0].proposal
    assert proposed.formats[0].bounds == acted.formats[0].bounds
    assert proposed.modeled_gain == pytest.approx(acted.modeled_gain)
    assert proposed.modeled_cost == pytest.approx(acted.modeled_cost)
    assert proposed.trip == acted.trip


def test_auto_matches_static_when_profile_is_balanced():
    auto = imbalanced_jacobi_session(48, 4, 6, costs=np.ones(48),
                                     opt="auto")
    static = imbalanced_jacobi_session(48, 4, 6, costs=np.ones(48),
                                       opt=2)
    ra, rs = auto.run(), static.run()
    assert ra.adaptations == []
    np.testing.assert_array_equal(auto.ds.arrays["X"].data,
                                  static.ds.arrays["X"].data)
    assert ra.machine.stats.total_words == rs.machine.stats.total_words


def test_auto_spmd_backend_bit_identical_to_simulate():
    from repro.machine.backend import Backend
    with imbalanced_jacobi_session(
            48, 4, 8, opt="auto",
            backend=Backend.spmd(mode="thread")) as spmd:
        r_spmd = spmd.run()
        sim = imbalanced_jacobi_session(48, 4, 8, opt="auto")
        r_sim = sim.run()
        assert len(r_spmd.adaptations) == len(r_sim.adaptations) == 1
        np.testing.assert_array_equal(spmd.ds.arrays["X"].data,
                                      sim.ds.arrays["X"].data)
        assert r_spmd.machine.stats.total_words == \
            r_sim.machine.stats.total_words
        assert r_spmd.machine.stats.total_messages == \
            r_sim.machine.stats.total_messages


def test_session_describe_and_properties():
    s = Session(2, opt="auto")
    assert s.auto and s.opt == "auto" and s.opt_level == 2
    assert "opt=auto" in s.describe()
    s2 = Session(2, opt=2)
    assert not s2.auto and s2.opt_level == 2
    assert "opt=-O2" in s2.describe()
    with pytest.raises(ValueError):
        Session(2, opt="fastest")


def test_tune_requires_machine():
    s = Session(2, machine=False)
    with pytest.raises(MachineError):
        s.tune()


# ----------------------------------------------------------------------
# Service integration: per-tenant adaptation counters
# ----------------------------------------------------------------------
def test_service_counts_adaptations_per_tenant():
    from repro.engine.planstore import PlanStore
    from repro.serve import SessionService

    with SessionService(plan_store=PlanStore()) as svc:
        adapting = imbalanced_jacobi_session(64, 8, 12, opt="auto",
                                             service=svc)
        static = imbalanced_jacobi_session(64, 8, 12, opt=2,
                                           service=svc)
        r1 = adapting.run()
        r2 = static.run()
        assert len(r1.adaptations) == 1 and r2.adaptations == []
        stats = svc.stats()
        counts = stats["adaptations"]
        assert sorted(counts) == ["tenant-0", "tenant-1"]
        assert counts["tenant-0"] == 1
        assert counts["tenant-1"] == 0
        adapting.close()
        static.close()


# ----------------------------------------------------------------------
# Differential leg: opt="auto" over the 50-seed random corpus
# ----------------------------------------------------------------------
def _corpus_session(case: dict, opt) -> Session:
    s = Session(case["p"], opt=opt,
                machine=MachineConfig(case["p"]))
    pr = s.processors("PR", case["p"])
    rng = np.random.default_rng(case["data_seed"])
    handles = {}
    for name, size, spec in case["arrays"]:
        h = s.array(name, size)
        if spec[0] == "aligned":
            h.align(handles["A"], lambda I, off=spec[1]: I + off)
        else:
            h.distribute(corpus._build_format(spec), to=pr)
        h.data[:] = rng.uniform(-8.0, 8.0, size=size)
        handles[name] = h
    return s


@pytest.mark.parametrize("seed", range(corpus.N_CASES))
def test_auto_differential_matches_static(seed):
    """Nothing in the corpus is adaptable (no DYNAMIC arrays, no cost
    profiles), so ``opt="auto"`` must degrade gracefully: numerics and
    charged words bit-identical to static -O2, and an honest (empty)
    adaptations report."""
    case = corpus._case(seed)
    stmt = corpus._statement(case)

    s_auto = _corpus_session(case, "auto")
    s_auto.record(stmt)
    r_auto = s_auto.run()

    s_static = _corpus_session(case, 2)
    s_static.record(stmt)
    r_static = s_static.run()

    assert r_auto.adaptations == []
    for name in s_static.ds.arrays:
        np.testing.assert_array_equal(
            s_auto.ds.arrays[name].data, s_static.ds.arrays[name].data,
            err_msg=f"seed {seed}: auto numerics diverge on {name}")
    # pass pruning may merge fewer messages, never move different words
    assert s_auto.machine.stats.total_words == \
        s_static.machine.stats.total_words
    assert r_auto.logical_words == r_static.logical_words
