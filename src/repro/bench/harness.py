"""Result containers, table rendering, and the modelled-counts snapshot.

Besides the :class:`ExperimentResult` containers the experiments use,
this module hosts :func:`run_quick_bench` — the probes behind
``python -m repro bench``.  Every probe runs once and every field it
emits is a function of the program and the machine model alone (words,
messages, barriers, cache hit rates, classified patterns, modelled
times and makespans), so the rows regenerate byte for byte on any host
and ``tests/test_bench_snapshot.py`` holds them equal to the committed
``BENCH_core.json``.  Measured wall time is not recorded here; it lives
in ``benchmarks/perf``.

Pattern-attributed probes carry ``pattern``, ``time_p2p`` and
``time_collective``: the classified communication shape
(:mod:`repro.engine.lowering`) and the modeled elapsed time under the
point-to-point versus the lowered collective cost model for the same —
bit-identical — words matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

__all__ = ["ExperimentResult", "format_table", "run_quick_bench",
           "write_bench_json"]


def format_table(rows: Sequence[Mapping[str, Any]],
                 columns: Sequence[str] | None = None) -> str:
    """Plain-text table from a list of row dicts (stable column order)."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    str_rows = []
    for row in rows:
        str_rows.append([_fmt(row.get(c, "")) for c in columns])
    widths = [max(len(c), *(len(r[i]) for r in str_rows))
              for i, c in enumerate(columns)]
    head = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    sep = "  ".join("-" * w for w in widths)
    body = "\n".join("  ".join(v.ljust(w) for v, w in zip(r, widths))
                     for r in str_rows)
    return f"{head}\n{sep}\n{body}"


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    if isinstance(v, bool):
        return "yes" if v else "no"
    return str(v)


@dataclass
class ExperimentResult:
    """The output of one experiment run."""

    experiment: str
    title: str
    #: the table the paper artifact corresponds to
    rows: list[dict] = field(default_factory=list)
    #: one-line statement of what the paper claims and what we measured
    headline: str = ""
    #: free-form notes (substitutions, deviations)
    notes: list[str] = field(default_factory=list)
    #: machine-checkable claims (name -> bool), asserted by the benches
    checks: dict[str, bool] = field(default_factory=dict)

    def render(self) -> str:
        out = [f"== {self.experiment}: {self.title} =="]
        if self.headline:
            out.append(self.headline)
        out.append(format_table(self.rows))
        for note in self.notes:
            out.append(f"note: {note}")
        if self.checks:
            out.append("checks: " + ", ".join(
                f"{k}={'PASS' if v else 'FAIL'}"
                for k, v in self.checks.items()))
        return "\n".join(out)

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())


# ----------------------------------------------------------------------
# The modelled-counts snapshot (``python -m repro bench``)
# ----------------------------------------------------------------------
#: the one problem size the committed snapshot is taken at
_N = 50_000
#: machine width of the pattern probes
_PATTERN_P = 16
#: side of the N x N Jacobi grids (~_N elements)
_SIDE = int(_N ** 0.5)


def run_quick_bench() -> list[dict]:
    """Run every probe once; returns one row dict per probe.

    Rows, in order: the three pattern-attributed probes
    (:func:`_pattern_rows`), the iterated Jacobi workload per execution
    backend at two machine widths (:func:`_backend_rows`), the
    optimizer-pipeline rows at ``-O0``/``-O2`` (:func:`_opt_rows`), the
    cross-session serving probe (:func:`_serve_rows`) and the
    self-adaptive layout rows (:func:`_autotune_rows`).  A new row must
    be deterministic: no wall time, no host property.
    """
    return (_pattern_rows() + _backend_rows() + _opt_rows()
            + _serve_rows() + _autotune_rows())


def _hit_rate(hits: int, misses: int) -> float:
    return round(hits / max(hits + misses, 1), 4)


#: (machine width, processor grid) pairs the backend probes run at
_BACKEND_GRIDS = ((2, (2, 1)), (4, (2, 2)))
#: Jacobi sweeps per backend run (iterations 2..N are cache hits)
_BACKEND_ITERS = 6


def _backend_rows() -> list[dict]:
    """The iterated Jacobi workload per execution backend: the simulated
    cost oracle versus the parallel SPMD backend (per-window dispatch
    and the worker-resident replay path) at two worker counts — same
    statements, same compiled schedules, so the same words; the rows
    record what differs (barriers, schedule-cache hit rate)."""
    from repro.engine.assignment import Assignment
    from repro.engine.expr import ArrayRef
    from repro.fortran.triplet import Triplet
    from repro.machine.backend import Backend, make_executor
    from repro.machine.config import MachineConfig
    from repro.machine.simulator import DistributedMachine
    from repro.workloads.stencil import jacobi_case

    inner = Triplet(2, _SIDE - 1)
    copy_back = Assignment(ArrayRef("X", (inner, inner)),
                           ArrayRef("XNEW", (inner, inner)))

    def run(spec, p: int, grid: tuple[int, int], replay: bool = False):
        case = jacobi_case(_SIDE, *grid)
        ex = make_executor(case.ds, DistributedMachine(MachineConfig(p)),
                           spec)
        stmts = [case.statement, copy_back]
        try:
            # one uncounted warm-up sweep through the SAME call shape as
            # the counted loop: it compiles the fusion windows the
            # steady state then re-uses, so cache_hit_rate reports the
            # steady state and not a differently-shaped first batch
            if replay:
                ex.execute_loop(stmts, 1)
                reports = ex.execute_loop(stmts, _BACKEND_ITERS)
            else:
                ex.execute_all(stmts)
                reports = [r for _ in range(_BACKEND_ITERS)
                           for r in ex.execute_all(stmts)]
        finally:
            if hasattr(ex, "close"):
                ex.close()
        cache = case.ds.schedule_cache
        return (sum(r.total_words for r in reports),
                sum(r.barrier_count for r in reports),
                _hit_rate(cache.hits, cache.misses))

    rows: list[dict] = []
    for p, grid in _BACKEND_GRIDS:
        words, _, hit_rate = run(Backend.simulate(), p, grid)
        rows.append({
            "name": f"jacobi_simulate_p{p}_s{_N}", "size": _SIDE * _SIDE,
            "words_moved": int(words), "backend": "simulate",
            "workers": p, "cache_hit_rate": hit_rate})
        for suffix, replay in (("", False), ("_replay", True)):
            words, barriers, hit_rate = run(
                Backend.spmd(replay=replay), p, grid, replay=replay)
            rows.append({
                "name": f"jacobi_spmd{suffix}_p{p}_s{_N}",
                "size": _SIDE * _SIDE, "words_moved": int(words),
                "backend": "spmd", "workers": p, "replay": replay,
                "barriers": int(barriers), "cache_hit_rate": hit_rate})
    return rows


#: the optimizer benchmark machine: 8 processors as a (4, 2) grid (the
#: configuration the words/messages-reduction acceptance numbers quote)
_OPT_GRID = (4, 2)
_OPT_P = _OPT_GRID[0] * _OPT_GRID[1]
_OPT_JACOBI_ITERS = 10
_OPT_MG_CYCLES = 2


def _opt_rows() -> list[dict]:
    """Optimizer-pipeline rows: the 10-iteration Jacobi-with-residual
    loop and the two-level multigrid V-cycle executed through the
    program-level IR at ``-O0`` and ``-O2`` (P = 8).  Rows carry the
    physically charged words/messages and the schedule-cache hit rate;
    the ``-O2`` rows add ``words_reduction_vs_O0`` /
    ``msgs_reduction_vs_O0``."""
    from repro.machine.config import MachineConfig
    from repro.workloads.multigrid import multigrid_session
    from repro.workloads.stencil import jacobi_session

    side = _SIDE + _SIDE % 2            # multigrid needs an even extent

    def build_jacobi(level):
        return jacobi_session(side, *_OPT_GRID, iters=_OPT_JACOBI_ITERS,
                              machine=MachineConfig(_OPT_P), opt=level)

    def build_multigrid(level):
        return multigrid_session(side, *_OPT_GRID, cycles=_OPT_MG_CYCLES,
                                 machine=MachineConfig(_OPT_P), opt=level)

    rows: list[dict] = []
    for name, build in (("jacobi_opt", build_jacobi),
                        ("multigrid_opt", build_multigrid)):
        base_words = base_msgs = 0
        for level in (0, 2):
            session = build(level)
            session.run()
            cache = session.ds.schedule_cache
            words = int(session.stats.total_words)
            msgs = int(session.stats.total_messages)
            row = {"name": f"{name}_O{level}", "size": side * side,
                   "words_moved": words, "messages": msgs,
                   "opt_level": level, "workers": _OPT_P,
                   "cache_hit_rate": _hit_rate(cache.hits, cache.misses)}
            if level == 0:
                base_words, base_msgs = words, msgs
            else:
                row["words_reduction_vs_O0"] = round(
                    1.0 - words / base_words, 4)
                row["msgs_reduction_vs_O0"] = round(
                    1.0 - msgs / base_msgs, 4)
            rows.append(row)
    return rows


#: tenants in the cross-session serving probe (1 warms, the rest adopt)
_SERVE_TENANTS = 4


def _serve_rows() -> list[dict]:
    """The cross-session serving probe: ``_SERVE_TENANTS`` independent
    sessions run the same ``-O2`` Jacobi through one
    :class:`~repro.serve.SessionService` with a fresh plan store.  The
    row's ``cache_hit_rate`` is the fraction of plan-store requests
    tenants 2..N answered from the plans tenant 1 compiled — the
    serving metric; 1.0 means the warm tenants compiled nothing."""
    from repro.machine.config import MachineConfig
    from repro.serve import PlanStore, SessionService
    from repro.workloads.stencil import jacobi_session

    with SessionService(plan_store=PlanStore()) as svc:
        def tenant() -> None:
            session = jacobi_session(
                _SIDE, *_OPT_GRID, iters=_OPT_JACOBI_ITERS,
                machine=MachineConfig(_OPT_P), opt=2, service=svc)
            session.run()
            session.close()

        tenant()
        before = svc.store.stats()
        for _ in range(_SERVE_TENANTS - 1):
            tenant()
        after = svc.store.stats()
    return [{"name": "serve_cross_session_O2", "size": _SIDE * _SIDE,
             "words_moved": 0, "workers": _OPT_P,
             "sessions": _SERVE_TENANTS,
             "cache_hit_rate": _hit_rate(
                 after["hits"] - before["hits"],
                 after["misses"] - before["misses"])}]


#: the autotune probe workload: the power-law-imbalanced Jacobi the
#: acceptance scenario quotes (N x N rows, P processors, ITERS trips)
_AUTOTUNE_N = 64
_AUTOTUNE_P = 8
_AUTOTUNE_ITERS = 12


def _autotune_rows() -> list[dict]:
    """Self-adaptive layout rows: the power-law-imbalanced Jacobi run
    three ways — static BLOCK at ``-O2``, ``opt="auto"`` (the session
    adapts itself), and the hand-tuned balanced GENERAL_BLOCK layout.
    Each row carries ``modeled_makespan``, the steady-state per-trip
    compute makespan (``flop * max weighted work``) of the layout the
    run *ended* in, plus ``adaptations``, how many REDISTRIBUTEs the
    tuner emitted.  ``tests/test_bench_snapshot.py`` holds that auto
    lands on the hand-tuned makespan, well under static BLOCK's, with
    exactly one adaptation."""
    from repro.autotune import imbalance, modeled_work
    from repro.distributions.base import Collapsed
    from repro.distributions.general_block import GeneralBlock
    from repro.machine.config import MachineConfig
    from repro.workloads.irregular import (
        imbalanced_jacobi_session,
        power_law_costs,
    )

    n, p, iters = _AUTOTUNE_N, _AUTOTUNE_P, _AUTOTUNE_ITERS
    costs = power_law_costs(n, 2.0)
    flop = MachineConfig(p).flop
    hand_tuned = (GeneralBlock.balanced_for_costs(costs, p), Collapsed())

    rows: list[dict] = []
    for suffix, opt, fmts in (("static", 2, None),
                              ("auto", "auto", None),
                              ("general", 2, hand_tuned)):
        session = imbalanced_jacobi_session(n, p, iters, exponent=2.0,
                                            opt=opt, fmts=fmts)
        result = session.run()
        work = modeled_work(session.ds.distribution_of("X"), costs, p)
        rows.append({
            "name": f"jacobi_imbalanced_{suffix}", "size": n * n,
            "words_moved": int(session.stats.total_words),
            "workers": p, "opt": str(opt),
            "adaptations": len(result.adaptations),
            "modeled_makespan": round(flop * float(work.max()), 4),
            "imbalance": round(imbalance(work), 4)})
    return rows


def _pattern_rows() -> list[dict]:
    """Pattern-attributed probes: the same words matrices priced under
    the point-to-point model versus their lowered collective formula."""
    from repro.core.dataspace import DataSpace
    from repro.distributions.block import Block
    from repro.distributions.cyclic import Cyclic
    from repro.distributions.replicated import ReplicatedFormat
    from repro.engine.assignment import Assignment
    from repro.engine.executor import SimulatedExecutor
    from repro.engine.expr import ArrayRef
    from repro.engine.lowering import p2p_time
    from repro.engine.redistribute import (
        charge_remap,
        price_remap,
        remap_lowering,
    )
    from repro.fortran.triplet import Triplet
    from repro.machine.config import MachineConfig
    from repro.machine.simulator import DistributedMachine

    n, p = _N, _PATTERN_P
    config = MachineConfig(p)
    rows: list[dict] = []

    def add(name: str, size: int, words: np.int64 | int, pattern: str,
            t_p2p: float, t_coll: float) -> None:
        rows.append({"name": name, "size": size,
                     "words_moved": int(words), "pattern": pattern,
                     "time_p2p": round(t_p2p, 3),
                     "time_collective": round(t_coll, 3)})

    def remap_probe(name: str, formats, n_elems: int) -> None:
        ds = DataSpace(p)
        ds.processors("PR", p)
        ds.declare("X", n_elems, dynamic=True)
        ds.distribute("X", [Block()], to="PR")
        event = ds.redistribute("X", formats, to="PR")
        matrix, _ = price_remap(event, p)
        lowering = remap_lowering(event, matrix)
        machine = DistributedMachine(config)
        charge_remap(machine, event)
        add(name, n_elems, matrix.sum() - np.trace(matrix),
            lowering.pattern.value, p2p_time(config, matrix),
            machine.elapsed)

    # dense remap (BLOCK -> CYCLIC): lowered to an alltoall exchange
    remap_probe("remap_alltoall_block_to_cyclic", [Cyclic()], n)
    # replication remap (BLOCK -> REPLICATED, the *-subscript shape):
    # lowered to an allgather tree; size-capped because exact replicated
    # pricing walks per-element owner sets
    remap_probe("remap_allgather_replicate", [ReplicatedFormat()], 20_000)

    # shift stencil statement: charged as one concurrent exchange round
    ds = DataSpace(p)
    ds.processors("PR", p)
    ds.declare("A", n)
    ds.declare("B", n)
    ds.distribute("A", [Block()], to="PR")
    ds.distribute("B", [Block()], to="PR")
    stmt = Assignment(ArrayRef("A", (Triplet(2, n),)),
                      ArrayRef("B", (Triplet(1, n - 1),)))
    machine = DistributedMachine(config)
    report = SimulatedExecutor(ds, machine).execute(stmt)
    add("statement_shift_stencil", n, report.total_words,
        report.patterns[str(stmt.rhs)], p2p_time(config, report.words),
        sum(machine.stats.pattern_time.values()))
    return rows


def write_bench_json(rows: Sequence[Mapping[str, Any]], path: str) -> None:
    """Write benchmark rows to ``path`` (the committed snapshot)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(list(rows), fh, indent=2)
        fh.write("\n")
