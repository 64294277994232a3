"""Benchmark regression diffing (the CI gate behind ``repro bench-diff``).

Compares two ``BENCH_core.json`` snapshots row-by-row (rows are matched
on ``name``) and fails when a *semantic* perf counter regresses.  Wall
times are noisy on shared CI runners, so they are reported but never
gated; the gated quantities are

* the **schedule-cache hit rate** each backend row carries — a drop
  means the compiled-schedule memoization stopped covering the steady
  state;
* the **optimizer words/messages reduction** the ``*_opt_O2`` rows
  carry relative to their ``-O0`` baselines — a drop means a pipeline
  pass (halo validity, CSE, coalescing) stopped firing on the Jacobi or
  multigrid loop, which is a real (and otherwise silent) performance
  regression;
* the **SPMD speedup over the simulator** the ``jacobi_spmd_*`` rows
  carry (``speedup_vs_simulate``).  This is the one wall-clock-derived
  gate: it is a ratio of two timings from the *same* run on the *same*
  runner, so machine speed cancels out of it, and it is what the fused
  per-peer transfer plans exist to win.  Dispatch rows (``backend:
  spmd``, ``replay: false``) measured on a multicore runner
  (``multicore: true`` — at least one core per worker) must meet the
  absolute :data:`SPEEDUP_TARGET`; every speedup row is
  additionally held to a generous relative non-regression bound against
  the baseline snapshot when both snapshots came from the same runner
  class.  Single-core runners (where the SPMD backend cannot physically
  beat the in-process simulator) skip the absolute target but keep the
  non-regression bound;
* the **replay path** (``jacobi_spmd_replay_*`` rows, ``replay: true``)
  on multicore runners must at least match the simulator
  (:data:`REPLAY_SPEEDUP_TARGET`) and beat the baseline snapshot's
  fused dispatch row by :data:`REPLAY_WALL_FACTOR` in wall clock;
* the **self-adaptive layout makespans** the
  ``jacobi_imbalanced_{static,auto,general}`` rows carry
  (:func:`diff_autotune_makespans`): ``opt="auto"``'s modeled
  steady-state makespan must never exceed static BLOCK's, must stay
  within :data:`AUTOTUNE_REL_TOLERANCE` of the hand-tuned
  GENERAL_BLOCK row, and the auto row must actually have adapted.

Gates whose runner preconditions are not met do not silently vanish:
:func:`render_diff` prints a "dormant gates" section naming each one.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

__all__ = ["load_rows", "diff_autotune_makespans", "diff_cache_hit_rates",
           "diff_opt_reductions", "diff_speedups", "render_diff"]

#: absolute slack allowed on a hit-rate drop before it counts as a
#: regression (hit rates are deterministic, the slack covers probes that
#: legitimately change their statement mix by one compile)
DEFAULT_TOLERANCE = 0.02

#: the fused SPMD backend must beat the simulated run by this factor at
#: the Jacobi steady state — enforced only on multicore runners, where
#: the workers actually have cores to run on
SPEEDUP_TARGET = 2.0

#: relative slack on the speedup non-regression bound (speedups are
#: ratios of same-run wall clocks, so runner speed cancels, but OS
#: scheduling jitter does not — the bound catches collapses, not drift)
SPEEDUP_REL_TOLERANCE = 0.5

#: the worker-resident replay path must at least match the simulator
#: (``speedup_vs_simulate >= 1.0``) on multicore runners — it removes
#: all steady-state coordinator traffic, so losing to the sequential
#: simulator means the replay machinery itself regressed
REPLAY_SPEEDUP_TARGET = 1.0

#: the replay row must beat the baseline snapshot's fused *dispatch*
#: row wall clock by this factor (same workload, same trip count) —
#: only enforced when both rows ran multicore, where replay's removed
#: per-trip round trips are actually on the critical path
REPLAY_WALL_FACTOR = 2.0

#: relative slack the auto row's modeled makespan gets against the
#: hand-tuned GENERAL_BLOCK row (both rows model the same deterministic
#: splitter, so the slack covers only future splitter refinements)
AUTOTUNE_REL_TOLERANCE = 0.05


def load_rows(path: str) -> dict[str, Mapping[str, Any]]:
    """Load a bench JSON file into a name -> row mapping (a duplicated
    name keeps the last row, matching how the table is read)."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = json.load(fh)
    return {str(row["name"]): row for row in rows}


def diff_cache_hit_rates(baseline: Mapping[str, Mapping[str, Any]],
                         candidate: Mapping[str, Mapping[str, Any]],
                         tolerance: float = DEFAULT_TOLERANCE
                         ) -> list[str]:
    """Regression messages for every gated row (empty = pass).

    A baseline row with a ``cache_hit_rate`` must exist in the candidate
    (silently dropping a gated probe would hide a regression) and its
    candidate rate must not fall more than ``tolerance`` below the
    baseline's.
    """
    problems: list[str] = []
    for name, base_row in sorted(baseline.items()):
        base_rate = base_row.get("cache_hit_rate")
        if base_rate is None:
            continue
        cand_row = candidate.get(name)
        if cand_row is None:
            problems.append(
                f"{name}: gated row missing from the candidate run")
            continue
        cand_rate = cand_row.get("cache_hit_rate")
        if cand_rate is None:
            problems.append(
                f"{name}: candidate row lost its cache_hit_rate field")
            continue
        if float(cand_rate) < float(base_rate) - tolerance:
            problems.append(
                f"{name}: schedule-cache hit rate regressed "
                f"{float(base_rate):.3f} -> {float(cand_rate):.3f} "
                f"(tolerance {tolerance})")
    return problems


#: fields the optimizer rows are gated on
_REDUCTION_FIELDS = ("words_reduction_vs_O0", "msgs_reduction_vs_O0")


def diff_opt_reductions(baseline: Mapping[str, Mapping[str, Any]],
                        candidate: Mapping[str, Mapping[str, Any]],
                        tolerance: float = DEFAULT_TOLERANCE
                        ) -> list[str]:
    """Regression messages for the optimizer-reduction rows (empty =
    pass).

    Every baseline row carrying a ``words_reduction_vs_O0`` (the
    ``*_opt_O2`` rows) must exist in the candidate and keep each of its
    reduction ratios within ``tolerance`` of the baseline's — the
    reductions are deterministic pass outcomes, not wall-clock noise.
    """
    problems: list[str] = []
    for name, base_row in sorted(baseline.items()):
        if _REDUCTION_FIELDS[0] not in base_row:
            continue
        cand_row = candidate.get(name)
        if cand_row is None:
            problems.append(
                f"{name}: optimizer-gated row missing from the candidate "
                "run")
            continue
        for field in _REDUCTION_FIELDS:
            base = base_row.get(field)
            if base is None:
                continue
            cand = cand_row.get(field)
            if cand is None:
                problems.append(
                    f"{name}: candidate row lost its {field} field")
                continue
            if float(cand) < float(base) - tolerance:
                problems.append(
                    f"{name}: {field} regressed "
                    f"{float(base):.3f} -> {float(cand):.3f} "
                    f"(tolerance {tolerance})")
    return problems


def diff_speedups(baseline: Mapping[str, Mapping[str, Any]],
                  candidate: Mapping[str, Mapping[str, Any]],
                  target: float = SPEEDUP_TARGET,
                  rel_tolerance: float = SPEEDUP_REL_TOLERANCE
                  ) -> list[str]:
    """Regression messages for the SPMD speedup rows (empty = pass).

    Two checks:

    * every baseline row carrying ``speedup_vs_simulate`` must survive
      into the candidate and, when both snapshots report the same
      ``multicore`` class (i.e. they are comparable runner-wise), must
      keep at least ``(1 - rel_tolerance)`` of the baseline speedup;
    * every *candidate* SPMD dispatch row (``backend: spmd``, not
      ``replay``) that ran on a multicore runner (``multicore: true``)
      must meet the absolute ``target`` — the paper-level claim that
      compiled per-peer plans make real parallel execution beat the cost
      simulator.
    """
    problems: list[str] = []
    for name, base_row in sorted(baseline.items()):
        base = base_row.get("speedup_vs_simulate")
        if base is None:
            continue
        cand_row = candidate.get(name)
        if cand_row is None:
            problems.append(
                f"{name}: speedup-gated row missing from the candidate "
                "run")
            continue
        cand = cand_row.get("speedup_vs_simulate")
        if cand is None:
            problems.append(
                f"{name}: candidate row lost its speedup_vs_simulate "
                "field")
            continue
        comparable = (base_row.get("multicore") is not None
                      and base_row.get("multicore")
                      == cand_row.get("multicore"))
        if comparable and float(cand) < float(base) * (1 - rel_tolerance):
            problems.append(
                f"{name}: speedup_vs_simulate regressed "
                f"{float(base):.3f}x -> {float(cand):.3f}x "
                f"(allowed {float(base) * (1 - rel_tolerance):.3f}x)")
    for name, cand_row in sorted(candidate.items()):
        cand = cand_row.get("speedup_vs_simulate")
        if cand is None or cand_row.get("backend") != "spmd" \
                or not cand_row.get("multicore"):
            continue
        if cand_row.get("replay"):
            # replay rows get their own (weaker absolute, but
            # additionally wall-gated) targets below
            continue
        if float(cand) < target:
            problems.append(
                f"{name}: fused SPMD speedup {float(cand):.3f}x is below "
                f"the {target}x target on a multicore runner")
    problems += _diff_replay(baseline, candidate)
    return problems


def _diff_replay(baseline: Mapping[str, Mapping[str, Any]],
                 candidate: Mapping[str, Mapping[str, Any]]) -> list[str]:
    """Gates specific to the ``jacobi_spmd_replay_*`` rows: on multicore
    runners the replay path must at least match the simulator
    (:data:`REPLAY_SPEEDUP_TARGET`) and must beat the baseline
    snapshot's fused dispatch row by :data:`REPLAY_WALL_FACTOR` in wall
    clock (same workload and trip count, so the ratio isolates the
    per-trip coordinator round trips replay removes)."""
    problems: list[str] = []
    for name, cand_row in sorted(candidate.items()):
        if not cand_row.get("replay"):
            continue
        cand = cand_row.get("speedup_vs_simulate")
        if cand is None or not cand_row.get("multicore"):
            continue
        if float(cand) < REPLAY_SPEEDUP_TARGET:
            problems.append(
                f"{name}: replay speedup {float(cand):.3f}x is below the "
                f"{REPLAY_SPEEDUP_TARGET}x target on a multicore runner")
        dispatch_name = name.replace("_replay", "")
        base_row = baseline.get(dispatch_name)
        if (base_row is None or not base_row.get("multicore")
                or not base_row.get("seconds")
                or not cand_row.get("seconds")):
            continue
        ratio = float(base_row["seconds"]) / float(cand_row["seconds"])
        if ratio < REPLAY_WALL_FACTOR:
            problems.append(
                f"{name}: replay wall clock is only {ratio:.2f}x faster "
                f"than the baseline dispatch row {dispatch_name} "
                f"(target {REPLAY_WALL_FACTOR}x)")
    return problems


def diff_autotune_makespans(baseline: Mapping[str, Mapping[str, Any]],
                            candidate: Mapping[str, Mapping[str, Any]],
                            rel_tolerance: float = AUTOTUNE_REL_TOLERANCE
                            ) -> list[str]:
    """Regression messages for the self-adaptive layout rows (empty =
    pass).

    The ``jacobi_imbalanced_{static,auto,general}`` rows model the
    steady-state per-trip makespan of the layout each run ended in.
    Gates (all on the *candidate* snapshot — the modeled makespans are
    deterministic, so no cross-snapshot wall-clock comparison is
    needed):

    * ``auto``'s modeled makespan never exceeds static BLOCK's — the
      tuner must never make the layout worse than doing nothing;
    * ``auto`` stays within ``rel_tolerance`` of the hand-tuned
      GENERAL_BLOCK row — adaptation must land (essentially) the layout
      a user would have hand-computed;
    * the ``auto`` row reports at least one adaptation — a tuner that
      silently stopped firing would otherwise pass both bounds by
      inheriting the static layout of a balanced run.

    Baseline rows carrying ``modeled_makespan`` must also survive into
    the candidate; when the baseline predates the autotune rows the
    cross-snapshot check is skipped (the candidate-internal gates still
    run).
    """
    problems: list[str] = []
    for name, base_row in sorted(baseline.items()):
        if "modeled_makespan" not in base_row:
            continue
        if name not in candidate:
            problems.append(
                f"{name}: autotune-gated row missing from the candidate "
                "run")
    rows = {name: row for name, row in candidate.items()
            if "modeled_makespan" in row}
    if not rows:
        return problems
    static = rows.get("jacobi_imbalanced_static")
    auto = rows.get("jacobi_imbalanced_auto")
    general = rows.get("jacobi_imbalanced_general")
    if static is None or auto is None or general is None:
        problems.append(
            "autotune rows are incomplete in the candidate run: need "
            "jacobi_imbalanced_{static,auto,general}, have "
            + ", ".join(sorted(rows)))
        return problems
    auto_ms = float(auto["modeled_makespan"])
    static_ms = float(static["modeled_makespan"])
    general_ms = float(general["modeled_makespan"])
    if auto_ms > static_ms:
        problems.append(
            f"jacobi_imbalanced_auto: modeled makespan {auto_ms:.3f} is "
            f"worse than the static BLOCK row's {static_ms:.3f} — the "
            "tuner degraded the layout")
    if auto_ms > general_ms * (1.0 + rel_tolerance):
        problems.append(
            f"jacobi_imbalanced_auto: modeled makespan {auto_ms:.3f} "
            f"misses the hand-tuned GENERAL_BLOCK row's {general_ms:.3f} "
            f"by more than {rel_tolerance:.0%}")
    if int(auto.get("adaptations", 0)) < 1:
        problems.append(
            "jacobi_imbalanced_auto: the tuner emitted no adaptation on "
            "the imbalanced workload")
    return problems


def render_diff(baseline: Mapping[str, Mapping[str, Any]],
                candidate: Mapping[str, Mapping[str, Any]],
                problems: Sequence[str]) -> str:
    """Human-readable comparison of the gated rows plus the verdict."""
    lines = ["bench-diff: schedule-cache hit rates "
             "(baseline -> candidate)"]
    for name, base_row in sorted(baseline.items()):
        if base_row.get("cache_hit_rate") is None:
            continue
        cand_row = candidate.get(name, {})
        cand = cand_row.get("cache_hit_rate")
        cand_s = f"{float(cand):.3f}" if cand is not None else "missing"
        lines.append(f"  {name}: {float(base_row['cache_hit_rate']):.3f}"
                     f" -> {cand_s}")
    opt_rows = [(name, row) for name, row in sorted(baseline.items())
                if _REDUCTION_FIELDS[0] in row]
    if opt_rows:
        lines.append("bench-diff: optimizer reductions vs -O0 "
                     "(baseline -> candidate)")
        for name, base_row in opt_rows:
            cand_row = candidate.get(name, {})
            for field in _REDUCTION_FIELDS:
                if field not in base_row:
                    continue
                cand = cand_row.get(field)
                cand_s = (f"{float(cand):.3f}" if cand is not None
                          else "missing")
                lines.append(
                    f"  {name}.{field}: "
                    f"{float(base_row[field]):.3f} -> {cand_s}")
    speedup_names = sorted(set(
        name for name, row in list(baseline.items())
        + list(candidate.items())
        if row.get("speedup_vs_simulate") is not None))
    if speedup_names:
        lines.append("bench-diff: SPMD speedup vs simulate "
                     "(baseline -> candidate)")
        for name in speedup_names:
            base = baseline.get(name, {}).get("speedup_vs_simulate")
            cand = candidate.get(name, {}).get("speedup_vs_simulate")
            base_s = f"{float(base):.3f}x" if base is not None else "-"
            cand_s = (f"{float(cand):.3f}x" if cand is not None
                      else "missing")
            flags = []
            row = candidate.get(name, {})
            if row.get("replay"):
                flags.append("replay")
            if row.get("multicore"):
                flags.append("multicore")
            suffix = f"  [{', '.join(flags)}]" if flags else ""
            lines.append(f"  {name}: {base_s} -> {cand_s}{suffix}")
    auto_names = sorted(set(
        name for name, row in list(baseline.items())
        + list(candidate.items())
        if "modeled_makespan" in row))
    if auto_names:
        lines.append("bench-diff: autotune modeled makespans "
                     "(baseline -> candidate)")
        for name in auto_names:
            base = baseline.get(name, {}).get("modeled_makespan")
            cand = candidate.get(name, {}).get("modeled_makespan")
            base_s = f"{float(base):.3f}" if base is not None else "-"
            cand_s = (f"{float(cand):.3f}" if cand is not None
                      else "missing")
            adapt = candidate.get(name, {}).get("adaptations")
            suffix = (f"  [{adapt} adaptation(s)]"
                      if adapt is not None else "")
            lines.append(f"  {name}: {base_s} -> {cand_s}{suffix}")
    dormant = _dormant_gates(candidate)
    if dormant:
        lines.append("bench-diff: dormant gates "
                     "(preconditions not met on this runner)")
        lines.extend(dormant)
    if problems:
        lines.append("REGRESSIONS:")
        lines.extend(f"  {p}" for p in problems)
    else:
        lines.append("no regressions in the gated counters")
    return "\n".join(lines)


def _dormant_gates(candidate: Mapping[str, Mapping[str, Any]]
                   ) -> list[str]:
    """Lines naming every speedup gate that exists but is *not* armed
    for this candidate run — a gate that silently skips looks exactly
    like a gate that passed, so the report says which is which."""
    out: list[str] = []
    for name, row in sorted(candidate.items()):
        if row.get("speedup_vs_simulate") is None or row.get("multicore"):
            continue
        if row.get("replay"):
            gate = (f"{REPLAY_SPEEDUP_TARGET}x replay speedup + "
                    f"{REPLAY_WALL_FACTOR}x wall vs dispatch")
        elif row.get("backend") == "spmd":
            gate = f"{SPEEDUP_TARGET}x fused speedup"
        else:
            continue
        cpus = row.get("cpu_count", "?")
        out.append(f"  {name}: {gate} gate dormant — multicore=false "
                   f"({cpus} cpu(s) for {row.get('workers')} workers)")
    return out
