#!/usr/bin/env python3
"""The repo's benchmark: six workloads, end-to-end and per-layer metrics.

    python3 benchmarks/perf/run.py                    # full untraced run
    python3 benchmarks/perf/run.py --traced           # + per-layer run
                                                      #   (same as --trace 1)
    python3 benchmarks/perf/run.py --workload jacobi_sim --seed 3 \\
            --seconds 12 --trace 0                    # one contract run
    python3 benchmarks/perf/run.py --smoke            # <= 25 s self-check
    python3 benchmarks/perf/run.py --compare A.json B.json

Every workload runs as slices, each in a fresh subprocess with an empty
plan store (:mod:`harness`), interleaved round-robin across workloads so
a noise burst lands on one slice of each.  A reported end-to-end value is
the median of the slice values; slices that disagree by more than the
metric's bound are printed ``noisy``.  Every timing is the wall that was
measured.  Per-layer values come from one traced slice per workload;
end-to-end values never do.  The exit code is non-zero if any op failed
its reference check.

With exactly one ``--workload`` the last line of standard output is the
result object the benchmark contract asks for.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

WORKLOADS = list(layers.EXERCISED)
SLICES = 3
SLICE_TIMEOUT = 50
#: deterministic per seed: compared exactly by --compare, never ``noisy``
COUNT_METRICS = ("ok_share", "charged_words_per_op", "charged_msgs_per_op",
                 "modeled_time_per_op")
DRIFT_LIMIT = 0.10


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_slice(workload: str, seed: int, seconds: float, *, trace: bool,
              smoke: bool = False) -> dict:
    """One slice in a fresh interpreter; a slice that dies is reported
    as one failed op so the run still ends with a verdict."""
    OUT.mkdir(exist_ok=True)
    fd, path = tempfile.mkstemp(suffix=".json", dir=OUT)
    os.close(fd)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "harness.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)), "--out", path,
           "--t0", repr(time.time())]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=SLICE_TIMEOUT,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.strip()[-2000:])
        with open(path) as fh:
            return json.load(fh)
    except (subprocess.TimeoutExpired, RuntimeError, ValueError) as exc:
        return {"workload": workload, "error": str(exc), "attempted": 1,
                "failed": 1, "end_to_end": {"ok_share": 0.0}}
    finally:
        os.unlink(path)


def spread(values: list) -> float:
    med = statistics.median(values)
    return (max(values) - min(values)) / med if med else 0.0


def summarise(spec: dict, slices: list[dict]) -> dict:
    """Medians over one workload's untraced slices."""
    good = [s for s in slices if "error" not in s]
    out = {"attempted": sum(s["attempted"] for s in slices),
           "failed": sum(s["failed"] for s in slices),
           "errors": [s["error"] for s in slices if "error" in s],
           "notes": [n for s in good for n in s["notes"]],
           "drift": [s["drift"] for s in good],
           "samples": [s["samples"] for s in good],
           "end_to_end": {}}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [s["end_to_end"][name] for s in slices
                  if name in s["end_to_end"]]
        if not values:
            continue
        out["end_to_end"][name] = {
            # a median would hide one failing slice of three
            "value": (min if name == "ok_share"
                      else statistics.median)(values),
            "unit": metric["unit"],
            "slices": values, "slice_spread": spread(values),
            "noisy": spread(values) > metric["bound"]
            and name not in COUNT_METRICS}
    return out


def add_traced(summary: dict, traced: dict) -> None:
    """Attach one traced slice's per-layer metrics, plus the three that
    need the untraced slices beside it."""
    if "error" in traced:
        summary["errors"].append(traced["error"])
        summary["attempted"] += 1
        summary["failed"] += 1
        return
    per_layer = dict(traced["per_layer"])
    op_ms = summary["end_to_end"].get("op_ms")
    per_layer["trace_overhead"] = (
        traced["end_to_end"]["op_ms"] / op_ms["value"] - 1.0
        if op_ms else 0.0)
    per_layer["slice_spread"] = op_ms["slice_spread"] if op_ms else 0.0
    per_layer["drift"] = max(summary["drift"] + [traced["drift"]])
    summary["per_layer"] = per_layer
    summary["attempted"] += traced["attempted"]
    summary["failed"] += traced["failed"]
    summary["notes"] += traced["notes"]


def measure(spec: dict, names: list[str], seed: int, seconds: float, *,
            traced: bool) -> dict:
    """Run ``SLICES`` untraced slices per workload round-robin (A B C A B
    C), then -- ``traced`` -- one traced slice each."""
    slices: dict[str, list] = {n: [] for n in names}
    for _ in range(SLICES):
        for name in names:
            slices[name].append(run_slice(name, seed, seconds, trace=False))
    results = {n: summarise(spec, slices[n]) for n in names}
    if traced:
        for name in names:
            add_traced(results[name],
                       run_slice(name, seed, seconds, trace=True))
    return results


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_results(results: dict) -> None:
    for name, res in results.items():
        share = res["failed"] / max(res["attempted"], 1)
        print(f"\n== {name}: {res['attempted']} ops attempted, "
              f"{res['failed']} failed (fail_share {share:.4f}), "
              f"samples per slice {res['samples']}")
        for err in res["errors"]:
            print(f"   SLICE ERROR: {err}")
        for note in res["notes"][:5]:
            print(f"   note: {note}")
        for metric, m in res["end_to_end"].items():
            flag = " noisy" if m["noisy"] else ""
            print(f"   {metric:24s} {m['value']:14.4f} {m['unit']:6s} "
                  f"slice_spread {m['slice_spread']:.3f}{flag}")
        drift = max(res["drift"], default=0.0)
        print(f"   {'drift':24s} {drift:14.4f} share "
              + ("  DRIFTING" if drift > DRIFT_LIMIT else ""))
        per_layer = res.get("per_layer")
        if per_layer:
            print("   -- per layer (one traced slice; *_us = self time "
                  "per op) --")
            for metric, value in per_layer.items():
                if value:
                    note = ""
                    if metric == "trace_overhead" and \
                            name == "serve_tenants":
                        note = ("  n/a: traced run serves from an "
                                "in-process thread")
                    print(f"   {metric:36s} {value:14.4f} "
                          f"{layers.PER_LAYER_UNITS[metric]}{note}")


def environment() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def contract_line(spec: dict, res: dict, trace: bool) -> str:
    """The result object of a single-workload run."""
    if trace:
        per_layer = res.get("per_layer", {})
        metrics = {m["name"]: {"value": per_layer[m["name"]],
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": res["end_to_end"][m["name"]]["value"],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return json.dumps({"correct": res["failed"] == 0,
                       "attempted": max(res["attempted"], 1),
                       "failed": res["failed"], "metrics": metrics})


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def compare(spec: dict, path_a: str, path_b: str) -> int:
    """Row per (metric, workload): B against A, by the bounds in
    BENCHMARK.json.  Counts must be identical; a timing row is
    ``unresolved`` when either side's slices disagree by more than the
    bound; a workload or metric A has and B lacks is ``worse``.  Non-zero
    exit on any ``worse`` row (a lower ``ok_share`` is a higher fail
    share)."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    if a.get("seed") != b.get("seed"):
        print(f"note: seeds differ ({a.get('seed')} vs {b.get('seed')}); "
              "the exact count rows only mean something for one seed")
    bad = 0
    print(f"{'workload':20s} {'metric':24s} {'A':>14s} {'B':>14s} "
          f"{'change':>8s}  verdict")
    for name, res_a in a["workloads"].items():
        e2e_b = b["workloads"].get(name, {}).get("end_to_end", {})
        for metric in spec["end_to_end"]:
            m = metric["name"]
            ma, mb = res_a["end_to_end"].get(m), e2e_b.get(m)
            if ma is None:
                continue
            if mb is None:
                bad += 1
                print(f"{name:20s} {m:24s} {ma['value']:14.4f} "
                      f"{'missing':>14s} {'':>8s}  worse")
                continue
            va, vb = ma["value"], mb["value"]
            change = (vb - va) / va if va else 0.0
            worse_by = change if metric["better"] == "lower" else -change
            if m in COUNT_METRICS:
                verdict = "same" if va == vb else (
                    "worse" if worse_by > 0 else "better")
            elif max(ma["slice_spread"], mb["slice_spread"]) \
                    > metric["bound"]:
                verdict = "unresolved"
            elif worse_by > metric["bound"]:
                verdict = "worse"
            elif worse_by < -metric["bound"]:
                verdict = "better"
            else:
                verdict = "same"
            bad += verdict == "worse"
            print(f"{name:20s} {m:24s} {va:14.4f} {vb:14.4f} "
                  f"{change:+8.1%}  {verdict}")
    print(f"\n{bad} row(s) worse")
    return 1 if bad else 0


# ----------------------------------------------------------------------
# --smoke
# ----------------------------------------------------------------------
def smoke(spec: dict, seed: int) -> int:
    """One ~2 s traced slice per workload; checks that every metric in
    BENCHMARK.json comes out with its unit, every reference check
    passes, and each layer metric is > 0 where the workload exercises
    the layer and == 0 where it bypasses it."""
    problems = []
    for name in WORKLOADS:
        res = run_slice(name, seed, 2.0, trace=True, smoke=True)
        if "error" in res:
            problems.append(f"{name}: slice died: {res['error']}")
            continue
        if res["failed"]:
            problems.append(f"{name}: {res['failed']} of "
                            f"{res['attempted']} ops failed {res['notes']}")
        for metric in spec["end_to_end"]:
            value = res["end_to_end"].get(metric["name"])
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(f"{name}: end-to-end {metric['name']} "
                                f"= {value!r}")
        per_layer = res["per_layer"]
        for metric in spec["per_layer"]:
            m = metric["name"]
            if m in ("trace_overhead", "slice_spread", "drift"):
                continue        # need untraced slices beside the traced
            if m not in per_layer:
                problems.append(f"{name}: per-layer {m} not emitted")
            elif metric["unit"] != layers.PER_LAYER_UNITS[m]:
                problems.append(f"{m}: unit {metric['unit']!r} in "
                                "BENCHMARK.json differs from the driver's")
        for m in layers.EXERCISED[name]:
            if not per_layer.get(m, 0) > 0:
                problems.append(f"{name}: {m} should be exercised, is "
                                f"{per_layer.get(m)!r}")
        for m in layers.BYPASSED[name]:
            if per_layer.get(m, 0) != 0:
                problems.append(f"{name}: {m} should be bypassed, is "
                                f"{per_layer.get(m)!r}")
        print(f"smoke {name}: {res['attempted']} ops, "
              f"{res['samples']} samples, "
              f"unattributed {per_layer['unattributed_share']:.3f}")
    for p in problems:
        print("SMOKE FAIL:", p)
    print("smoke:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


# ----------------------------------------------------------------------
def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="workload name (repeatable; default: all six)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="steady seconds of one run of a workload, split "
                    "over its slices (default: run_seconds of "
                    "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: one traced slice per workload after the "
                    "untraced ones, for the per-layer metrics")
    ap.add_argument("--traced", dest="trace", action="store_const", const=1,
                    help="the same as --trace 1")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--out", default=None, help="results JSON path "
                    "(default benchmarks/perf/out/results-seed<S>.json)")
    args = ap.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("benchmark: no program to measure (src/repro is missing)",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        return compare(spec, *args.compare)
    if args.smoke:
        return smoke(spec, args.seed)

    names = args.workload or WORKLOADS
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    results = measure(spec, names, args.seed, seconds / SLICES,
                      traced=bool(args.trace))
    print_results(results)

    OUT.mkdir(exist_ok=True)
    out_path = Path(args.out) if args.out else \
        OUT / f"results-seed{args.seed}.json"
    with open(out_path, "w") as fh:
        json.dump({"seed": args.seed, "seconds": seconds, "slices": SLICES,
                   "env": environment(), "workloads": results}, fh, indent=1)
    print(f"\nresults written to {out_path}")
    if len(names) == 1:
        print(contract_line(spec, results[names[0]], bool(args.trace)))
    return 1 if any(r["failed"] for r in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
