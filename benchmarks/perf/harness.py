"""One slice of one workload, in a fresh process with an empty plan store.

``run.py`` starts this file as a subprocess once per slice and reads the
JSON it writes.  A slice measures set-up (from the moment the parent
spawned the interpreter), the cold first op, then steady samples, and
reports one value per end-to-end metric plus -- traced slices only --
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _hwm_mb(pid: int | str) -> float:
    """Peak resident set of a live process, from /proc."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def drift(walls: list) -> float:
    """|median(last fifth) - median(first fifth)| / median."""
    fifth = len(walls) // 5
    if fifth < 2:
        return 0.0
    return abs(statistics.median(walls[-fifth:])
               - statistics.median(walls[:fifth])) / statistics.median(walls)


def run_slice(args) -> dict:
    os.chdir(ROOT)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import layers
    import workloads
    from tracing import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    w = workloads.WORKLOADS[args.workload](args.seed, tracer, args.smoke)
    result: dict = {"workload": w.name, "seed": args.seed,
                    "traced": bool(args.trace)}
    try:
        w.setup()
        setup_s = time.time() - args.t0
        first_wall, first_ok = w.first_op()
        steady = w.steady(args.seconds)
        rss = _hwm_mb("self") + sum(_hwm_mb(p) for p in w.child_pids())
    finally:
        w.close()
    if tracer:
        tracer.uninstall()

    k = steady.ops_per_sample
    ok_ops = steady.attempted - steady.failed
    busy = steady.window or sum(steady.walls)
    kinds = sorted(steady.counts)
    counted = sum(steady.counts[k][3] for k in kinds) or 1
    words, msgs, modeled = (sum(steady.counts[k][i] for k in kinds) / counted
                            for i in range(3))
    # per-sample ratios against the interleaved NumPy reference; where the
    # ops differ in kind their ratios span decades, and the geometric mean
    # weighs every program alike (a ratio of totals is two programs' sizes)
    ratios = [a / b for a, b in zip(steady.walls, steady.ref_walls)]
    ratio = statistics.geometric_mean(ratios) if w.heterogeneous \
        else statistics.median(ratios)
    attempted = steady.attempted + k
    failed = steady.failed + (0 if first_ok else k)
    result.update({
        "attempted": attempted,
        "failed": failed,
        "samples": len(steady.walls),
        "notes": steady.notes[:10],
        "drift": 0.0 if w.heterogeneous else drift(steady.walls),
        "end_to_end": {
            "setup_s": setup_s,
            "first_op_s": first_wall,
            "op_ms": statistics.median(steady.walls) / k * 1e3,
            "ops_per_s": ok_ops / busy,
            "numpy_ratio": ratio,
            "peak_rss_mb": rss,
            "ok_share": 1.0 - failed / attempted,      # 1 - fail_share
            "charged_words_per_op": words,
            "charged_msgs_per_op": msgs,
            "modeled_time_per_op": modeled,
        },
    })
    if tracer:
        first = tracer.self_times(steady=False)
        result["per_layer"] = layers.layer_metrics(
            tracer, steady,
            first_loop_self=first.get("engine.spmd.loop", (0.0, 0))[0])
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"trace-{w.name}.json", "w") as fh:
            json.dump(tracer.dump(), fh)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=4.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--t0", type=float, default=None,
                    help="parent's time.time() just before the spawn")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    if args.t0 is None:
        args.t0 = time.time()
    result = run_slice(args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
