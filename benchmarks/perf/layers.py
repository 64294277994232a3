"""Per-layer metrics: how each is derived from a traced slice, and which
workloads exercise or bypass it.

Layers are the repo's modules.  ``*_us`` metrics are *self* time per op
in microseconds (span duration minus child spans, :mod:`tracing`); the
others are counts per op (or per slice where said).  ``EXERCISED`` /
``BYPASSED`` are the predictions ``--smoke`` checks in both directions:
a metric listed as exercised must be > 0 on that workload, one listed as
bypassed must be exactly 0.
"""

from __future__ import annotations

import statistics

__all__ = ["BYPASSED", "EXERCISED", "PER_LAYER_UNITS", "layer_metrics"]

#: every per-layer metric and its unit, in report order
PER_LAYER_UNITS = {
    "api.record_us": "us", "api.lower_us": "us", "api.nodes": "count",
    "directives.parse_us": "us", "directives.analyze_us": "us",
    "directives.lines": "count",
    "core.spec_us": "us", "core.redistribute_us": "us",
    "core.schedule_cache.lookup_us": "us",
    "core.schedule_cache.hits": "count",
    "core.schedule_cache.misses": "count",
    "core.schedule_cache.evictions": "count",
    "distributions.owner_map_us": "us",
    "distributions.owner_map_calls": "count",
    "distributions.construct_us": "us",
    "align.image_us": "us", "align.image_calls": "count",
    "engine.schedule.compile_us": "us", "engine.schedule.compiles": "count",
    "engine.schedule.adopt_us": "us", "engine.schedule.adopts": "count",
    "engine.commsets.analytic_us": "us", "engine.commsets.oracle_us": "us",
    "engine.commsets.analytic_calls": "count",
    "engine.commsets.oracle_calls": "count",
    "engine.commsets.fallbacks": "count",
    "engine.lowering.classify_us": "us",
    "engine.lowering.classify_calls": "count",
    "engine.planstore.key_us": "us", "engine.planstore.hits": "count",
    "engine.planstore.misses": "count",
    "engine.planstore.evictions": "count",
    "engine.reference.numerics_us": "us",
    "engine.executor.charge_us": "us",
    "engine.executor.statements": "count",
    "engine.passes.runner_self_us": "us", "engine.passes.static_us": "us",
    "engine.passes.deposit_us": "us", "engine.passes.deposits": "count",
    "engine.passes.skip_share": "share",
    "engine.passes.fused_windows": "count",
    "engine.spmd.pool_start_s": "s", "engine.spmd.gather_us": "us",
    "engine.spmd.write_us": "us", "engine.spmd.sync_us": "us",
    "engine.spmd.dispatches_per_op": "count",
    "engine.spmd.replays": "count",
    "engine.spmd.barriers_per_op": "count",
    "engine.spmd.pool_restarts": "count",
    "engine.redistribute.price_us": "us",
    "engine.redistribute.charge_us": "us",
    "engine.redistribute.replicate_us": "us",
    "engine.redistribute.events": "count",
    "machine.charge_us": "us", "machine.ledger_entries_per_op": "count",
    "serve.queue_wait_us": "us", "serve.handle_us": "us",
    "serve.wire_us": "us", "serve.latency_p95_ms": "ms",
    "serve.timeouts": "count", "serve.restarts": "count",
    "serve.rejected": "count", "serve.request_hit_share": "share",
    "trace_overhead": "share", "unattributed_share": "share",
    "slice_spread": "share", "drift": "share",
}

_SESSION = ("jacobi_sim", "jacobi_spmd", "multigrid_small",
            "remap_phase_change")
_PROGRAM = ("compile_cold_mix", "serve_tenants")
_ALL = _SESSION + _PROGRAM
_SPMD = ("engine.spmd.gather_us", "engine.spmd.write_us",
         "engine.spmd.replays", "engine.spmd.barriers_per_op")
_REMAP = ("engine.redistribute.price_us", "engine.redistribute.charge_us",
          "engine.redistribute.replicate_us", "engine.redistribute.events",
          "core.redistribute_us")
_SERVE = ("serve.queue_wait_us", "serve.handle_us", "serve.wire_us",
          "serve.latency_p95_ms", "serve.request_hit_share")


def _table(spec: dict) -> dict:
    out: dict[str, set] = {w: set() for w in _ALL}
    for metrics, workloads in spec.items():
        for w in workloads:
            out[w].update(metrics)
    return out


#: workload -> per-layer metrics its steady ops must show (> 0)
EXERCISED = _table({
    ("api.record_us",): _SESSION,
    # both front ends hand their IR over through ProgramBuilder.take
    ("api.lower_us", "api.nodes"): _ALL,
    ("directives.parse_us", "directives.analyze_us", "directives.lines",
     "core.spec_us"): _PROGRAM,
    ("core.schedule_cache.lookup_us", "engine.executor.charge_us",
     "engine.executor.statements", "engine.passes.runner_self_us",
     "engine.passes.deposit_us", "engine.passes.deposits",
     "machine.charge_us"): _ALL,
    # a service reply carries no ledger
    ("machine.ledger_entries_per_op",): _SESSION + ("compile_cold_mix",),
    # -O2 coalescing re-classifies each fused window it flushes
    ("engine.lowering.classify_us", "engine.lowering.classify_calls"): _ALL,
    ("core.schedule_cache.hits",): _SESSION + ("serve_tenants",),
    ("core.schedule_cache.misses",): _PROGRAM + ("remap_phase_change",),
    ("distributions.owner_map_us", "distributions.owner_map_calls"):
        _PROGRAM + ("remap_phase_change",),
    ("distributions.construct_us", "align.image_us", "align.image_calls",
     "engine.schedule.compile_us", "engine.schedule.compiles",
     "engine.commsets.analytic_us", "engine.commsets.analytic_calls",
     "engine.commsets.oracle_us", "engine.commsets.oracle_calls",
     "engine.planstore.misses"): ("compile_cold_mix",),
    ("engine.schedule.adopt_us", "engine.schedule.adopts",
     "engine.planstore.key_us", "engine.planstore.hits"):
        ("remap_phase_change", "serve_tenants"),
    ("engine.reference.numerics_us",):
        ("jacobi_sim", "multigrid_small", "remap_phase_change") + _PROGRAM,
    ("engine.passes.skip_share", "engine.passes.fused_windows"):
        ("jacobi_sim", "jacobi_spmd", "multigrid_small"),
    _SPMD: ("jacobi_spmd",),
    _REMAP: ("remap_phase_change",),
    _SERVE: ("serve_tenants",),
})

#: workload -> per-layer metrics its steady ops must not touch (== 0)
BYPASSED = _table({
    ("directives.parse_us", "directives.analyze_us", "directives.lines"):
        _SESSION,
    ("api.record_us",): _PROGRAM,
    _REMAP: tuple(w for w in _ALL if w != "remap_phase_change"),
    _SPMD + ("engine.spmd.sync_us", "engine.spmd.pool_start_s",
             "engine.spmd.dispatches_per_op", "engine.spmd.pool_restarts"):
        tuple(w for w in _ALL if w != "jacobi_spmd"),
    ("engine.spmd.dispatches_per_op", "engine.spmd.pool_restarts",
     "engine.reference.numerics_us"): ("jacobi_spmd",),
    _SERVE + ("serve.timeouts", "serve.restarts", "serve.rejected"):
        tuple(w for w in _ALL if w != "serve_tenants"),
    ("serve.timeouts", "serve.restarts", "serve.rejected",
     "engine.planstore.misses", "engine.schedule.compiles"):
        ("serve_tenants",),
    # steady Jacobi / multigrid: every schedule is a scope-cache hit
    ("core.schedule_cache.misses", "engine.schedule.compiles",
     "engine.schedule.compile_us", "engine.schedule.adopts",
     "engine.schedule.adopt_us", "engine.planstore.key_us",
     "engine.planstore.hits", "engine.planstore.misses",
     "engine.commsets.analytic_calls", "engine.commsets.oracle_calls",
     "distributions.owner_map_calls",
     "distributions.construct_us", "align.image_calls", "core.spec_us"):
        ("jacobi_sim", "jacobi_spmd", "multigrid_small"),
    ("core.schedule_cache.evictions", "engine.planstore.evictions",
     "engine.commsets.fallbacks"):
        _SESSION + ("serve_tenants",),
})


def layer_metrics(tracer, steady, *, first_loop_self: float = 0.0) -> dict:
    """Every per-layer metric of one traced slice except the three the
    parent adds (``trace_overhead``, ``slice_spread``, ``drift``)."""
    ops = max(len(steady.walls) * steady.ops_per_sample, 1)
    selfs = tracer.self_times()
    extra = steady.layer

    def us(*names: str) -> float:
        return sum(selfs.get(n, (0.0, 0))[0] for n in names) / ops * 1e6

    def calls(*names: str) -> float:
        return sum(selfs.get(n, (0.0, 0))[1] for n in names) / ops

    def count(key: str) -> float:
        return tracer.counts.get(key, 0) / ops

    cache = extra.get("cache", (0, 0, 0))
    store = extra.get("store", (0, 0, 0))
    logical = extra.get("logical_words", 0)
    gather = extra.get("gather_s", 0.0) / ops * 1e6
    write = extra.get("write_s", 0.0) / ops * 1e6
    loop_self = us("engine.spmd.loop")
    loops = selfs.get("engine.spmd.loop", (0.0, 0))
    out = {
        "api.record_us": us("api.record"),
        "api.lower_us": us("api.lower"),
        "api.nodes": count("api.nodes"),
        "directives.parse_us": us("directives.parse"),
        "directives.analyze_us": us("directives.analyze"),
        "directives.lines": count("directives.lines"),
        "core.spec_us": us("core.spec"),
        "core.redistribute_us": us("core.redistribute"),
        "core.schedule_cache.lookup_us": us("core.schedule_cache.lookup"),
        "core.schedule_cache.hits":
            cache[0] / ops + count("core.schedule_cache.hits"),
        "core.schedule_cache.misses":
            cache[1] / ops + count("core.schedule_cache.misses"),
        "core.schedule_cache.evictions":
            cache[2] / ops + count("core.schedule_cache.evictions"),
        "distributions.owner_map_us": us("distributions.owner_map"),
        "distributions.owner_map_calls": calls("distributions.owner_map"),
        "distributions.construct_us": us("distributions.construct"),
        "align.image_us": us("align.image"),
        "align.image_calls": calls("align.image"),
        "engine.schedule.compile_us": us("engine.schedule.compile"),
        "engine.schedule.compiles": count("engine.schedule.compiles"),
        "engine.schedule.adopt_us": us("engine.schedule.adopt"),
        "engine.schedule.adopts": count("engine.schedule.adopts"),
        "engine.commsets.analytic_us": us("engine.commsets.analytic"),
        "engine.commsets.oracle_us": us("engine.commsets.oracle"),
        "engine.commsets.analytic_calls": calls("engine.commsets.analytic"),
        "engine.commsets.oracle_calls": calls("engine.commsets.oracle"),
        "engine.commsets.fallbacks": count("engine.commsets.fallbacks"),
        "engine.lowering.classify_us": us("engine.lowering.classify"),
        "engine.lowering.classify_calls": calls("engine.lowering.classify"),
        "engine.planstore.key_us": us("engine.planstore.key"),
        "engine.planstore.hits": store[0] / ops,
        "engine.planstore.misses": store[1] / ops,
        "engine.planstore.evictions": store[2] / ops,
        "engine.reference.numerics_us": us("engine.reference.numerics"),
        "engine.executor.charge_us": us("engine.executor.charge"),
        "engine.executor.statements": extra.get("statements", 0) / ops,
        "engine.passes.runner_self_us": us("engine.passes.runner"),
        "engine.passes.static_us": us("engine.passes.static"),
        "engine.passes.deposit_us": us("engine.passes.deposit"),
        "engine.passes.deposits": calls("engine.passes.deposit"),
        "engine.passes.skip_share":
            1.0 - extra.get("charged_words", 0) / logical
            if logical else 0.0,
        "engine.passes.fused_windows": extra.get("fused_windows", 0) / ops,
        # the cold loop's self time beyond a steady loop's: the fork
        "engine.spmd.pool_start_s": max(
            first_loop_self - (loops[0] / loops[1] if loops[1] else 0.0),
            0.0) if loops[1] else 0.0,
        "engine.spmd.gather_us": gather,
        "engine.spmd.write_us": write,
        # what the coordinator waits beyond the workers' own phases
        "engine.spmd.sync_us": max(loop_self - gather - write, 0.0),
        "engine.spmd.dispatches_per_op": count("engine.spmd.dispatches"),
        "engine.spmd.replays": tracer.counts.get("engine.spmd.replays", 0),
        "engine.spmd.barriers_per_op": extra.get("barriers", 0) / ops,
        "engine.spmd.pool_restarts":
            selfs.get("engine.spmd.close", (0.0, 0))[1],
        "engine.redistribute.price_us": us("engine.redistribute.price"),
        "engine.redistribute.charge_us": us("engine.redistribute.charge"),
        "engine.redistribute.replicate_us":
            us("engine.redistribute.replicate"),
        "engine.redistribute.events": count("engine.redistribute.events"),
        "machine.charge_us": us("machine.charge"),
        "machine.ledger_entries_per_op": extra.get("ledger", 0) / ops,
        "serve.queue_wait_us": us("serve.queue_wait"),
        "serve.handle_us": 0.0, "serve.wire_us": 0.0,
        "serve.latency_p95_ms": 0.0,
        "serve.timeouts": extra.get("timeouts", 0),
        "serve.restarts": extra.get("restarts", 0),
        "serve.rejected": extra.get("rejected", 0),
        "serve.request_hit_share": extra.get("request_hit_share", 0.0),
    }
    handled = [t1 - t0 for name, t0, t1, _, op in list(tracer.spans)
               if name == "serve.handle" and op > 0]
    if handled:
        latency = statistics.fmean(steady.walls) * 1e6
        out["serve.handle_us"] = sum(handled) / ops * 1e6
        out["serve.wire_us"] = max(
            latency - out["serve.handle_us"] - out["serve.queue_wait_us"],
            0.0)
        out["serve.latency_p95_ms"] = statistics.quantiles(
            steady.walls, n=20)[-1] * 1e3 if len(steady.walls) >= 20 \
            else max(steady.walls) * 1e3
    # the share of the ops' wall no named layer span covers
    op_self, _ = selfs.get("op", (0.0, 0))
    op_total = sum(t1 - t0 for name, t0, t1, _, op in list(tracer.spans)
                   if name == "op" and op > 0)
    out["unattributed_share"] = op_self / op_total if op_total else 0.0
    return out
