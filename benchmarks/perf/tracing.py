"""Span tracing installed from outside the program under test.

A :class:`Tracer` wraps public callables of ``repro`` with timing
wrappers; each call records a span ``[name, start, end, parent, op]``
into an in-memory list (written out by the caller when the slice ends).
A layer's *self time* is its spans' duration minus the part their child
spans cover, so nested layers never count the same microsecond twice.

``repro`` binds many functions with ``from ... import name``, so patching
the home module is not enough: :meth:`Tracer.install` replaces *every*
binding of the target object in the loaded ``repro`` modules and lists
the bindings it touched (``Tracer.bindings``).  Spans are collected in
this process only -- forked SPMD workers report their phases through the
``per_phase_wall`` acks instead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from contextlib import contextmanager
from time import perf_counter

__all__ = ["TARGETS", "Tracer"]

#: op tags: spans outside any op / in the cold first op / in an untimed
#: warm-up sample; steady samples are tagged 1, 2, 3, ...
OP_NONE, OP_FIRST, OP_WARMUP = -1, 0, -2

#: (span name, home module, dotted attribute) of every wrapped callable
TARGETS = [
    ("directives.parse", "repro.directives.parser", "parse_program"),
    ("directives.analyze", "repro.directives.analyzer", "run_program"),
    ("directives.analyze", "repro.directives.analyzer", "Analyzer.run"),
    ("core.spec", "repro.core.dataspace", "DataSpace.processors"),
    ("core.spec", "repro.core.dataspace", "DataSpace.declare"),
    ("core.spec", "repro.core.dataspace", "DataSpace.distribute"),
    ("core.spec", "repro.core.dataspace", "DataSpace.align"),
    ("core.redistribute", "repro.core.dataspace", "DataSpace.redistribute"),
    ("core.redistribute", "repro.core.dataspace", "DataSpace.realign"),
    ("core.schedule_cache.lookup", "repro.core.dataspace",
     "ScheduleCache.get"),
    ("distributions.owner_map", "repro.distributions.distribution",
     "Distribution.primary_owner_map"),
    ("distributions.construct", "repro.distributions.construct",
     "ConstructedDistribution.__init__"),
    ("distributions.construct", "repro.distributions.construct",
     "ConstructedDistribution.is_replicated"),
    ("align.image", "repro.align.function", "AlignmentFunction.image"),
    ("align.image", "repro.align.function",
     "AlignmentFunction.image_arrays"),
    ("align.image", "repro.align.function", "AlignmentFunction.map_linear"),
    ("engine.schedule", "repro.engine.schedule", "schedule_for"),
    ("engine.commsets.analytic", "repro.engine.commsets",
     "analytic_comm_sets"),
    ("engine.commsets.oracle", "repro.engine.commsets", "comm_matrix"),
    ("engine.lowering.classify", "repro.engine.lowering",
     "classify_matrix"),
    ("engine.planstore.key", "repro.engine.planstore",
     "statement_content_key"),
    ("engine.reference.numerics", "repro.engine.reference",
     "execute_sequential"),
    ("engine.executor.charge", "repro.engine.executor", "charge_schedule"),
    ("engine.executor.charge", "repro.engine.executor",
     "SimulatedExecutor.execute"),
    ("engine.passes.runner", "repro.engine.passes", "ProgramRunner.run"),
    ("engine.passes.static", "repro.engine.passes", "plan_hoists"),
    ("engine.passes.static", "repro.engine.passes", "adaptive_window"),
    ("engine.passes.deposit", "repro.engine.passes",
     "OptimizingAccountant.deposit"),
    ("engine.passes.deposit", "repro.engine.passes",
     "OptimizingAccountant.flush"),
    ("engine.spmd.loop", "repro.engine.spmd", "SpmdExecutor.execute_loop"),
    ("engine.spmd.loop", "repro.engine.spmd", "SpmdExecutor.execute_all"),
    ("engine.spmd.close", "repro.engine.spmd", "SpmdExecutor.close"),
    ("engine.redistribute.price", "repro.engine.redistribute",
     "price_remap"),
    ("engine.redistribute.charge", "repro.engine.redistribute",
     "charge_remap"),
    ("engine.redistribute.lowering", "repro.engine.redistribute",
     "remap_lowering"),
    ("machine.charge", "repro.machine.simulator",
     "DistributedMachine.charge_collective"),
    ("machine.charge", "repro.machine.simulator",
     "DistributedMachine.compute"),
    ("api.lower", "repro.api.session", "Session.run"),
    ("api.lower", "repro.api.lower", "ProgramBuilder.take"),
    ("api.lower", "repro.api.lower", "run_graph"),
    ("serve.submit", "repro.serve.service", "SessionService.submit"),
]

_REPLICATING = ("allgather", "broadcast")


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: [name, start, end, parent span or None, op tag]
        self.spans: list[list] = []
        #: plain event counts and sums gathered by the special wrappers
        self.counts: dict[str, float] = {}
        #: "module.attr" of every binding install() replaced
        self.bindings: list[str] = []
        self.op = OP_NONE
        self._local = threading.local()
        self._undo: list = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        # the span object itself (not its list position) is the handle:
        # list.append is atomic, a length-then-append pair is not, and
        # the serve workload records from several threads
        stack = self._stack()
        span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
        self.spans.append(span)
        stack.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def bump(self, key: str, amount: float = 1) -> None:
        if self.op > OP_FIRST:
            self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrappers ------------------------------------------------------
    def _traced(self, name: str, fn, enter=None, leave=None):
        """``fn`` under a span.  ``enter(*args)`` runs first and returns
        a token; ``leave(span, token, args, result, exc)`` runs after the
        span closed and may rename it or bump counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = enter(*args) if enter else None
            span = self._open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as caught:
                exc = caught
                raise
            finally:
                self._close(span)
                if leave:
                    leave(span, token, args, result, exc)
        return traced

    def _wrap(self, name: str, fn):
        special = getattr(self, "_wrap_" + name.replace(".", "_"), None)
        return special(name, fn) if special else self._traced(name, fn)

    def _wrap_engine_schedule(self, name, fn):
        """``schedule_for``, named per call by what the counters around
        it say happened: scope-cache hit, plan-store adoption, or a real
        compile."""
        from repro.engine.planstore import active_plan_store

        def enter(ds, *_):
            store = getattr(ds, "plan_store", None)
            if store is None:
                store = active_plan_store()
            return (ds.schedule_cache, ds.schedule_cache.misses, store,
                    store.hits if store is not None else 0)

        def leave(span, token, *_):
            cache, misses, store, adopted = token
            if cache.misses == misses:
                span[0] = "core.schedule_cache.lookup"
                return
            span[0] = ("engine.schedule.adopt"
                       if store is not None and store.hits > adopted
                       else "engine.schedule.compile")
            self.bump(span[0] + "s")
        return self._traced(name, fn, enter, leave)

    def _wrap_engine_commsets_analytic(self, name, fn):
        from repro.engine.commsets import AnalyticUnsupported

        def leave(span, token, args, result, exc):
            if isinstance(exc, AnalyticUnsupported):
                self.bump("engine.commsets.fallbacks")
        return self._traced(name, fn, leave=leave)

    def _wrap_engine_spmd_loop(self, name, fn):
        """SPMD entry points; the executor's public dispatch / replay
        counters are read around each call."""
        def enter(executor, *_):
            return executor.dispatch_count, executor.replay_count

        def leave(span, token, args, *_):
            self.bump("engine.spmd.dispatches",
                      args[0].dispatch_count - token[0])
            self.bump("engine.spmd.replays",
                      args[0].replay_count - token[1])
        return self._traced(name, fn, enter, leave)

    def _wrap_engine_redistribute_price(self, name, fn):
        def leave(span, *_):
            self._local.price = span
        return self._traced(name, fn, leave=leave)

    def _wrap_engine_redistribute_lowering(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            lowering = fn(*args, **kwargs)
            self._local.pattern = lowering.pattern.value
            return lowering
        return traced

    def _wrap_engine_redistribute_charge(self, name, fn):
        """``charge_remap``; an event lowered to allgather/broadcast is
        renamed (with its pricing span) to ``...replicate``."""
        def enter(*_):
            self._local.pattern = self._local.price = None

        def leave(span, *_):
            self.bump("engine.redistribute.events")
            if self._local.pattern in _REPLICATING:
                span[0] = "engine.redistribute.replicate"
                if self._local.price is not None:
                    self._local.price[0] = "engine.redistribute.replicate"
        return self._traced(name, fn, enter, leave)

    def _wrap_directives_parse(self, name, fn):
        def enter(source, *_):
            self.bump("directives.lines", source.count("\n"))
        return self._traced(name, fn, enter)

    def _wrap_directives_analyze(self, name, fn):
        def leave(span, token, args, *_):
            # a fresh scope per program: its counters are this program's
            cache = args[0].ds.schedule_cache
            self.bump("core.schedule_cache.hits", cache.hits)
            self.bump("core.schedule_cache.misses", cache.misses)
            self.bump("core.schedule_cache.evictions", cache.evictions)
        return self._traced(name, fn,
                            leave=leave if fn.__name__ == "run" else None)

    def _wrap_api_lower(self, name, fn):
        def count(nodes) -> int:
            return sum(1 + count(getattr(n, "body", ())) for n in nodes)

        def leave(span, token, args, graph, exc):
            if graph is not None:
                self.bump("api.nodes", count(graph.nodes))
        return self._traced(name, fn,
                            leave=leave if fn.__name__ == "take" else None)

    def _wrap_serve_submit(self, name, fn):
        """``SessionService.submit``: the ``fn`` it is handed is wrapped
        too, so queue wait (submit -> fn start) and handling time are
        separate spans."""
        @functools.wraps(fn)
        def traced(service, work, *args, **kwargs):
            op = self.op
            t_submit = perf_counter()

            def handled():
                self.spans.append(["serve.queue_wait", t_submit,
                                   perf_counter(), None, op])
                with self.span("serve.handle"):
                    return work()
            return fn(service, handled, *args, **kwargs)
        return traced

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Wrap every target and replace each binding of it in the
        loaded ``repro`` modules."""
        for name, module_name, dotted in TARGETS:
            module = importlib.import_module(module_name)
            owner, attr = module, dotted
            if "." in dotted:
                cls_name, attr = dotted.split(".")
                owner = getattr(module, cls_name)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            if isinstance(original, property):
                wrapped = property(self._wrap(name, original.fget))
            else:
                wrapped = self._wrap(name, original)
            if isinstance(owner, type):
                self._bind(owner, attr, original, wrapped,
                           f"{module_name}.{dotted}")
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "repro"
                                       or mod_name.startswith("repro.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, original, wrapped,
                                   f"{mod_name}.{key}")

    def _bind(self, owner, attr, original, wrapped, label) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))
        self.bindings.append(label)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------
    def self_times(self, *, steady: bool = True) -> dict[str, list]:
        """``name -> [self seconds, span count]`` over the steady ops
        (``steady=False``: over the cold first op)."""
        spans = list(self.spans)
        child: dict[int, float] = {}
        for name, t0, t1, parent, op in spans:
            if parent is not None:
                child[id(parent)] = child.get(id(parent), 0.0) + (t1 - t0)
        out: dict[str, list] = {}
        for span in spans:
            name, t0, t1, parent, op = span
            if (op > OP_FIRST) if steady else (op == OP_FIRST):
                entry = out.setdefault(name, [0.0, 0])
                entry[0] += (t1 - t0) - child.get(id(span), 0.0)
                entry[1] += 1
        return out

    def dump(self, limit: int = 50000) -> dict:
        """What the trace file holds: per-name aggregates, the bindings
        patched, and the first ``limit`` raw spans."""
        spans = list(self.spans)
        t_base = spans[0][1] if spans else 0.0
        index = {id(span): k for k, span in enumerate(spans)}
        return {
            "columns": ["name", "start_us", "end_us", "parent", "op"],
            "spans_total": len(spans),
            "spans": [[n, round((a - t_base) * 1e6, 1),
                       round((b - t_base) * 1e6, 1),
                       -1 if p is None else index[id(p)], o]
                      for n, a, b, p, o in spans[:limit]],
            "self_us_steady": {k: [round(v[0] * 1e6, 1), v[1]]
                               for k, v in self.self_times().items()},
            "self_us_first_op": {
                k: [round(v[0] * 1e6, 1), v[1]]
                for k, v in self.self_times(steady=False).items()},
            "counts": self.counts,
            "bindings": self.bindings,
        }
