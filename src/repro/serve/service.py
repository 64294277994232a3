"""The session service: warm pools + shared plans for many tenants.

A :class:`SessionService` turns the library from a one-scope tool into
a long-running multi-tenant substrate:

* every session attached to the service shares one
  :class:`~repro.engine.planstore.PlanStore`, so tenant B's Jacobi
  adopts the schedules (and SPMD window-task splits) tenant A already
  compiled — content addressing makes the sharing safe across
  completely independent scopes;
* ``run()`` requests are queued per **pool key**
  (:attr:`~repro.machine.backend.BackendConfig.pool_key`): requests
  whose backend specs agree on the execution substrate are batched
  back-to-back onto one dispatcher thread, so a warm SPMD worker pool
  is never torn down between compatible requests, while incompatible
  specs run concurrently on their own dispatchers;
* each session keeps its **own** :class:`ProgramRunner` — machine,
  :class:`~repro.engine.executor.Accountant` and optimizer state are
  never shared, so per-tenant ledgers stay bit-identical to solo runs;
* a per-request **timeout** abandons stuck work
  (:class:`ServiceTimeout`), and a request that dies taking its worker
  pool with it triggers a graceful pool restart: the pool is rebuilt,
  but the session's schedule cache and the shared plan store keep every
  compiled plan warm.

The in-process surface is ``Session(service=svc)``; the out-of-process
surface is the ``repro serve`` / ``repro submit`` CLI pair built on
:func:`serve_forever` and :class:`~repro.serve.client.ServiceClient`.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field

from repro.engine.planstore import PlanStore, active_plan_store
from repro.errors import MachineError

__all__ = ["SessionService", "ServiceTimeout", "serve_forever"]

#: default per-request timeout (seconds); None waits forever
DEFAULT_TIMEOUT: float | None = None


class ServiceTimeout(MachineError):
    """A queued request exceeded its timeout and was abandoned.

    The dispatcher discards the request's result when it eventually
    finishes (or skips it entirely if it had not started); the
    submitting session should treat its scope as stale and re-record.
    """


@dataclass
class _Request:
    """One queued unit of work and its completion plumbing."""

    fn: object
    done: threading.Event = field(default_factory=threading.Event)
    result: object = None
    error: BaseException | None = None
    #: set by the submitter on timeout; the dispatcher then discards
    abandoned: bool = False


class _Dispatcher:
    """One FIFO queue + daemon thread per pool key.

    Serializing compatible requests on one thread is what keeps their
    worker pool warm: the pool (owned by whichever session runner the
    request uses) sees back-to-back work instead of interleaved
    create/teardown from competing threads.
    """

    def __init__(self, name: str) -> None:
        self.queue: queue.Queue[_Request | None] = queue.Queue()
        self.served = 0
        self.thread = threading.Thread(target=self._loop, name=name,
                                       daemon=True)
        self.thread.start()

    def _loop(self) -> None:
        while True:
            req = self.queue.get()
            if req is None:
                return
            if req.abandoned:
                continue
            try:
                req.result = req.fn()
            except BaseException as exc:   # delivered to the submitter
                req.error = exc
            self.served += 1
            req.done.set()

    def stop(self) -> None:
        self.queue.put(None)


class SessionService:
    """A process-local serving hub for many concurrent sessions.

    Parameters
    ----------
    plan_store:
        The cross-session plan store every attached scope uses.
        ``None`` (default) shares the process-wide active store; pass a
        fresh :class:`PlanStore` for an isolated hub (tests do).
    default_timeout:
        Per-request timeout in seconds applied when ``submit``/``run``
        is called without one (``None``: wait forever).
    """

    def __init__(self, *, plan_store: PlanStore | None = None,
                 default_timeout: float | None = DEFAULT_TIMEOUT) -> None:
        self.plan_store = plan_store
        self.default_timeout = default_timeout
        self._dispatchers: dict[tuple, _Dispatcher] = {}
        self._runners: dict[int, object] = {}
        #: stable per-session label and autotune adaptation counts
        self._tenant_ids: dict[int, str] = {}
        self._adaptations: dict[str, int] = {}
        self._lock = threading.Lock()
        self.timeouts = 0
        self.restarts = 0
        self.rejected = 0
        self._closed = False

    # ------------------------------------------------------------------
    # The queue
    # ------------------------------------------------------------------
    def _dispatcher(self, pool_key: tuple) -> _Dispatcher:
        with self._lock:
            if self._closed:
                raise MachineError("service is closed")
            disp = self._dispatchers.get(pool_key)
            if disp is None:
                disp = _Dispatcher(f"repro-serve-{len(self._dispatchers)}")
                self._dispatchers[pool_key] = disp
            return disp

    def submit(self, fn, *, pool_key: tuple = (),
               timeout: float | None = None):
        """Queue ``fn`` on the dispatcher of ``pool_key`` and wait.

        Returns ``fn()``'s result; re-raises its exception; raises
        :class:`ServiceTimeout` when the deadline passes first (the
        request is then abandoned and its eventual result discarded).
        """
        if timeout is None:
            timeout = self.default_timeout
        req = _Request(fn)
        self._dispatcher(pool_key).queue.put(req)
        if not req.done.wait(timeout):
            req.abandoned = True
            with self._lock:
                self.timeouts += 1
            raise ServiceTimeout(
                f"request exceeded {timeout:.3g}s on pool {pool_key!r}")
        if req.error is not None:
            raise req.error
        return req.result

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def _attach(self, session) -> object:
        """The session's service-managed runner (created on first use).

        Attachment points the scope at the hub's plan store, so every
        schedule the session compiles (or adopts) flows through the
        shared table.
        """
        with self._lock:
            runner = self._runners.get(id(session))
        if runner is not None:
            return runner
        if self.plan_store is not None:
            session.ds.plan_store = self.plan_store
        runner = session._make_runner()
        with self._lock:
            self._runners[id(session)] = runner
            tenant = self._tenant_ids.setdefault(
                id(session), f"tenant-{len(self._tenant_ids)}")
            self._adaptations.setdefault(tenant, 0)
        return runner

    def run(self, session, graph, *, timeout: float | None = None):
        """Execute a session's recorded graph through the service queue.

        The work runs on the dispatcher thread of the session backend's
        pool key, against the session's own runner (accountant
        isolation).  A request that raises gets its runner's pool
        restarted — compiled plans survive in the session's schedule
        cache and the shared store, so recovery only re-forks workers.
        """
        # gate on error-severity findings before the request ever
        # reaches a dispatcher: a program the static analyzer proves
        # cannot execute must not occupy pool time.  perf=False keeps
        # the check schedule-free — the gate compiles nothing, so plan
        # store hit/miss counters are untouched.
        from repro.engine.analysis import analyze
        from repro.engine.diagnostics import DiagnosticError, has_errors
        diagnostics = analyze(
            session.ds, graph,
            opt_level=getattr(session, "opt_level", session.opt),
            perf=False)
        if has_errors(diagnostics):
            with self._lock:
                self.rejected += 1
            raise DiagnosticError(diagnostics)

        runner = self._attach(session)
        pool_key = session.backend.pool_key

        def work():
            from repro.api.lower import run_graph
            try:
                return run_graph(session.ds, graph, runner=runner)
            except BaseException:
                self._restart(runner)
                raise

        result = self.submit(work, pool_key=pool_key, timeout=timeout)
        adapted = len(getattr(result, "adaptations", ()) or ())
        if adapted:
            with self._lock:
                tenant = self._tenant_ids.get(id(session), "?")
                self._adaptations[tenant] = \
                    self._adaptations.get(tenant, 0) + adapted
        return result

    def _restart(self, runner) -> None:
        """Gracefully restart a runner's worker pool after a failure."""
        restart = getattr(getattr(runner, "executor", None),
                          "_restart_pool", None)
        try:
            if restart is not None:
                restart()
            else:
                runner.close()
        except Exception:
            pass
        with self._lock:
            self.restarts += 1

    def release(self, session) -> None:
        """Detach a session, closing its service-managed runner."""
        with self._lock:
            runner = self._runners.pop(id(session), None)
        if runner is not None:
            runner.close()

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def store(self) -> PlanStore:
        """The plan store attached sessions actually consult.  All
        checks are against ``None`` — an empty store is len-0 falsy."""
        if self.plan_store is not None:
            return self.plan_store
        active = active_plan_store()
        return active if active is not None else PlanStore()

    def stats(self) -> dict:
        with self._lock:
            pools = {repr(k): d.served
                     for k, d in self._dispatchers.items()}
            out = {"sessions": len(self._runners), "pools": pools,
                   "timeouts": self.timeouts, "restarts": self.restarts,
                   "rejected": self.rejected,
                   "adaptations": dict(self._adaptations)}
        out["plan_store"] = self.store.stats()
        return out

    def close(self) -> None:
        """Stop every dispatcher and close every managed runner."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            dispatchers = list(self._dispatchers.values())
            runners = list(self._runners.values())
            self._dispatchers.clear()
            self._runners.clear()
        for disp in dispatchers:
            disp.stop()
        for runner in runners:
            try:
                runner.close()
            except Exception:
                pass

    def __enter__(self) -> "SessionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# The socket server (the `repro serve` entry point)
# ----------------------------------------------------------------------
def _handle_run(service: SessionService, params: dict) -> dict:
    from repro.directives.analyzer import Analyzer
    from repro.machine.backend import Backend

    if params.get("backend", "simulate") == "spmd":
        backend = Backend.spmd(workers=params.get("workers"),
                               mode=params.get("mode", "auto"))
    else:
        backend = Backend.simulate()
    store = service.store
    before = store.stats()

    def work():
        analyzer = Analyzer(params.get("processors", 4),
                            inputs=params.get("defines") or {},
                            machine=True, backend=backend,
                            opt_level=params.get("opt", 0))
        # point the submission's scope at the hub's shared store (the
        # same attachment SessionService gives in-process sessions)
        analyzer.ds.plan_store = store
        return analyzer.run(params["source"])

    result = service.submit(work, pool_key=backend.pool_key,
                            timeout=params.get("timeout"))
    after = store.stats()
    reply = {
        "ok": True,
        "reports": [r.summary() for r in result.reports],
        "request_hits": after["hits"] - before["hits"],
        "request_misses": after["misses"] - before["misses"],
        "plan_store": after,
    }
    if result.machine is not None:
        reply["total_words"] = int(result.machine.stats.total_words)
        reply["elapsed"] = float(result.machine.elapsed)
    return reply


def _poke(address: str, authkey: bytes) -> None:
    """Open-and-drop a connection so a blocked ``accept`` re-checks
    the stop flag."""
    from multiprocessing.connection import Client
    try:
        Client(address, family="AF_UNIX", authkey=authkey).close()
    except OSError:
        pass


def serve_forever(address: str, *, authkey: bytes = b"repro-serve",
                  service: SessionService | None = None,
                  ready: threading.Event | None = None) -> None:
    """Listen on ``address`` (an ``AF_UNIX`` socket path) and serve
    ``run``/``stats``/``ping``/``shutdown`` requests until told to stop.

    Each connection is handled on its own thread; ``run`` requests are
    funnelled through the shared :class:`SessionService` queue, so the
    batching and plan-sharing semantics match the in-process surface.
    One request-reply exchange per connection (the
    :class:`~repro.serve.client.ServiceClient` convention).
    """
    from multiprocessing.connection import Listener

    svc = service if service is not None else SessionService()
    stop = threading.Event()
    listener = Listener(address, family="AF_UNIX", authkey=authkey)
    if ready is not None:
        ready.set()

    def handle(conn) -> None:
        try:
            request = conn.recv()
            op = request.get("op")
            if op == "ping":
                conn.send({"ok": True})
            elif op == "stats":
                conn.send({"ok": True, "stats": svc.stats()})
            elif op == "shutdown":
                conn.send({"ok": True})
                stop.set()
                _poke(address, authkey)   # unblock the accept loop
            elif op == "run":
                try:
                    conn.send(_handle_run(svc, request))
                except Exception as exc:
                    conn.send({"ok": False, "error": str(exc)})
            else:
                conn.send({"ok": False, "error": f"unknown op {op!r}"})
        except EOFError:
            pass
        finally:
            conn.close()

    try:
        while not stop.is_set():
            try:
                conn = listener.accept()
            except OSError:
                break
            if stop.is_set():
                conn.close()
                break
            threading.Thread(target=handle, args=(conn,),
                             daemon=True).start()
    finally:
        listener.close()
        if service is None:
            svc.close()
