"""The serving stack: cross-session plan store, request queue, client.

Covers the four serving guarantees:

* **sharing** — a second session running the same program through a
  service adopts every compiled plan (zero compiles) while its
  numerics, words matrices and accountant ledgers stay bit-identical
  to a solo run, at ``-O0`` and ``-O2``, on both backends;
* **concurrency** — N threads hammering one service stay bit-identical
  per session, and once the store is warm the stress phase is all hits
  (rate > 0.9);
* **isolation** — per-session accountants, per-service stores, the
  thread-safety of the per-scope :class:`ScheduleCache`, and the
  fine-grained survival of warm SPMD window plans across mid-session
  ALLOCATE;
* **the wire** — the ``repro serve`` socket server and
  :class:`ServiceClient` round-trip, including the cross-submit hit.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.api.session import Session
from repro.core.dataspace import ScheduleCache
from repro.distributions.block import Block
from repro.errors import MachineError
from repro.machine.backend import Backend
from repro.serve import (
    PlanStore,
    ServiceTimeout,
    SessionService,
    swapped_plan_store,
)

N = 24          #: Jacobi grid edge
TRIPS = 3       #: loop trips per program


def _record_jacobi(s: Session) -> None:
    pr = s.processors("PR", 2, 2)
    u = s.array("U", N, N).distribute(Block(), Block(), to=pr)
    f = s.array("F", N, N).distribute(Block(), Block(), to=pr)
    s.ds.arrays["U"].data[:] = np.arange(float(N * N)).reshape(N, N)
    s.ds.arrays["F"].data[:] = 1.0
    with s.loop(TRIPS):
        u[1:-1, 1:-1] = 0.25 * (u[:-2, 1:-1] + u[2:, 1:-1]
                                + u[1:-1, :-2] + u[1:-1, 2:]) \
            + f[1:-1, 1:-1]


def _run_jacobi(**kwargs) -> Session:
    s = Session(4, **kwargs)
    _record_jacobi(s)
    s.run()
    return s


def _count_compiles(monkeypatch):
    """Patch the schedule compiler with a call counter."""
    import repro.engine.schedule as schedule_mod
    real = schedule_mod._compile
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(schedule_mod, "_compile", counting)
    return calls


# ----------------------------------------------------------------------
# Cross-session plan sharing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("opt", [0, 2])
@pytest.mark.parametrize("backend", ["simulate", "spmd"])
def test_second_session_compiles_nothing(backend, opt, monkeypatch):
    spec = (Backend.simulate() if backend == "simulate"
            else Backend.spmd(mode="thread"))
    solo = _run_jacobi(backend=spec, opt=opt)  # private store: reference
    with SessionService(plan_store=PlanStore()) as svc:
        a = _run_jacobi(service=svc, backend=spec, opt=opt)
        before = svc.store.stats()
        calls = _count_compiles(monkeypatch)
        b = _run_jacobi(service=svc, backend=spec, opt=opt)
        after = svc.store.stats()

        # tenant B rode entirely on tenant A's compiled plans
        assert calls == [], "second session compiled a schedule"
        assert after["misses"] == before["misses"]
        assert after["hits"] > before["hits"]

        # ... with numerics, words and ledgers bit-identical to the
        # solo session (accountant isolation: sharing plans never
        # shares accounting state)
        for s in (a, b):
            np.testing.assert_array_equal(s.ds.arrays["U"].data,
                                          solo.ds.arrays["U"].data)
            assert len(s.reports) == len(solo.reports)
            for r, ref in zip(s.reports, solo.reports):
                np.testing.assert_array_equal(r.words, ref.words)
                assert r.patterns == ref.patterns
            np.testing.assert_array_equal(s.machine.stats.words_sent,
                                          solo.machine.stats.words_sent)
            np.testing.assert_array_equal(s.machine.stats.msgs_sent,
                                          solo.machine.stats.msgs_sent)
            assert s.machine.elapsed == solo.machine.elapsed
            s.close()
    solo.close()


def test_service_store_isolated_from_global():
    from repro.serve import store_stats
    g0 = store_stats()
    with SessionService(plan_store=PlanStore()) as svc:
        s = _run_jacobi(service=svc, backend=Backend.simulate())
        assert svc.store.stats()["entries"] > 0
        s.close()
    assert store_stats() == g0   # nothing leaked into the global store


def test_plan_adoption_remap_replaces_adopted_schedule():
    """Adoption installs the stored schedule object itself; a remap in
    the adopting scope drops it from that scope's cache and the next
    lookup compiles a replacement, while the donor keeps its own."""
    from repro.distributions.cyclic import Cyclic
    from repro.engine.schedule import schedule_for
    with SessionService(plan_store=PlanStore()) as svc:
        a = _run_jacobi(service=svc, backend=Backend.simulate())
        b = _run_jacobi(service=svc, backend=Backend.simulate())
        key, (adopted, _) = next(iter(b.ds.schedule_cache._entries.items()))
        assert adopted is a.ds.schedule_cache._entries[key][0]
        b.ds.set_dynamic("U")
        b.ds.redistribute("U", [Cyclic(), Block()], to="PR")
        assert key not in b.ds.schedule_cache._entries
        stmt, p, strategy = key
        fresh = schedule_for(b.ds, stmt, p, strategy=strategy)
        assert fresh is not adopted
        assert fresh.plan_key != adopted.plan_key
        assert b.ds.schedule_cache._entries[key][0] is fresh
        assert a.ds.schedule_cache._entries[key][0] is adopted
        a.close()
        b.close()


def test_session_service_requires_machine():
    with SessionService() as svc:
        with pytest.raises(MachineError):
            Session(4, service=svc, machine=False)


def test_pool_key_groups_compatible_specs():
    a = Backend.spmd(workers=4, mode="thread")
    b = Backend.spmd(workers=4, mode="thread", strategy="oracle")
    c = Backend.spmd(workers=4, mode="process")
    # the compile-only strategy doesn't split pools; substrate fields do
    assert a.pool_key == b.pool_key
    assert a.pool_key != c.pool_key
    assert Backend.simulate().pool_key != a.pool_key


# ----------------------------------------------------------------------
# Concurrency: the stress test (ISSUE satellite 4)
# ----------------------------------------------------------------------
def test_concurrent_sessions_identical_and_warm():
    n_threads = 6
    solo = _run_jacobi(backend=Backend.spmd(mode="thread"), opt=2)
    with SessionService(plan_store=PlanStore()) as svc:
        # warm the store once, then measure the stress phase alone
        warm = _run_jacobi(service=svc,
                           backend=Backend.spmd(mode="thread"), opt=2)
        before = svc.store.stats()

        barrier = threading.Barrier(n_threads)
        sessions: list[Session | None] = [None] * n_threads
        errors: list[BaseException] = []

        def tenant(i: int) -> None:
            try:
                s = Session(4, service=svc,
                            backend=Backend.spmd(mode="thread"), opt=2)
                _record_jacobi(s)
                barrier.wait()
                s.run()
                sessions[i] = s
            except BaseException as exc:   # pragma: no cover - fails test
                errors.append(exc)

        threads = [threading.Thread(target=tenant, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

        # every tenant's numerics, reports and ledgers are bit-identical
        # to the solo run — sharing plans never mixes accounting
        for s in sessions:
            assert s is not None
            np.testing.assert_array_equal(s.ds.arrays["U"].data,
                                          solo.ds.arrays["U"].data)
            for r, ref in zip(s.reports, solo.reports):
                np.testing.assert_array_equal(r.words, ref.words)
            np.testing.assert_array_equal(s.machine.stats.words_sent,
                                          solo.machine.stats.words_sent)
            assert s.machine.elapsed == solo.machine.elapsed
            s.close()

        # the stress phase ran hot: every plan request after the warmup
        # was answered from the shared store
        after = svc.store.stats()
        phase = (after["hits"] - before["hits"],
                 after["misses"] - before["misses"])
        assert phase[0] > 0
        rate = phase[0] / sum(phase)
        assert rate > 0.9, f"stress-phase hit rate {rate:.3f}"
        warm.close()
    solo.close()


# ----------------------------------------------------------------------
# The request queue: timeout + graceful restart
# ----------------------------------------------------------------------
def test_request_timeout_abandons_and_recovers():
    with SessionService() as svc:
        release = threading.Event()
        with pytest.raises(ServiceTimeout):
            svc.submit(lambda: release.wait(5), pool_key=("x",),
                       timeout=0.05)
        release.set()   # let the dispatcher finish the abandoned work
        assert svc.timeouts == 1
        # the dispatcher survives and keeps serving the same pool
        assert svc.submit(lambda: 42, pool_key=("x",), timeout=5) == 42


def test_errors_propagate_and_queue_survives():
    with SessionService() as svc:
        with pytest.raises(ValueError, match="boom"):
            svc.submit(lambda: (_ for _ in ()).throw(ValueError("boom")),
                       pool_key=("x",), timeout=5)
        assert svc.submit(lambda: "ok", pool_key=("x",), timeout=5) == "ok"


def test_failed_run_restarts_pool_and_stays_warm(monkeypatch):
    with SessionService(plan_store=PlanStore()) as svc:
        s = _run_jacobi(service=svc, backend=Backend.spmd(mode="thread"))
        reference = [np.array(r.words) for r in s.reports]
        runner = svc._runners[id(s)]

        # a request that dies mid-flight triggers the graceful restart
        def dying(graph, on_node=None):
            raise MachineError("worker died")

        monkeypatch.setattr(runner, "run", dying)
        with pytest.raises(MachineError, match="worker died"):
            svc.run(s, s.builder.take())
        assert svc.restarts == 1
        monkeypatch.undo()

        # the restarted pool still serves the session, bit-identically,
        # without recompiling (schedule cache + plan store stay warm)
        before = svc.store.stats()["misses"]
        _record_jacobi_body(s)
        s.run()
        assert svc.store.stats()["misses"] == before
        for r, ref in zip(s.reports[len(reference):], reference):
            np.testing.assert_array_equal(r.words, ref)
        s.close()


def _record_jacobi_body(s: Session) -> None:
    """Re-record the loop body of an already-declared Jacobi session."""
    from repro.api.array import DistributedArray
    u = DistributedArray(s, "U")
    f = DistributedArray(s, "F")
    with s.loop(TRIPS):
        u[1:-1, 1:-1] = 0.25 * (u[:-2, 1:-1] + u[2:, 1:-1]
                                + u[1:-1, :-2] + u[1:-1, 2:]) \
            + f[1:-1, 1:-1]


# ----------------------------------------------------------------------
# ScheduleCache thread safety (ISSUE satellite 1)
# ----------------------------------------------------------------------
def test_schedule_cache_concurrent_churn():
    """Barrier-released threads churn one small cache through the
    eviction path.  Without the cache's internal lock this interleaves
    ``len`` checks with ``_unlink(next(iter(...)))`` across threads and
    dies with KeyError/RuntimeError (dict mutated during iteration);
    with it, the run is clean and the structure stays consistent."""
    cache = ScheduleCache(maxsize=4)
    n_threads, n_iters = 8, 300
    barrier = threading.Barrier(n_threads)
    errors: list[BaseException] = []

    def churn(tid: int) -> None:
        try:
            barrier.wait()
            for i in range(n_iters):
                key = ("stmt", tid, i)
                cache.put(key, object(), arrays={f"A{tid}", "SHARED"})
                cache.get(key)
                cache.get(("stmt", (tid + 1) % n_threads, i))
                if i % 50 == 49:
                    cache.invalidate_arrays({"SHARED"})
        except BaseException as exc:   # pragma: no cover - fails test
            errors.append(exc)

    threads = [threading.Thread(target=churn, args=(t,))
               for t in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, f"cache race: {errors[:1]!r}"
    # structural invariants survived the churn
    assert len(cache) <= 4
    with cache._lock:
        for name, keys in cache._by_array.items():
            for key in keys:
                assert key in cache._entries
    assert cache.misses == n_threads * n_iters


def test_schedule_cache_concurrent_put_keeps_first():
    cache = ScheduleCache(maxsize=8)
    first, second = object(), object()
    cache.put("k", first, arrays={"A"})
    cache.put("k", second, arrays={"A"})   # the losing compiler's put
    assert cache.get("k") is first


# ----------------------------------------------------------------------
# Warm-plan survival across ALLOCATE (ISSUE satellite 3)
# ----------------------------------------------------------------------
def test_allocate_keeps_unrelated_window_plans_warm(monkeypatch):
    """A mid-session ALLOCATE of an unrelated allocatable must not cold
    the SPMD executor's per-peer window plans for untouched forests:
    the same task split (same objects) serves the next run."""
    with swapped_plan_store(None):   # isolate from cross-session stores
        s = Session(4, backend=Backend.spmd(mode="thread"))
        _record_jacobi(s)
        s.ds.declare("SCRATCH", allocatable=True, rank=1)
        s.run()
        executor = s._runner.executor
        warm_ids = {id(v) for v in executor._tasks.values()}
        assert warm_ids

        calls = _count_compiles(monkeypatch)
        s.ds.allocate("SCRATCH", 16)      # bumps the layout epoch
        _record_jacobi_body(s)
        s.run()
        after_ids = {id(v) for v in executor._tasks.values()}

        # no recompiles, and the warm splits are the same objects
        assert calls == []
        assert warm_ids <= after_ids
        s.close()


# ----------------------------------------------------------------------
# The wire: serve_forever + ServiceClient round-trip
# ----------------------------------------------------------------------
JACOBI_SRC = """\
      READ 6,N
      REAL X(N,N), XNEW(N,N)
!HPF$ PROCESSORS PR(2,2)
!HPF$ DISTRIBUTE (BLOCK,BLOCK) TO PR :: X, XNEW
      DO K = 1, 3
      XNEW(2:N-1,2:N-1) = 0.25 * (X(1:N-2,2:N-1) + X(3:N,2:N-1) + X(2:N-1,1:N-2) + X(2:N-1,3:N))
      X(2:N-1,2:N-1) = XNEW(2:N-1,2:N-1)
      END DO
"""


def test_socket_service_round_trip(tmp_path):
    from repro.serve import ServiceClient, serve_forever

    address = str(tmp_path / "serve.sock")
    if len(address) > 90:   # AF_UNIX path limit headroom
        import tempfile
        address = tempfile.mktemp(suffix=".sock", dir="/tmp")
    service = SessionService(plan_store=PlanStore())
    ready = threading.Event()
    server = threading.Thread(
        target=serve_forever, args=(address,),
        kwargs={"service": service, "ready": ready}, daemon=True)
    server.start()
    assert ready.wait(10)
    client = ServiceClient(address)
    try:
        assert client.ping()

        first = client.run_source(JACOBI_SRC, defines={"N": 16},
                                  backend="spmd", mode="thread", opt=2,
                                  timeout=60)
        assert first["request_misses"] > 0
        assert len(first["reports"]) == 2 * 3   # 2 statements x 3 trips

        # the second tenant — different pool mode, same program — rides
        # the first one's plans end to end
        second = client.run_source(JACOBI_SRC, defines={"N": 16},
                                   backend="spmd", mode="process", opt=2,
                                   timeout=60)
        assert second["request_misses"] == 0
        assert second["request_hits"] > 0
        assert second["reports"] == first["reports"]
        assert second["total_words"] == first["total_words"]
        assert second["elapsed"] == first["elapsed"]

        stats = client.stats()
        assert stats["plan_store"]["hits"] >= second["request_hits"]
    finally:
        client.shutdown()
        server.join(timeout=10)
        service.close()
    assert not server.is_alive()


def test_socket_error_reply(tmp_path):
    from repro.serve import ServiceClient, serve_forever

    address = str(tmp_path / "err.sock")
    if len(address) > 90:
        import tempfile
        address = tempfile.mktemp(suffix=".sock", dir="/tmp")
    service = SessionService()
    ready = threading.Event()
    server = threading.Thread(
        target=serve_forever, args=(address,),
        kwargs={"service": service, "ready": ready}, daemon=True)
    server.start()
    assert ready.wait(10)
    client = ServiceClient(address)
    try:
        with pytest.raises(RuntimeError, match="service error"):
            client.run_source("THIS IS NOT A PROGRAM ???", timeout=30)
        assert client.request({"op": "nope"})["ok"] is False
    finally:
        client.shutdown()
        server.join(timeout=10)
        service.close()
