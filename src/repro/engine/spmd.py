"""Shared-memory SPMD execution backend: real workers, compiled schedules.

The simulated executor *models* the node program; this one runs it.
Each abstract processor of the machine (or a contiguous group of them,
when ``n_workers`` is smaller than the machine) becomes a real worker
executing plans derived from the compiled schedules of
:mod:`repro.engine.schedule`.

The master compiles each fusion window — a run of statements with no
cross-statement read/write overlap; a lone statement is the degenerate
one-statement window — into one :class:`WindowTask` per worker.  All
index arithmetic is done at compile time, straight from owner maps: an
iteration runs on the worker owning its LHS element (the schedule's LHS
owner vector), each operand is pulled from the worker holding its
primary copy, positions are lowered to flat Fortran-order storage
indices, every peer's traffic is concatenated into one gather per
(src worker, array) pair, a contiguous block-face transfer becomes a
zero-copy ``(lo, hi)`` window sliced straight out of the shared segment,
and the whole window synchronizes on a **single phase barrier**
separating every operand read from every owner-computes write (Fortran
array semantics).

The same plans run two ways.  **Dispatch** (:meth:`SpmdExecutor.execute`
/ :meth:`~SpmdExecutor.execute_all`) sends one message and awaits one
ack round per window.  **Worker-resident loop replay**
(:meth:`SpmdExecutor.execute_loop`): when the program runner proves a
loop body trip-invariant (no remaps, no allocation flips — the IR's
layout-epoch certificate), the ordered window serials are shipped once
with a trip count and each worker replays all N trips locally: one
``send`` starts the loop, one ``recv`` returns aggregated per-phase
timings, and *zero* coordinator messages cross the pipe between trips.
On the replay path the per-window ``ctx.Barrier`` (two semaphore
syscalls per crossing) is replaced by :class:`SenseBarrier` — a
generation-counter barrier in a pre-fork shared ``mmap`` segment,
spin-then-``sched_yield``, one padded cache line per worker — with the
same ``_BARRIER_TIMEOUT`` wedge detection.  Each window crosses it
twice per trip: the usual read/write phase barrier, plus a post-write
crossing that replaces the coordinator ack round in ordering window
k's writes before window k+1's gathers.

Two worker substrates sit behind the same protocol:

* ``process`` — forked OS processes over anonymous shared-memory
  ``mmap`` buffers mirroring every array (created before the fork, so
  the mapping is inherited and writable by all workers);
* ``thread`` — a thread pool reading the canonical NumPy arrays
  directly (always available; the fallback when ``fork`` is not).
  Thread-mode replay keeps the pool's ``threading.Barrier`` (spinning
  under the GIL is pathological) — the replay win there is the removed
  per-trip queue round-trips.

The simulator stays the cost oracle: accounting is charged through the
same counting schedules and :func:`~repro.engine.executor.charge_schedule`
path as :class:`~repro.engine.executor.SimulatedExecutor`, so the
reported words matrices, ledger, pattern attribution and modeled time
are bit-identical to the simulated run, while the numeric
results are produced exclusively by the parallel workers and proven
equal to the sequential reference by the differential harness.

Compiled window plans are memoized per schedule set and shipped to each
worker once; steady-state statements (Jacobi iterations 2..N) send only
a small task key.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import queue
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.dataspace import DataSpace
from repro.engine.assignment import Assignment
from repro.engine.executor import ExecutionReport, charge_schedule
from repro.engine.expr import ArrayRef, BinExpr, Expr, ScalarLit, \
    section_slicer
from repro.engine.owner_computes import section_owner_map
from repro.engine.planstore import active_plan_store
from repro.engine.schedule import flat_storage_index as _flat_store_index
from repro.engine.schedule import schedule_for, unique_refs
from repro.errors import MachineError
from repro.machine.simulator import DistributedMachine

__all__ = ["SenseBarrier", "SpmdExecutor", "WindowTask", "OperandSpec",
           "PeerPull", "PeerTransfer", "StmtPlan", "fusion_windows"]

#: when set (``REPRO_DEBUG_WINDOWS=1``), every fusion window formed by
#: :meth:`SpmdExecutor.execute_all` is re-checked for RAW/WAR conflicts
#: by the independent race checker of :mod:`repro.engine.analysis`
#: before it executes — CI runs the whole SPMD leg under this flag
_DEBUG_WINDOWS = os.environ.get("REPRO_DEBUG_WINDOWS", "0") not in ("", "0")


def fusion_windows(stmts: Iterable[Assignment]) -> list[list[Assignment]]:
    """Partition a statement sequence into the fusion windows the
    workers execute: a statement joins the open window unless it reads an
    array the window wrote (RAW) or writes an array the window read
    (WAR).  WAW overlap is allowed — writes apply in statement order on
    every worker and the canonical download is per statement, in order.
    """
    windows: list[list[Assignment]] = []
    window: list[Assignment] = []
    reads: set[str] = set()
    written: set[str] = set()
    for stmt in stmts:
        stmt_reads = {r.name for r in stmt.rhs.refs()}
        if window and (stmt_reads & written or stmt.lhs.name in reads):
            windows.append(window)
            window, reads, written = [], set(), set()
        window.append(stmt)
        reads |= stmt_reads
        written.add(stmt.lhs.name)
    if window:
        windows.append(window)
    return windows

#: seconds a worker waits at a phase barrier before declaring the
#: statement wedged (a crashed peer) and aborting the barrier
_BARRIER_TIMEOUT = 120.0
#: compiled task splits retained per executor (LRU): splits hold
#: O(iteration size) position arrays in the master *and* every worker,
#: so a session sweeping many distinct statements evicts its oldest
#: splits (mirroring the ScheduleCache bound they are derived from)
_TASK_CACHE_MAX = 64
#: seconds the master polls a worker pipe before checking liveness
_POLL_INTERVAL = 1.0
#: busy-spin iterations a :class:`SenseBarrier` waiter burns before it
#: starts yielding its time slice (the arrival skew of a balanced
#: window fits in the spin; an oversubscribed core falls through to
#: ``sched_yield`` immediately after)
_SPIN_ITERS = 64
#: int64 slots between adjacent workers' generation counters — 64 bytes,
#: one cache line, so publishing an arrival never invalidates a peer's
#: line (no false sharing on the spin)
_SENSE_STRIDE = 8

_sched_yield = getattr(os, "sched_yield", None)


def _yield_slice() -> None:
    if _sched_yield is not None:
        _sched_yield()
    else:  # pragma: no cover - non-posix fallback
        time.sleep(0)


class _PeerAbortError(MachineError):
    """A peer worker aborted the barrier (its own error is reported on
    its own pipe; this waiter only relays the cause)."""


#: the distinct relay message peers send when a barrier is aborted under
#: them — the master's failure summary then names the real cause instead
#: of burying it in an unrelated traceback (regression-tested)
_PEER_FAILED = ("peer failed: another worker aborted the phase barrier "
                "(its own error follows on its pipe)")


class SenseBarrier:
    """A generation-counter shared-memory barrier for the replay path.

    ``slots`` is an int64 view over a pre-fork ``mmap`` segment holding
    one padded generation counter per worker (stride
    :data:`_SENSE_STRIDE` = one cache line) plus one abort flag.  Each
    counter has a *single writer* — its own worker — so arrival is one
    aligned store and readiness is a strided min-scan; no atomic RMW is
    needed.  Waiters spin :data:`_SPIN_ITERS` times, then
    ``sched_yield`` (mandatory on oversubscribed cores), preserving the
    ``_BARRIER_TIMEOUT`` wedge detection: a waiter that times out sets
    the abort flag and raises; peers observing the flag raise
    :class:`_PeerAbortError` immediately.

    Generations are monotonic and never reset: every worker crosses the
    barrier the same number of times per replayed loop (trips × windows
    × 2, a compile-time constant), so counters stay in lock-step across
    loop invocations without coordinator involvement.
    """

    def __init__(self, slots: np.ndarray, rank: int, n: int) -> None:
        self._slots = slots
        self._rank = rank
        self._n = n
        self._gen = 0

    @staticmethod
    def n_slots(n_workers: int) -> int:
        """int64 slots a pool must map for ``n_workers`` (+1 abort)."""
        return n_workers * _SENSE_STRIDE + 1

    def wait(self, timeout: float) -> None:
        self._gen += 1
        gen = self._gen
        slots = self._slots
        abort_i = self._n * _SENSE_STRIDE
        slots[self._rank * _SENSE_STRIDE] = gen
        spins = 0
        deadline = 0.0
        while True:
            if int(slots[0:abort_i:_SENSE_STRIDE].min()) >= gen:
                return
            if slots[abort_i]:
                raise _PeerAbortError(_PEER_FAILED)
            spins += 1
            if spins <= _SPIN_ITERS:
                continue
            if not deadline:
                deadline = perf_counter() + timeout
            elif perf_counter() > deadline:
                self.abort()
                raise MachineError(
                    f"SPMD replay barrier timed out after {timeout:.0f}s "
                    "(a peer worker wedged or died)")
            _yield_slice()

    def abort(self) -> None:
        """Release every waiter into :class:`_PeerAbortError` (sticky;
        the pool is restarted afterwards)."""
        self._slots[self._n * _SENSE_STRIDE] = 1


# ----------------------------------------------------------------------
# Task protocol (what the master ships, what a worker executes)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OperandSpec:
    """One unique-leaf operand vector of one window statement."""

    name: str
    size: int
    dtype: np.dtype
    #: flat Fortran-order ``(lo, hi)`` storage window when the whole
    #: vector is one contiguous ascending run of an array no statement
    #: in the window writes: the worker slices it zero-copy out of the
    #: shared segment instead of staging a copy
    view: tuple[int, int] | None = None


@dataclass(frozen=True)
class PeerPull:
    """One fused pull from one source array: a single gather — a
    zero-copy contiguous ``(lo, hi)`` block-face window or one
    concatenated fancy index — plus the scatter segments into the
    consuming operand vectors (``staged[start:stop]`` lands at
    ``vec[operand][slots]``)."""

    name: str
    #: concatenated flat F-order gather index; ``None`` when the pull
    #: is the contiguous ``[lo, hi)`` storage window
    index: np.ndarray | None
    lo: int
    hi: int
    #: (operand, slots, start, stop); ``slots`` is a slice when the
    #: landing run is contiguous, else an index vector
    segments: tuple[tuple[int, object, int, int], ...]


@dataclass(frozen=True)
class PeerTransfer:
    """All fused pulls whose source elements live on one peer worker."""

    src_worker: int
    pulls: tuple[PeerPull, ...]


@dataclass(frozen=True)
class StmtPlan:
    """One statement's compute/write recipe inside a window."""

    lhs_name: str
    lhs_dtype: np.dtype
    #: flat F-order store index; ``None`` when the contiguous ``[lo, hi)``
    write_index: np.ndarray | None
    lo: int
    hi: int
    #: owned-iteration count (operand vector length)
    size: int
    rhs: Expr
    #: global operand ids, aligned with ``unique_refs(rhs)``
    operands: tuple[int, ...]


@dataclass(frozen=True)
class WindowTask:
    """Everything one worker needs to execute one fusion window with a
    single phase barrier: gather/compute every statement, barrier,
    write every statement."""

    #: every array the window touches (flat views are taken once)
    names: tuple[str, ...]
    ops: tuple[OperandSpec, ...]
    transfers: tuple[PeerTransfer, ...]
    stmts: tuple[StmtPlan, ...]


def _eval_vec(expr: Expr, operands: dict[int, np.ndarray]) -> Any:
    """Evaluate the RHS over the worker's gathered operand vectors —
    elementwise IEEE ops, so a subset evaluation is bit-identical to the
    same elements of the sequential whole-array evaluation."""
    if isinstance(expr, ScalarLit):
        return expr.value
    if isinstance(expr, ArrayRef):
        return operands[id(expr)]
    if isinstance(expr, BinExpr):
        a = _eval_vec(expr.left, operands)
        b = _eval_vec(expr.right, operands)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        return a / b
    raise MachineError(f"cannot evaluate {expr!r}")


def _run_window(task: WindowTask, arrays: dict[str, np.ndarray],
                barrier: Any) -> tuple[float, float]:
    """One worker's share of one fusion window: execute every fused
    peer pull and evaluate every statement, cross the window's single
    phase barrier, then write every owned result.  All indices are flat
    Fortran-order storage positions precomputed at compile time — the
    steady-state loop does no index arithmetic.  Returns (gather,
    write) phase seconds."""
    flat = {name: arrays[name].reshape(-1, order="F")
            for name in task.names}
    t0 = perf_counter()
    vec: list[np.ndarray] = []
    for op in task.ops:
        if op.view is not None:
            vec.append(flat[op.name][op.view[0]:op.view[1]])
        else:
            vec.append(np.empty(op.size, dtype=op.dtype))
    for transfer in task.transfers:
        for pull in transfer.pulls:
            src = flat[pull.name]
            staged = (src[pull.lo:pull.hi] if pull.index is None
                      else src[pull.index])
            for op_i, slots, start, stop in pull.segments:
                vec[op_i][slots] = staged[start:stop]
    results: list[np.ndarray] = []
    for sp in task.stmts:
        operands = {id(ref): vec[op_i]
                    for ref, op_i in zip(unique_refs(sp.rhs), sp.operands)}
        result = _eval_vec(sp.rhs, operands)
        # .astype copies, so zero-copy operand views are materialized
        # here, before the barrier releases any writer
        results.append(np.broadcast_to(result, (sp.size,)).astype(
            sp.lhs_dtype))
    t_gather = perf_counter() - t0
    barrier.wait(_BARRIER_TIMEOUT)   # the window's only barrier
    t0 = perf_counter()
    for sp, result in zip(task.stmts, results):
        if not sp.size:
            continue
        dst = flat[sp.lhs_name]
        if sp.write_index is None:
            dst[sp.lo:sp.hi] = result
        else:
            dst[sp.write_index] = result
    return t_gather, perf_counter() - t0


def _abort_barriers(*barriers: Any) -> None:
    """Break peers out of every given barrier so a failure is fast."""
    seen: set[int] = set()
    for b in barriers:
        if id(b) in seen:
            continue
        seen.add(id(b))
        try:
            b.abort()
        except Exception:
            pass


def _replay_loop(windows: Sequence[WindowTask],
                 arrays: dict[str, np.ndarray], rbarrier: Any,
                 trips: int) -> tuple[float, float]:
    """Replay ``trips`` trips of a compiled window sequence entirely
    worker-side: no coordinator message crosses the pipe until the loop
    is done.  Each window crosses the replay barrier twice per trip —
    its usual pre-write phase barrier (inside :func:`_run_window`) and a
    post-write crossing making this window's writes visible before any
    peer's next gather (the ordering the coordinator ack round provides
    on the dispatch path).  Returns accumulated (gather, write)
    seconds."""
    t_gather = t_write = 0.0
    for _ in range(trips):
        for wt in windows:
            g, w = _run_window(wt, arrays, rbarrier)
            rbarrier.wait(_BARRIER_TIMEOUT)
            t_gather += g
            t_write += w
    return t_gather, t_write


def _worker_loop(endpoint: Any, barrier: Any,
                 arrays: dict[str, np.ndarray], rank: int = 0,
                 sense: np.ndarray | None = None) -> None:
    """A worker's service loop: cached plan table + the phase-barrier
    window protocol + the loop-replay protocol.  Runs as a forked
    process or a thread.  ``sense`` is the process-mode replay-barrier
    segment; thread-mode replay reuses the pool barrier (spinning under
    the GIL is pathological)."""
    tasks: dict[int, WindowTask] = {}
    rbarrier: Any = barrier if sense is None else SenseBarrier(
        sense, rank, (sense.size - 1) // _SENSE_STRIDE)

    def cached(serial: int) -> WindowTask:
        task = tasks.get(serial)
        if task is None:
            raise MachineError(f"worker has no cached task {serial}")
        return task

    while True:
        msg = endpoint.recv()
        kind = msg[0]
        if kind == "stop":
            return
        if kind == "drop":
            # master evicted/invalidated this plan; no ack (pipes are
            # FIFO, so later exec messages order after the drop)
            tasks.pop(msg[1], None)
            continue
        if kind == "task":
            # plan shipment: cache without executing (no ack)
            tasks[msg[1]] = msg[2]
            continue
        try:
            if kind == "loop":
                _, loop_id, serials, trips = msg
                ack: Any = ("loop", loop_id)
                phases = _replay_loop([cached(s) for s in serials],
                                      arrays, rbarrier, trips)
            else:
                _, ack = msg
                phases = _run_window(cached(ack), arrays, barrier)
            endpoint.send(("ok", ack, phases))
        except (threading.BrokenBarrierError, _PeerAbortError):
            # a peer aborted mid-window: relay the real cause instead of
            # an unrelated BrokenBarrierError traceback
            endpoint.send(("err", _PEER_FAILED, None))
        except Exception:
            # break peers out of the barrier so the window fails fast
            _abort_barriers(barrier, rbarrier)
            endpoint.send(("err", traceback.format_exc(), None))


def _process_worker_main(conn: Any, barrier: Any, meta: dict[str, Any],
                         rank: int, sense_buf: Any) -> None:
    """Entry point of a forked worker: map the inherited shared buffers
    back into Fortran-ordered arrays and serve tasks."""
    arrays = {
        name: np.frombuffer(buf, dtype=dtype, count=int(np.prod(shape,
                            dtype=np.int64))).reshape(shape, order="F")
        for name, (buf, dtype, shape) in meta.items()}
    sense = np.frombuffer(sense_buf, dtype=np.int64)
    _worker_loop(_PipeEndpoint(conn), barrier, arrays, rank=rank,
                 sense=sense)


# ----------------------------------------------------------------------
# Channels (one send/recv protocol over pipes or queues)
# ----------------------------------------------------------------------
class _PipeEndpoint:
    """A worker's end of a multiprocessing pipe."""

    def __init__(self, conn: Any) -> None:
        self._conn = conn

    def recv(self) -> Any:
        return self._conn.recv()

    def send(self, msg: Any) -> None:
        self._conn.send(msg)


class _QueueEndpoint:
    """One end of a thread-mode channel (a pair of queues)."""

    def __init__(self, inbox: "queue.Queue[Any]",
                 outbox: "queue.Queue[Any]") -> None:
        self._inbox = inbox
        self._outbox = outbox

    def recv(self) -> Any:
        return self._inbox.get()

    def send(self, msg: Any) -> None:
        self._outbox.put(msg)


# ----------------------------------------------------------------------
# The worker pool
# ----------------------------------------------------------------------
def _pick_mode(mode: str) -> str:
    if mode == "fork":          # Backend.spmd(mode="fork") alias
        mode = "process"
    if mode not in ("auto", "process", "thread"):
        raise MachineError(f"unknown SPMD mode {mode!r}; use "
                           "'process' ('fork'), 'thread' or 'auto'")
    if mode != "auto":
        return mode
    if sys.platform.startswith("linux") and \
            "fork" in multiprocessing.get_all_start_methods():
        return "process"
    return "thread"


class _WorkerPool:
    """N persistent workers over shared array storage.

    ``process`` mode mirrors every created array into an anonymous
    shared ``mmap`` buffer *before* forking, so parent and children
    address the same pages; ``thread`` mode shares the canonical arrays
    natively.
    """

    barrier: Any

    def __init__(self, ds: DataSpace, n_workers: int, mode: str) -> None:
        self.n_workers = n_workers
        self.mode = _pick_mode(mode)
        self.broken: str | None = None
        #: serials of the window plans the workers' caches hold
        self.held: set[int] = set()
        self._mmaps: list[mmap.mmap] = []
        self.shared: dict[str, np.ndarray] = {}
        self._instances: dict[str, int] = {}
        self._procs: list[Any] = []
        self._endpoints: list[Any] = []
        if self.mode == "process":
            self._start_processes(ds)
        else:
            self._start_threads(ds)

    # -- startup -------------------------------------------------------
    def _start_processes(self, ds: DataSpace) -> None:
        ctx = multiprocessing.get_context("fork")
        self.barrier = ctx.Barrier(self.n_workers)
        # the replay barrier's shared segment: one padded generation
        # counter per worker + the abort flag, mapped before the fork so
        # every worker inherits the same pages
        sense_mm = mmap.mmap(-1, SenseBarrier.n_slots(self.n_workers) * 8)
        self._mmaps.append(sense_mm)
        np.frombuffer(sense_mm, dtype=np.int64)[:] = 0
        meta: dict[str, Any] = {}
        for name in ds.created_arrays():
            data = ds.arrays[name].data
            mm = mmap.mmap(-1, max(data.nbytes, 1))
            shared = np.frombuffer(mm, dtype=data.dtype,
                                   count=data.size).reshape(
                                       data.shape, order="F")
            shared[...] = data          # upload the canonical values
            self._mmaps.append(mm)
            self.shared[name] = shared
            self._instances[name] = ds.arrays[name].instance
            meta[name] = (mm, data.dtype, data.shape)
        for rank in range(self.n_workers):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_process_worker_main,
                               args=(child, self.barrier, meta, rank,
                                     sense_mm),
                               daemon=True)
            proc.start()
            child.close()
            self._endpoints.append(_PipeEndpoint(parent))
            self._procs.append(proc)

    def _start_threads(self, ds: DataSpace) -> None:
        self.barrier = threading.Barrier(self.n_workers)
        # threads address the canonical storage directly; the dict is
        # refreshed by the master before each statement
        self.shared = {name: ds.arrays[name].data
                       for name in ds.created_arrays()}
        for rank in range(self.n_workers):
            inbox: "queue.Queue[Any]" = queue.Queue()
            outbox: "queue.Queue[Any]" = queue.Queue()
            worker_end = _QueueEndpoint(inbox, outbox)
            master_end = _QueueEndpoint(outbox, inbox)
            thread = threading.Thread(
                target=_worker_loop,
                args=(worker_end, self.barrier, self.shared, rank),
                daemon=True)
            thread.start()
            self._endpoints.append(master_end)
            self._procs.append(thread)

    # -- master-side array coherence -----------------------------------
    def covers(self, ds: DataSpace, names: Iterable[str]) -> bool:
        """True iff every named array is addressable by the current
        workers (process mode forks over a fixed array set; an array
        created or re-allocated since then needs a pool restart)."""
        if self.mode == "thread":
            return True
        return all(
            name in self.shared
            and self._instances[name] == ds.arrays[name].instance
            for name in names)

    def bind_array(self, ds: DataSpace, name: str) -> None:
        """Make ``name`` addressable by the workers, verifying the
        instance seen at session start is still current."""
        arr = ds.arrays[name]
        if self.mode == "thread":
            self.shared[name] = arr.data
            self._instances[name] = arr.instance
            return
        if name not in self.shared:
            raise MachineError(
                f"array {name!r} was created after the SPMD session "
                "started; process-mode workers cannot map it — close() "
                "the executor and execute again to re-fork over the "
                "current arrays")
        if self._instances[name] != arr.instance:
            raise MachineError(
                f"array {name!r} was re-allocated after the SPMD session "
                "started; close() the executor and execute again")

    def upload(self, ds: DataSpace, name: str) -> None:
        """Copy the canonical values of ``name`` into the shared mirror
        (process mode; a no-op for threads)."""
        self.bind_array(ds, name)
        if self.mode == "process":
            self.shared[name][...] = ds.arrays[name].data

    def download(self, ds: DataSpace, name: str, slicer: tuple) -> None:
        """Copy a written section back into the canonical array."""
        if self.mode == "process":
            ds.arrays[name].data[slicer] = self.shared[name][slicer]

    # -- the coordinator's side of the task protocol -------------------
    def drop_task(self, serial: int) -> None:
        """Tell every worker to forget one cached plan (sent when the
        master evicts or invalidates it, so worker memory tracks the
        master's bounded table)."""
        self.held.discard(serial)
        if self.broken:
            return
        for endpoint in self._endpoints:
            try:
                endpoint.send(("drop", serial))
            except Exception:
                pass

    def _broadcast(self, what: str, msgs: Sequence[Any]) -> None:
        """Send ``msgs[w]`` to worker ``w``; a pool already broken, or a
        pipe that breaks now, is the documented close-and-retry
        :class:`MachineError`."""
        if self.broken:
            raise MachineError(
                f"SPMD worker pool is broken ({self.broken}); close() "
                "and execute again to restart it")
        try:
            for endpoint, msg in zip(self._endpoints, msgs):
                endpoint.send(msg)
        except Exception as exc:
            self.broken = "dispatch failed"
            raise MachineError(
                f"SPMD {what} failed (worker pipe: {exc!r}); close() "
                "and execute again to restart the pool") from exc

    def _collect(self, ack: Any, what: str) -> dict[str, float]:
        """Await every worker's ``ack``; returns the per-phase wall
        seconds, each phase the max across workers."""
        failures: list[str] = []
        t_gather = t_write = 0.0
        for w, endpoint in enumerate(self._endpoints):
            status, detail, phases = self._recv(w, endpoint)
            while status == "ok" and detail != ack:
                # stale ack from an abandoned earlier statement
                status, detail, phases = self._recv(w, endpoint)
            if status != "ok":
                failures.append(f"worker {w}: {detail}")
            elif phases is not None:
                t_gather = max(t_gather, phases[0])
                t_write = max(t_write, phases[1])
        if failures:
            self.broken = "worker error"
            raise MachineError(
                f"SPMD {what} failed:\n" + "\n".join(failures))
        return {"gather": t_gather, "write": t_write}

    def send_task(self, serial: int, tasks: Sequence[WindowTask]) -> None:
        """Ship one compiled window plan into every worker's cache,
        unless they hold it already, without executing it (no ack; pipes
        are FIFO, so a later ``exec`` or ``loop`` message orders after
        the shipment)."""
        if serial not in self.held:
            self._broadcast("task preload",
                            [("task", serial, task) for task in tasks])
            self.held.add(serial)

    def run_statement(self, serial: int) -> dict[str, float]:
        """Dispatch one shipped window and await every worker's ack."""
        self._broadcast("dispatch", [("exec", serial)] * self.n_workers)
        return self._collect(serial, "statement")

    def start_loop(self, loop_id: int, serials: Sequence[int],
                   trips: int) -> None:
        """Start a worker-resident replay of ``trips`` trips over the
        cached window ``serials``: one message per worker, after which
        the workers run ahead with zero coordinator traffic.  The single
        end-of-loop ack is collected by :meth:`finish_loop`."""
        self._broadcast(
            "replay dispatch",
            [("loop", loop_id, tuple(serials), int(trips))]
            * self.n_workers)

    def finish_loop(self, loop_id: int) -> dict[str, float]:
        """Await every worker's single end-of-loop ack."""
        return self._collect(("loop", loop_id), "replay loop")

    def _recv(self, w: int, endpoint: Any) -> Any:
        if self.mode == "thread":
            return endpoint.recv()
        waited = 0.0
        conn = endpoint._conn
        while not conn.poll(_POLL_INTERVAL):
            waited += _POLL_INTERVAL
            if not self._procs[w].is_alive():
                self.broken = f"worker {w} died"
                raise MachineError(f"SPMD worker {w} died mid-statement")
            if waited > _BARRIER_TIMEOUT + 10.0:
                self.broken = f"worker {w} hung"
                raise MachineError(f"SPMD worker {w} timed out")
        return conn.recv()

    # -- teardown ------------------------------------------------------
    def close(self) -> None:
        for endpoint in self._endpoints:
            try:
                endpoint.send(("stop",))
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if self.mode == "process" and proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        if self.mode == "process":
            for endpoint in self._endpoints:
                try:
                    endpoint._conn.close()
                except Exception:
                    pass
        self._endpoints = []
        self._procs = []
        self.shared = {}
        for mm in self._mmaps:
            try:
                mm.close()
            except Exception:
                pass
        self._mmaps = []


# ----------------------------------------------------------------------
# Window-plan compilation (master side)
# ----------------------------------------------------------------------
# flat storage lowering is shared with the schedule compiler: the SPMD
# window plans and the subsumption pass both key on global element ids
# (imported above as _flat_store_index)


def _contiguous_bounds(index: np.ndarray) -> tuple[int, int] | None:
    """``(lo, hi)`` when ``index`` is one ascending stride-1 run (a
    contiguous block face in flat storage), else ``None``."""
    if not index.size:
        return None
    lo, hi = int(index[0]), int(index[-1])
    if hi - lo != index.size - 1:
        return None
    if index.size > 1 and not bool(np.all(np.diff(index) == 1)):
        return None
    return lo, hi + 1


def _slots_spec(slots: np.ndarray) -> Any:
    """Compress a strictly increasing landing-slot vector to a slice
    when it is one stride-1 run."""
    bounds = _contiguous_bounds(slots)
    if bounds is not None:
        return slice(bounds[0], bounds[1])
    return slots


def _compile_window(ds: DataSpace, scheds: Sequence[Any],
                    stmts: Sequence[Assignment], p: int, w: int
                    ) -> tuple[WindowTask, ...]:
    """Compile one fusion window into per-worker :class:`WindowTask`
    plans straight from owner maps: an iteration executes on
    ``wmap[lhs owner]`` (the schedule's LHS owner vector) and each unique
    leaf's operand is pulled from ``wmap[primary owner]`` of its section.
    Every position set is lowered to flat storage indices, all pulls with
    the same (source worker, array) are fused into one concatenated
    gather, and contiguous runs become zero-copy windows."""
    wmap = (np.arange(p, dtype=np.int64) * w) // p
    writes = {stmt.lhs.name for stmt in stmts}
    names = tuple(sorted({name for stmt in stmts
                          for name in (stmt.lhs.name,
                                       *(r.name for r in stmt.rhs.refs()))}))
    # worker-level owner vectors, shared by every worker's plan
    owners: list[tuple[np.ndarray, list[ArrayRef], list[np.ndarray]]] = []
    for stmt, sched in zip(stmts, scheds):
        leaves = unique_refs(stmt.rhs)
        sources = [wmap[np.asfortranarray(section_owner_map(
            ds.distribution_of(ref.name), ref.section(ds))).reshape(
                -1, order="F")] for ref in leaves]
        owners.append((wmap[sched.lhs_owner_flat], leaves, sources))
    tasks: list[WindowTask] = []
    for worker in range(w):
        # [name, size, dtype, view] per operand; frozen at the end
        ops: list[list[Any]] = []
        #: gather entries in discovery order, one per (leaf, src worker):
        #: (src worker, array, operand, slots, flat gather index)
        raw: list[tuple[int, str, int, np.ndarray, np.ndarray]] = []
        plans: list[StmtPlan] = []
        for stmt, sched, (exec_w, leaves, sources) in zip(
                stmts, scheds, owners):
            my_pos = np.nonzero(exec_w == worker)[0]
            it_shape = sched.iteration_shape
            widx = _flat_store_index(ds, stmt.lhs, it_shape, my_pos)
            wbounds = _contiguous_bounds(widx)
            op_ids: list[int] = []
            for ref, src_w in zip(leaves, sources):
                op = len(ops)
                op_ids.append(op)
                ops.append([ref.name, int(my_pos.size),
                            ds.arrays[ref.name].dtype, None])
                mine = src_w[my_pos]
                flat = _flat_store_index(ds, ref, it_shape, my_pos)
                for src_worker in np.unique(mine).tolist():
                    slots = np.nonzero(mine == src_worker)[0]
                    raw.append((src_worker, ref.name, op, slots,
                                flat[slots]))
            plans.append(StmtPlan(
                lhs_name=stmt.lhs.name,
                lhs_dtype=ds.arrays[stmt.lhs.name].dtype,
                write_index=None if wbounds is not None else widx,
                lo=wbounds[0] if wbounds is not None else 0,
                hi=wbounds[1] if wbounds is not None else 0,
                size=int(my_pos.size), rhs=stmt.rhs,
                operands=tuple(op_ids)))
        # zero-copy operand views: an operand fed by exactly one pull
        # whose slots are the identity and whose flat index is one
        # contiguous run of an array nothing in the window writes is
        # sliced straight out of shared storage — drop its pull.
        # (Slots index the worker's positions in increasing order, so
        # full length implies identity.)
        feeds: dict[int, int] = {}
        for _, _, op, _, _ in raw:
            feeds[op] = feeds.get(op, 0) + 1
        kept: list[tuple[int, str, int, np.ndarray, np.ndarray]] = []
        for entry in raw:
            src_worker, name, op, slots, flat = entry
            bounds = _contiguous_bounds(flat)
            if (name not in writes and feeds[op] == 1
                    and slots.size == ops[op][1] and bounds is not None):
                ops[op][3] = bounds
            else:
                kept.append(entry)
        # fuse the surviving pulls: one gather per (src worker, array)
        buckets: dict[tuple[int, str], list[Any]] = {}
        for src_worker, name, op, slots, flat in kept:
            buckets.setdefault((src_worker, name), []).append(
                (op, slots, flat))
        by_src: dict[int, list[PeerPull]] = {}
        for (src_worker, name), entries in buckets.items():
            flats = [flat for _, _, flat in entries]
            index = (flats[0] if len(flats) == 1
                     else np.concatenate(flats))
            segments: list[tuple[int, Any, int, int]] = []
            offset = 0
            for op, slots, flat in entries:
                segments.append((op, _slots_spec(slots), offset,
                                 offset + int(flat.size)))
                offset += int(flat.size)
            bounds = _contiguous_bounds(index)
            if bounds is not None:
                pull = PeerPull(name, None, bounds[0], bounds[1],
                                tuple(segments))
            else:
                pull = PeerPull(name, index, 0, 0, tuple(segments))
            by_src.setdefault(src_worker, []).append(pull)
        transfers = tuple(
            PeerTransfer(src_worker, tuple(pulls))
            for src_worker, pulls in sorted(by_src.items()))
        tasks.append(WindowTask(
            names=names,
            ops=tuple(OperandSpec(name, size, dtype, view)
                      for name, size, dtype, view in ops),
            transfers=transfers, stmts=tuple(plans)))
    return tuple(tasks)


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class SpmdExecutor:
    """Executes statements on real parallel workers.

    Drop-in for :class:`~repro.engine.executor.SimulatedExecutor`: the
    same constructor shape, the same :class:`ExecutionReport`, the same
    machine charges — but the numeric effect is produced by ``n_workers``
    concurrent workers executing compiled window plans over shared
    memory, one phase barrier per fusion window.  Use as a context
    manager (or call :meth:`close`) to release the worker pool; a closed
    executor transparently restarts its pool on the next :meth:`execute`.
    """

    def __init__(self, ds: DataSpace, machine: DistributedMachine, *,
                 n_workers: int | None = None, mode: str = "auto",
                 strategy: str = "auto", replay: bool = True) -> None:
        if machine.config.n_processors < ds.ap.size:
            raise MachineError(
                f"machine has {machine.config.n_processors} processors "
                f"but the data space's AP needs {ds.ap.size}")
        if strategy not in ("auto", "oracle", "analytic"):
            raise ValueError(f"unknown strategy {strategy!r}")
        p = machine.config.n_processors
        self.ds = ds
        self.machine = machine
        self.strategy = strategy
        #: whether :meth:`execute_loop` may compile trip-invariant loops
        #: into worker-resident replay programs
        self.replay = bool(replay)
        #: pool dispatches (one per window) — the golden
        #: replay-refusal tests assert a refused loop falls back here
        self.dispatch_count = 0
        #: worker-resident loops replayed
        self.replay_count = 0
        self.n_workers = p if n_workers is None else int(n_workers)
        if not 1 <= self.n_workers <= p:
            raise MachineError(
                f"n_workers must be in 1..{p}, got {self.n_workers}")
        self.mode = mode
        #: deposit policy; replaced by the program-level optimizer
        self.accountant: Any = None
        self._pool: _WorkerPool | None = None
        #: cache key -> (serial, per-worker tasks, schedule pins); keys
        #: are id(counting schedule) tuples, pinning the schedule objects
        #: so ids stay unique while cached
        self._tasks: dict[Any, Any] = {}
        self._serial = 0
        #: guards the task-split LRU (and the serial counter): the
        #: serving stack executes sessions from multiple threads, and
        #: the LRU refresh/eviction pops are not atomic
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def __enter__(self) -> "SpmdExecutor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    def close(self) -> None:
        """Stop the workers and release the shared buffers (idempotent).
        The next :meth:`execute` forks a fresh pool over the then-current
        arrays."""
        self._restart_pool()
        with self._lock:
            self._tasks.clear()

    def _restart_pool(self) -> None:
        """Replace the worker pool without dropping the compiled window
        plans: the master-side plans (and their serials) survive, only
        the workers' caches are gone — every plan is re-shipped on its
        next use."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> _WorkerPool:
        if self._pool is None:
            self._pool = _WorkerPool(self.ds, self.n_workers, self.mode)
        return self._pool

    @property
    def pool_mode(self) -> str:
        """The worker substrate actually in use ('process'/'thread')."""
        return self._ensure_pool().mode

    def refresh(self, *names: str) -> None:
        """Re-upload the canonical values of ``names`` (all arrays when
        empty) into the shared mirrors — needed only if array data was
        mutated outside this executor mid-session (process mode)."""
        pool = self._ensure_pool()
        for name in names or tuple(pool.shared):
            pool.upload(self.ds, name)

    def _prepare(self, names: Iterable[str]) -> _WorkerPool:
        """Pool coverage + array binding, shared by dispatch and replay.

        Layout mutations need no sweep here: window plans are keyed on
        the *identity* of counting-schedule objects pinned in the LRU, and
        a REDISTRIBUTE/REALIGN/DEALLOCATE drops the affected schedules
        from the :class:`~repro.core.dataspace.ScheduleCache`, so the
        next ``schedule_for`` returns a fresh object — a natural task
        miss.  Entries of *unaffected* alignment forests stay reachable
        and warm (matching the cache's fine-grained invalidation);
        entries for dropped schedules become unreachable and age out of
        the bounded LRU.
        """
        ds = self.ds
        pool = self._ensure_pool()
        if not pool.covers(ds, names):
            # an array was ALLOCATEd or re-allocated after the workers
            # forked: restart the pool over the current arrays, keeping
            # the compiled window plans of unaffected forests warm.  The
            # canonical storage is authoritative at statement boundaries
            # (every written section is downloaded), so this is lossless.
            self._restart_pool()
            pool = self._ensure_pool()
        for name in names:
            pool.bind_array(ds, name)
        return pool

    # ------------------------------------------------------------------
    def execute(self, stmt: Assignment, tag: str = "") -> ExecutionReport:
        """Run one assignment on the workers (a one-statement window);
        returns the same report — and leaves the machine in the same
        state — as the simulator."""
        return self._execute_window([stmt], tag)[0]

    def execute_all(self, stmts: Iterable[Assignment], tag: str = ""
                    ) -> list[ExecutionReport]:
        """Run a statement sequence.  Consecutive statements with no
        cross-statement read/write overlap form one fusion window
        executed under a single phase barrier (a statement's own
        LHS-in-RHS overlap stays within its window: the barrier orders
        its reads before its writes)."""
        reports: list[ExecutionReport] = []
        for window in self._windows(stmts):
            reports.extend(self._execute_window(window, tag))
        return reports

    def execute_loop(self, stmts: Sequence[Assignment], trips: int,
                     tag: str = "") -> list[ExecutionReport]:
        """Run ``trips`` trips of a trip-invariant statement body as a
        worker-resident replay program: ship every fusion window's plan
        once, send one ``loop`` message, and let the workers replay all
        trips over the :class:`SenseBarrier` with zero coordinator
        traffic between trips.  The coordinator charges the (cached)
        counting schedules once per trip in program order while the
        workers run ahead, so the returned reports — and the machine
        state — are bit-identical to ``trips`` consecutive
        :meth:`execute_all` calls (which is also the literal fallback
        when ``replay`` is off).

        The *caller* owns replay legality: only hand a body here when
        its loop is proven trip-invariant
        (:meth:`~repro.engine.ir.LoopNode.is_trip_invariant`), otherwise
        the trip-0 schedules this method compiles once would be replayed
        against layouts they no longer describe.
        """
        stmts = list(stmts)
        if trips <= 0 or not stmts:
            return []
        if not self.replay:
            reports: list[ExecutionReport] = []
            for _ in range(trips):
                reports.extend(self.execute_all(stmts, tag))
            return reports
        t0 = perf_counter()
        windows = self._windows(stmts)
        # compile every window's schedules once — trip invariance makes
        # trip 0's schedules valid for all trips
        compiled = [self._compile(window) for window in windows]
        pool = self._prepare(
            {name for _, names in compiled for name in names})
        serials: list[int] = []
        for window, (scheds, _) in zip(windows, compiled):
            serial, tasks = self._plans_for(scheds, window, serials)
            pool.send_task(serial, tasks)
            serials.append(serial)
        with self._lock:
            loop_id = self._serial
            self._serial += 1
        pool.start_loop(loop_id, serials, trips)
        # the workers are now running ahead; the coordinator charges the
        # trip-invariant counting schedules per trip in program order
        # (invariant 8: run-ahead is licensed only inside a proven
        # trip-invariant loop, where charges cannot depend on worker
        # progress)
        loop_reports: list[ExecutionReport] = []
        for _ in range(trips):
            for counts, _ in compiled:
                # two SenseBarrier crossings per window per trip: the
                # pre-write phase barrier + the post-write crossing
                # replacing the coordinator ack round
                loop_reports.extend(self._charge(counts, tag, 2))
        phases = pool.finish_loop(loop_id)
        self._download(pool, stmts)
        wall = perf_counter() - t0
        for report in loop_reports:
            report.wall_s = wall / len(loop_reports)
        loop_reports[0].per_phase_wall = phases
        self.replay_count += 1
        return loop_reports

    # ------------------------------------------------------------------
    @staticmethod
    def _windows(stmts: Iterable[Assignment]) -> list[list[Assignment]]:
        windows = fusion_windows(stmts)
        if _DEBUG_WINDOWS:
            from repro.engine.analysis import assert_window_race_free
            for window in windows:
                assert_window_race_free(window)
        return windows

    def _compile(self, stmts: Sequence[Assignment]
                 ) -> tuple[list[Any], set[str]]:
        """One window's compile prologue: validate every statement and
        fetch its schedule — what the coordinator charges and what the
        window plan's owner vectors come from; returns the schedules with
        the array names the window touches."""
        ds = self.ds
        p = self.machine.config.n_processors
        scheds: list[Any] = []
        names: set[str] = set()
        for stmt in stmts:
            stmt.validate(ds)
            scheds.append(schedule_for(ds, stmt, p, strategy=self.strategy))
            names.add(stmt.lhs.name)
            names.update(r.name for r in stmt.rhs.refs())
        return scheds, names

    def _charge(self, count_scheds: Sequence[Any], tag: str,
                barriers: int) -> list[ExecutionReport]:
        """Charge one window's counting schedules in program order — the
        simulator's exact deposits, independent of the fused numerics —
        booking the window's barrier crossings on its first report."""
        reports = [charge_schedule(self.machine, cs, tag,
                                   accountant=self.accountant)
                   for cs in count_scheds]
        reports[0].barrier_count = barriers
        return reports

    def _download(self, pool: _WorkerPool,
                  stmts: Iterable[Assignment]) -> None:
        """Copy every written section back into the canonical arrays."""
        for stmt in stmts:
            pool.download(self.ds, stmt.lhs.name,
                          section_slicer(stmt.lhs.section(self.ds)))

    def _execute_window(self, stmts: Sequence[Assignment], tag: str
                        ) -> list[ExecutionReport]:
        """Dispatch one fusion window: one message, one phase barrier,
        one ack round."""
        t0 = perf_counter()
        scheds, names = self._compile(stmts)
        pool = self._prepare(names)
        serial, tasks = self._plans_for(scheds, stmts)
        pool.send_task(serial, tasks)
        self.dispatch_count += 1
        phases = pool.run_statement(serial)
        self._download(pool, stmts)
        reports = self._charge(scheds, tag, 1)
        wall = perf_counter() - t0
        for report in reports:
            report.wall_s = wall / len(reports)
        reports[0].per_phase_wall = phases
        return reports

    # ------------------------------------------------------------------
    def _evict_to_fit(self, pinned: Sequence[int]) -> None:
        """Evict least-recently-used plans down to the table bound,
        skipping ``pinned`` serials: the windows of the replay loop being
        assembled must still be in the workers' caches when its ``loop``
        message lands, so a body wider than the bound overfills the
        table until the next eviction trims it."""
        for key in list(self._tasks):
            if len(self._tasks) < _TASK_CACHE_MAX:
                return
            serial = self._tasks[key][0]
            if serial in pinned:
                continue
            del self._tasks[key]
            if self._pool is not None:
                self._pool.drop_task(serial)

    def _plans_for(self, scheds: Sequence[Any],
                   stmts: Sequence[Assignment], pinned: Sequence[int] = ()
                   ) -> tuple[int, tuple[WindowTask, ...]]:
        """The per-worker plans of one fusion window, memoized on the
        schedule objects (Jacobi iterations 2..N reuse them) in a table
        LRU-bounded at ``_TASK_CACHE_MAX``; evictions also drop the plan
        from every worker's cache.  A plan carries its own ``rhs`` and
        operand layout, so reusing it for a structurally equal statement
        computes the same elements."""
        key = tuple(id(cs) for cs in scheds)
        with self._lock:
            hit = self._tasks.get(key)
            if hit is not None:
                self._tasks[key] = self._tasks.pop(key)   # LRU refresh
                return hit[0], hit[1]
            self._evict_to_fit(pinned)
            serial = self._serial
            self._serial += 1
        # cross-session sharing: window plans are content-addressed in
        # the process-wide plan store by the schedules' content keys plus
        # the worker split, the same way the schedules themselves are
        # (plans are scope-independent: layouts and domains are pinned by
        # the content keys, and the serial is the executor's own handle,
        # never part of the plan).
        store = getattr(self.ds, "plan_store", None)
        if store is None:   # explicit: an empty store is len-0 falsy
            store = active_plan_store()
        p = self.machine.config.n_processors
        content: tuple | None = None
        tasks: tuple[WindowTask, ...] | None = None
        if store is not None:
            plan_keys = tuple(cs.plan_key for cs in scheds)
            if all(k is not None for k in plan_keys):
                content = ("wtask", plan_keys, p, self.n_workers)
                tasks = store.get(content)
        if tasks is None:
            tasks = _compile_window(self.ds, scheds, stmts, p,
                                    self.n_workers)
            if content is not None:
                store.put(content, tasks)
        with self._lock:
            self._tasks[key] = (serial, tasks, tuple(scheds))
        return serial, tasks
