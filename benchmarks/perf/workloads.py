"""The six benchmark workloads.

Every workload follows one protocol, driven by :mod:`harness` inside a
fresh subprocess:

``setup()``      specification part, program recording, server start --
                 everything a user pays before the first op can be issued;
``first_op()``   the first sample, cold (empty plan store, nothing cached);
``steady(s)``    two untimed warm-up samples, then timed samples for about
                 ``s`` seconds; each sample is ``ops_per_sample`` ops and
                 is checked against an independent reference
                 (:mod:`reference`) outside the timed region;
``close()``      release pools / servers.

Between samples, outside the timed region, the Session workloads drain
``session.reports``, ``ds.remap_events`` and call ``machine.reset()`` so
a growing ledger cannot drift later samples.

A workload takes its inputs from ``seed`` only: initial data, corpus
draws, request order.  ``tracer`` is ``None`` for the untraced runs that
produce the end-to-end metrics.
"""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import corpus
import reference
from tracing import OP_FIRST, OP_NONE, OP_WARMUP

ROOT = Path(__file__).resolve().parents[2]
OUT = Path(__file__).resolve().parent / "out"
WARMUP_SAMPLES = 2

@dataclass
class Steady:
    """What one slice's steady phase measured."""

    ops_per_sample: int
    walls: list = field(default_factory=list)       #: s per sample
    ref_walls: list = field(default_factory=list)   #: s per NumPy sample
    window: float = 0.0     #: wall of the measuring window (concurrent
    #:                         clients); 0 = the sum of the sample walls
    attempted: int = 0
    failed: int = 0
    #: kind of correct op -> (charged words, messages, modeled time, ops
    #: covered); one entry per distinct program, so the per-op counts do
    #: not depend on how many samples happened to fit the window
    counts: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    layer: dict = field(default_factory=dict)       #: traced extras


class Workload:
    name = ""
    ops_per_sample = 1
    #: ops differ in kind and cost (a corpus, a request mix): the slice's
    #: numpy_ratio is then a ratio of totals and there is no drift to read
    #: off the sample order
    heterogeneous = False

    def __init__(self, seed: int, tracer=None, smoke: bool = False) -> None:
        self.seed = seed
        self.tracer = tracer
        self.smoke = smoke
        self.rng = np.random.default_rng(seed)

    # -- tracing helpers -----------------------------------------------
    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def _tag(self, op: int) -> None:
        if self.tracer:
            self.tracer.op = op

    # -- protocol ------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def sample(self) -> None:
        """One timed sample (``ops_per_sample`` ops)."""
        raise NotImplementedError

    def between(self) -> None:
        """Untimed housekeeping before each sample."""

    def reference_sample(self) -> float:
        """Run the same work in plain NumPy; returns its wall."""
        raise NotImplementedError

    def check(self, steady: Steady | None) -> bool:
        """Is the sample just run correct?  Also accumulates the
        sample's machine counts into ``steady``."""
        raise NotImplementedError

    def first_op(self) -> tuple[float, bool]:
        self._tag(OP_FIRST)
        self.between()
        t0 = perf_counter()
        with self._span("op"):
            self.sample()
        wall = perf_counter() - t0
        self.reference_sample()
        ok = self.check(None)
        self._tag(OP_NONE)
        return wall, ok

    def steady(self, seconds: float) -> Steady:
        out = Steady(self.ops_per_sample)
        self._tag(OP_WARMUP)
        for _ in range(WARMUP_SAMPLES):
            self.between()
            self.sample()
            self.reference_sample()
            self.check(None)
        self.begin_steady()
        op = 0
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            op += 1
            self._tag(op)
            self.between()
            out.attempted += self.ops_per_sample
            t0 = perf_counter()
            try:
                with self._span("op"):
                    self.sample()
            except Exception as exc:    # a failed op is a counted result
                out.failed += self.ops_per_sample
                out.notes.append(f"sample {op} raised {exc!r}")
                continue
            out.walls.append(perf_counter() - t0)
            self._tag(OP_NONE)
            out.ref_walls.append(self.reference_sample())
            if not self.check(out):
                out.failed += self.ops_per_sample
        self._tag(OP_NONE)
        self.end_steady(out)
        return out

    def begin_steady(self) -> None:
        """Counter baselines for the per-layer metrics."""

    def end_steady(self, out: Steady) -> None:
        """Fill ``out.layer`` from public counters (traced runs)."""

    def child_pids(self) -> list[int]:
        import multiprocessing
        return [p.pid for p in multiprocessing.active_children()]

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Session workloads
# ----------------------------------------------------------------------
class _SessionWorkload(Workload):
    """A long-lived Session re-recording and running one loop per
    sample."""

    session = None

    def between(self) -> None:
        s = self.session
        s.reports.clear()
        s.ds.remap_events.clear()
        s.machine.reset()

    def sample(self) -> None:
        with self._span("api.record"):
            self.record()
        self.result = self.session.run()

    def record(self) -> None:
        raise NotImplementedError

    def expected_words(self) -> tuple[int, int]:
        """(charged, logical) words of one sample, from the closed
        forms / owner oracle."""
        raise NotImplementedError

    def arrays(self) -> dict:
        """name -> reference ndarray the session's data must equal."""
        raise NotImplementedError

    def check(self, steady: Steady | None) -> bool:
        s, result = self.session, self.result
        stats = s.machine.stats
        charged, logical = self.expected_words()
        ok = (stats.total_words == charged
              and result.logical_words == logical
              and all(reference.arrays_match(s.ds.arrays[k].data, v)
                      for k, v in self.arrays().items()))
        counts = (stats.total_words, stats.total_messages,
                  s.machine.elapsed)
        if getattr(self, "_counts", counts) != counts:
            ok = False      # the model's own numbers must repeat exactly
        self._counts = counts
        if steady is not None and ok:
            steady.counts["sample"] = (*counts, self.ops_per_sample)
        if steady is not None and self.tracer:
            self._charged += counts[0]
            self._ledger += len(s.machine.ledger)
            self._statements += len(result.reports)
            self._logical += result.logical_words
            self._barriers += sum(r.barrier_count for r in result.reports)
            self._phases.append(result.reports[0].per_phase_wall
                                if result.reports else {})
        return ok

    def begin_steady(self) -> None:
        from repro.engine.planstore import active_plan_store
        self._ledger = self._statements = self._logical = 0
        self._charged = 0
        self._barriers = 0
        self._phases = []
        cache = self.session.ds.schedule_cache
        self._base = {
            "cache": (cache.hits, cache.misses, cache.evictions),
            "store": dict(active_plan_store().stats()),
            # ProgramRunResult.savings is cumulative over the session
            "fused_windows": self.result.savings.get("fused_windows", 0),
        }

    def end_steady(self, out: Steady) -> None:
        if not self.tracer:
            return
        from repro.engine.planstore import active_plan_store
        base = self._base
        cache = self.session.ds.schedule_cache
        store = active_plan_store().stats()
        out.layer = {
            "cache": [cache.hits - base["cache"][0],
                      cache.misses - base["cache"][1],
                      cache.evictions - base["cache"][2]],
            "store": [store[k] - base["store"][k]
                      for k in ("hits", "misses", "evictions")],
            "fused_windows": (self.result.savings.get("fused_windows", 0)
                              - base["fused_windows"]),
            "ledger": self._ledger,
            "statements": self._statements,
            "logical_words": self._logical,
            "charged_words": self._charged,
            "barriers": self._barriers,
            "gather_s": sum(p.get("gather", 0.0) for p in self._phases),
            "write_s": sum(p.get("write", 0.0) for p in self._phases),
        }

    def close(self) -> None:
        if self.session is not None:
            self.session.close()


class _Jacobi(_SessionWorkload):
    N, ROWS, COLS = 512, 2, 2

    def backend(self):
        raise NotImplementedError

    def setup(self) -> None:
        from repro.workloads.stencil import jacobi_session
        n = self.N
        s = self.session = jacobi_session(
            n, self.ROWS, self.COLS, iters=self.ops_per_sample, opt=2,
            backend=self.backend())
        x0 = self.rng.random((n, n))
        s.ds.arrays["X"].data[...] = x0
        self.ref = [np.asfortranarray(x0), np.zeros((n, n), order="F"),
                    np.zeros((n, n), order="F")]

    def sample(self) -> None:
        # the first sample runs the loop jacobi_session() recorded
        # during set-up; later ones re-record it
        if len(self.session.builder):
            self.result = self.session.run()
        else:
            super().sample()

    def record(self) -> None:
        from repro.workloads.stencil import smoothing_sweep
        s = self.session
        with s.loop(self.ops_per_sample):
            s.record(*smoothing_sweep("X", "XNEW", "R", self.N))

    def reference_sample(self) -> float:
        t0 = perf_counter()
        reference.jacobi_trips(*self.ref, self.ops_per_sample)
        return perf_counter() - t0

    def expected_words(self) -> tuple[int, int]:
        # -O2: the residual's four faces are still resident from the
        # update, so one halo exchange per trip reaches the machine;
        # logically both statements read them
        halo = reference.halo_words(self.N, self.ROWS, self.COLS)
        return self.ops_per_sample * halo, self.ops_per_sample * 2 * halo

    def arrays(self) -> dict:
        return dict(zip(("X", "XNEW", "R"), self.ref))


class JacobiSim(_Jacobi):
    name = "jacobi_sim"
    ops_per_sample = 5

    def backend(self):
        from repro import Backend
        return Backend.simulate()


class JacobiSpmd(_Jacobi):
    name = "jacobi_spmd"
    ops_per_sample = 10

    def backend(self):
        from repro import Backend
        return Backend.spmd(workers=2, mode="process", replay=True)


class MultigridSmall(_SessionWorkload):
    name = "multigrid_small"
    ops_per_sample = 5
    N, ROWS, COLS = 64, 4, 2

    def setup(self) -> None:
        from repro.workloads.multigrid import multigrid_session
        n, nc = self.N, self.N // 2
        s = self.session = multigrid_session(
            n, self.ROWS, self.COLS, cycles=self.ops_per_sample, opt=2)
        #: the body multigrid_session() recorded; record() must rebuild
        #: exactly these statements
        self.body = s.lower().nodes[0].body
        x0 = self.rng.random((n, n))
        s.ds.arrays["X"].data[...] = x0
        zeros = lambda m: np.zeros((m, m), order="F")   # noqa: E731
        self.ref = [np.asfortranarray(x0), zeros(n), zeros(n),
                    zeros(nc), zeros(nc), zeros(nc)]
        self._expected = self._oracle_words()

    def sample(self) -> None:
        if len(self.session.builder):
            self.result = self.session.run()
        else:
            super().sample()

    def record(self) -> None:
        from repro.api.array import DistributedArray
        from repro.engine.assignment import Assignment
        from repro.workloads.stencil import smoothing_sweep
        s, n = self.session, self.N
        x, r, xc, rc = (DistributedArray(s, k)
                        for k in ("X", "R", "XC", "RC"))
        body = (smoothing_sweep("X", "XNEW", "R", n)
                + [Assignment(rc[:, :], r[::2, ::2])]
                + smoothing_sweep("XC", "XCN", "RC", n // 2)
                + [Assignment(x[::2, ::2], x[::2, ::2] + xc[:, :])]
                + smoothing_sweep("X", "XNEW", "R", n))
        with s.loop(self.ops_per_sample):
            s.record(*body)
        if tuple(n.stmt for n in s.lower().nodes[0].body) != \
                tuple(n.stmt for n in self.body):
            raise AssertionError("re-recorded V-cycle differs from "
                                 "multigrid_session()'s")

    def reference_sample(self) -> float:
        t0 = perf_counter()
        reference.vcycle(*self.ref, self.ops_per_sample)
        return perf_counter() - t0

    def _oracle_words(self) -> tuple[int, int]:
        """Words of one V-cycle: closed-form halos for the three sweeps,
        the owner oracle for the strided restrict / prolong copies."""
        n, nc = self.N, self.N // 2
        grid = (self.ROWS, self.COLS)
        block = corpus.Direct((corpus.BLOCK, corpus.BLOCK))
        fine, coarse = ((1, n), (1, n)), ((1, nc), (1, nc))
        prog = corpus.Program("multigrid", "", grid, (
            corpus.ArrayDecl("F", fine, block),
            corpus.ArrayDecl("C", coarse, block)), ())
        strided = corpus.Ref("F", ((1, n - 1, 2), (1, n - 1, 2)))
        whole = corpus.Ref("C", ((1, nc, 1), (1, nc, 1)))
        restrict = reference.statement_words(
            prog, corpus.Stmt(whole, ((1.0, strided),)))
        prolong = reference.statement_words(
            prog, corpus.Stmt(strided, ((1.0, strided), (1.0, whole))))
        halo_f = reference.halo_words(n, *grid)
        halo_c = reference.halo_words(nc, *grid)
        charged = 2 * halo_f + halo_c + restrict + prolong
        return charged, charged + 2 * halo_f + halo_c

    def expected_words(self) -> tuple[int, int]:
        k = self.ops_per_sample
        return k * self._expected[0], k * self._expected[1]

    def arrays(self) -> dict:
        return dict(zip(("X", "XNEW", "R", "XC", "XCN", "RC"), self.ref))


class RemapPhaseChange(_SessionWorkload):
    name = "remap_phase_change"
    ops_per_sample = 1
    N, P = 256, 8

    def setup(self) -> None:
        from repro import Session
        from repro.distributions import Block, Collapsed
        n, p = self.N, self.P
        s = self.session = Session(p, opt=2)
        self.pr = s.processors("PR", p)
        self.x = s.array("X", n, n, dynamic=True).distribute(
            Block(), Collapsed(), to=self.pr)
        self.w = s.array("W", n, dynamic=True).distribute(
            Block(), to=self.pr)
        x0, w0 = self.rng.random((n, n)), self.rng.random(n)
        self.x.data[...] = x0
        self.w.data[...] = w0
        self.ref = [np.asfortranarray(x0), w0.copy()]
        block, cyc, colon = corpus.BLOCK, ("CYCLIC", 1), corpus.COLON
        layouts = [(block, colon), (colon, block), (cyc, colon),
                   (block, colon)]
        self._remap_words = sum(
            reference.remap_words((n, n), old, new, p)
            for old, new in zip(layouts, layouts[1:])) \
            + reference.allgather_words(n, p)

    def record(self) -> None:
        from repro.distributions import Block, Collapsed, Cyclic
        from repro.distributions.replicated import ReplicatedFormat
        x, w, pr = self.x, self.w, self.pr
        for _ in range(2):      # row sweeps: local under (BLOCK,:)
            x[:, 1:-1] = 0.5 * (x[:, :-2] + x[:, 2:])
        x.redistribute(Collapsed(), Block(), to=pr)
        for _ in range(2):      # column sweeps: local under (:,BLOCK)
            x[1:-1, :] = 0.5 * (x[:-2, :] + x[2:, :])
        x.redistribute(Cyclic(), Collapsed(), to=pr)
        x[:, 1:-1] = 0.5 * (x[:, :-2] + x[:, 2:])
        w.redistribute(ReplicatedFormat(), to=pr)
        x[:, 0] = x[:, 0] + w[:]
        w.redistribute(Block(), to=pr)
        x.redistribute(Block(), Collapsed(), to=pr)

    def reference_sample(self) -> float:
        t0 = perf_counter()
        reference.phase_cycle(*self.ref)
        return perf_counter() - t0

    def expected_words(self) -> tuple[int, int]:
        # every statement is local under the layout it runs in: only the
        # remaps move data (three transposition-sized ones, N*N*(1-1/P)
        # each, and the N*(P-1) allgather)
        return self._remap_words, 0

    def arrays(self) -> dict:
        return {"X": self.ref[0], "W": self.ref[1]}


# ----------------------------------------------------------------------
# compile_cold_mix
# ----------------------------------------------------------------------
def _run_corpus_program(prog, store):
    """One corpus program through the directive front door, cold: its
    own scope and its own (empty) plan store."""
    from repro.directives import analyzer
    from repro.distributions.block import BlockVariant
    from repro.engine.planstore import swapped_plan_store
    with swapped_plan_store(store):
        return analyzer.run_program(
            prog.text, n_processors=prog.processors, inputs=prog.inputs,
            machine=True, opt_level=2,
            block_variant=(BlockVariant.VIENNA if prog.vienna
                           else BlockVariant.HPF))


def _check_program(prog, result) -> tuple[bool, float]:
    """Final arrays, statement count and logical words of one corpus
    program against the NumPy evaluator and the owner oracle; also the
    evaluator's wall (the program's ``numpy_ratio`` denominator, taken
    right after the program ran so machine noise is common-mode)."""
    walls = []
    for _ in range(3):      # microseconds-scale: the quickest of three
        t0 = perf_counter()
        want = reference.evaluate(prog)
        walls.append(perf_counter() - t0)
    ref_wall = min(walls)
    words = reference.program_words(prog)
    ok = (len(result.reports) == len(prog.stmts)
          and (words is None
               or words == sum(r.total_words for r in result.reports))
          and all(reference.arrays_match(result.ds.arrays[k].data, v)
                  for k, v in want.items()))
    return ok, ref_wall


class CompileColdMix(Workload):
    name = "compile_cold_mix"
    heterogeneous = True
    ops_per_sample = 1

    def setup(self) -> None:
        import repro.directives    # noqa: F401  (the front door)
        self.corpus = corpus.generate(self.seed)
        if self.smoke:
            seen, short = set(), []
            for prog in self.corpus:
                if prog.family not in seen:
                    seen.add(prog.family)
                    short.append(prog)
            self.corpus = short

    def _run(self, prog):
        from repro.engine.planstore import PlanStore
        self.store = PlanStore()
        self.prog = prog
        self.result = _run_corpus_program(prog, self.store)

    def first_op(self) -> tuple[float, bool]:
        self._tag(OP_FIRST)
        t0 = perf_counter()
        with self._span("op"):
            self._run(self.corpus[0])
        wall = perf_counter() - t0
        self._tag(OP_NONE)
        return wall, _check_program(self.prog, self.result)[0]

    def steady(self, seconds: float) -> Steady:
        out = Steady(1)
        self._tag(OP_WARMUP)
        cheap = [p for p in self.corpus if p.family in ("block", "stagcyc")]
        for prog in cheap[1:1 + WARMUP_SAMPLES]:
            self._run(prog)
        store_totals = [0, 0, 0]
        op = passes = 0
        t_begin = perf_counter()
        pass_wall = 0.0
        # whole passes only, so every program weighs the same; at least
        # one, another while the budget is expected to cover it
        while not passes or (perf_counter() - t_begin + pass_wall
                             <= seconds):
            passes += 1
            t_pass = perf_counter()
            for prog in self.corpus:
                op += 1
                self._tag(op)
                out.attempted += 1
                t0 = perf_counter()
                try:
                    with self._span("op"):
                        self._run(prog)
                except Exception as exc:
                    out.failed += 1
                    out.notes.append(f"{prog.label}: raised {exc!r}")
                    continue
                out.walls.append(perf_counter() - t0)
                self._tag(OP_NONE)
                ok, ref_wall = _check_program(prog, self.result)
                out.ref_walls.append(ref_wall)
                if not ok:
                    out.failed += 1
                    out.notes.append(f"{prog.label}: wrong output")
                    continue
                machine = self.result.machine
                out.counts[prog.label] = (
                    machine.stats.total_words,
                    machine.stats.total_messages, machine.elapsed, 1)
                stats = self.store.stats()
                for k, key in enumerate(("hits", "misses", "evictions")):
                    store_totals[k] += stats[key]
                for key, amount in (
                        ("charged_words", machine.stats.total_words),
                        ("ledger", len(machine.ledger)),
                        ("statements", len(self.result.reports)),
                        ("logical_words", sum(r.total_words for r in
                                              self.result.reports)),
                        ("fused_windows",
                         self.result.savings.get("fused_windows", 0))):
                    out.layer[key] = out.layer.get(key, 0) + amount
            pass_wall = perf_counter() - t_pass
        self._tag(OP_NONE)
        out.layer["store"] = store_totals
        return out


# ----------------------------------------------------------------------
# serve_tenants
# ----------------------------------------------------------------------
_SUMMARY_WORDS = re.compile(r"words=(\d+)")


@dataclass
class _Entry:
    """One catalogue program and what a correct reply to it says."""

    label: str
    source: str
    processors: int
    defines: dict
    reports: int
    charged_words: int | None   #: closed form (Jacobi entries)
    logical_words: int | None   #: owner oracle (corpus entries)
    prog: object = None         #: the corpus program (None: Jacobi at n)
    n: int = 0
    solo: tuple = ()            #: (words, msgs, elapsed) of a solo run


class ServeTenants(Workload):
    name = "serve_tenants"
    heterogeneous = True
    ops_per_sample = 1
    CLIENTS = 2
    TRIPS = 10      #: DO K = 1, 10 in examples/jacobi_do.hpf

    def setup(self) -> None:
        from repro.serve import ServiceClient
        OUT.mkdir(exist_ok=True)
        # a relative path: AF_UNIX paths are limited to ~100 bytes and
        # the checkout may sit anywhere
        self.address = os.path.relpath(OUT / f"serve-{os.getpid()}.sock",
                                       ROOT)
        os.chdir(ROOT)
        if os.path.exists(self.address):
            os.unlink(self.address)
        self.proc = self.thread = None
        if self.tracer:
            self._serve_in_thread()
        else:
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--socket",
                 self.address], cwd=ROOT, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.client = ServiceClient(self.address)
        deadline = perf_counter() + 60
        while True:
            try:
                if self.client.ping():
                    break
            except (OSError, EOFError):
                if perf_counter() > deadline or (
                        self.proc and self.proc.poll() is not None):
                    raise RuntimeError("repro serve did not come up")
                import time
                time.sleep(0.01)
        self.catalogue = self._catalogue()

    def _serve_in_thread(self) -> None:
        from repro.serve import SessionService, serve_forever
        self.service = SessionService()
        ready = threading.Event()
        self.thread = threading.Thread(
            target=serve_forever, args=(self.address,),
            kwargs={"service": self.service, "ready": ready}, daemon=True)
        self.thread.start()
        if not ready.wait(30):
            raise RuntimeError("in-process serve_forever did not start")

    def _catalogue(self) -> list[_Entry]:
        jacobi = (ROOT / "examples" / "jacobi_do.hpf").read_text()
        entries = []
        for n in corpus.JACOBI_SIZES:
            entries.append(_Entry(
                f"jacobi_do N={n}", jacobi, 4, {"N": n}, 3 * self.TRIPS,
                self.TRIPS * reference.halo_words(n, 2, 2), None, n=n))
        for prog in corpus.catalogue():
            entries.append(_Entry(
                prog.label, prog.text, prog.processors, prog.inputs,
                len(prog.stmts), None, reference.program_words(prog),
                prog=prog))
        return entries

    def _reference_wall(self, entry: _Entry, arrays: dict) -> float:
        """Wall of the same program in plain NumPy, taken by the client
        right after its request (``arrays``: that client's Jacobi
        grids, kept across requests)."""
        if entry.prog is None and entry.n not in arrays:
            x = np.asfortranarray(self.rng.random((entry.n, entry.n)))
            arrays[entry.n] = (x, np.zeros_like(x), np.zeros_like(x))
        t0 = perf_counter()
        if entry.prog is None:
            reference.jacobi_trips(*arrays[entry.n], self.TRIPS)
        else:
            reference.evaluate(entry.prog)
        return perf_counter() - t0

    def _request(self, entry: _Entry) -> dict:
        return self.client.run_source(
            entry.source, processors=entry.processors, backend="simulate",
            opt=2, defines=entry.defines, timeout=60)

    def _reply_ok(self, entry: _Entry, reply: dict) -> bool:
        logical = sum(int(m.group(1)) for m in map(
            _SUMMARY_WORDS.search, reply["reports"]) if m)
        return (reply.get("ok") is True
                and len(reply["reports"]) == entry.reports
                and (entry.charged_words is None
                     or reply["total_words"] == entry.charged_words)
                and (entry.logical_words is None
                     or logical == entry.logical_words)
                and (not entry.solo or (reply["total_words"],
                                        reply["elapsed"])
                     == (entry.solo[0], entry.solo[2])))

    def first_op(self) -> tuple[float, bool]:
        """The first request a fresh server sees (cold store); the rest
        of the catalogue is then submitted untimed so the store is warm,
        and the solo-run counts are taken."""
        self._tag(OP_FIRST)
        t0 = perf_counter()
        reply = self._request(self.catalogue[0])
        wall = perf_counter() - t0
        self._tag(OP_WARMUP)
        ok = self._reply_ok(self.catalogue[0], reply)
        for entry in self.catalogue[1:]:
            ok = self._reply_ok(entry, self._request(entry)) and ok
        self._solo_counts()
        self._tag(OP_NONE)
        return wall, ok

    def _solo_counts(self) -> None:
        """Words / messages / modeled time of each catalogue program run
        alone in this process: what a tenant of the shared service must
        be charged too (the reply carries no message count, so
        ``charged_msgs_per_op`` is the solo run's)."""
        from repro.directives import analyzer
        from repro.engine.planstore import PlanStore, swapped_plan_store
        for entry in self.catalogue:
            with swapped_plan_store(PlanStore()):
                res = analyzer.run_program(
                    entry.source, n_processors=entry.processors,
                    inputs=entry.defines, machine=True, opt_level=2)
            entry.solo = (int(res.machine.stats.total_words),
                          int(res.machine.stats.total_messages),
                          float(res.machine.elapsed))

    def steady(self, seconds: float) -> Steady:
        out = Steady(1)
        lock = threading.Lock()
        hits = [0, 0]
        statements = [0]
        served: dict[str, tuple] = {}
        self._tag(1)
        before = self.client.stats()
        deadline = perf_counter() + seconds

        def client(k: int) -> None:
            # each client deals itself seeded permutations of the
            # catalogue: a uniform draw without the run-to-run wobble in
            # the mix a short window of independent draws would have
            rng = random.Random(f"serve-{self.seed}-{k}")
            grids: dict = {}
            while perf_counter() < deadline:
                order = list(self.catalogue)
                rng.shuffle(order)
                for entry in order:
                    if perf_counter() >= deadline:
                        return
                    t0 = perf_counter()
                    try:
                        reply = self._request(entry)
                        wall = perf_counter() - t0
                        ok = self._reply_ok(entry, reply)
                        ref_wall = self._reference_wall(entry, grids)
                    except Exception as exc:
                        with lock:
                            out.attempted += 1
                            out.failed += 1
                            out.notes.append(f"{entry.label}: {exc!r}")
                        continue
                    with lock:
                        out.attempted += 1
                        out.walls.append(wall)
                        out.ref_walls.append(ref_wall)
                        if not ok:
                            out.failed += 1
                            out.notes.append(f"{entry.label}: wrong reply")
                            continue
                        served[entry.label] = (reply["total_words"],
                                               entry.solo[1],
                                               reply["elapsed"])
                        statements[0] += len(reply["reports"])
                        hits[0] += reply["request_hits"]
                        hits[1] += reply["request_misses"]

        threads = [threading.Thread(target=client, args=(k,))
                   for k in range(self.CLIENTS)]
        t_begin = perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        out.window = perf_counter() - t_begin
        self._tag(OP_NONE)
        # per-op counts are the mean over the catalogue entries served,
        # not over the requests: which requests fit the window wobbles
        # from run to run, what each program is charged does not
        out.counts = {label: (*c, 1) for label, c in served.items()}
        after = self.client.stats()
        store = [after["plan_store"][k] - before["plan_store"][k]
                 for k in ("hits", "misses", "evictions")]
        out.layer = {
            "store": store,
            "timeouts": after["timeouts"] - before["timeouts"],
            "restarts": after["restarts"] - before["restarts"],
            "rejected": after["rejected"] - before["rejected"],
            "request_hit_share": hits[0] / max(hits[0] + hits[1], 1),
            "statements": statements[0],
        }
        return out

    def child_pids(self) -> list[int]:
        return [self.proc.pid] if self.proc else []

    def close(self) -> None:
        try:
            self.client.shutdown()
        except (OSError, EOFError):
            pass
        if self.proc is not None:
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.thread is not None:
            self.thread.join(timeout=20)
            self.service.close()
        if os.path.exists(self.address):
            os.unlink(self.address)


WORKLOADS = {w.name: w for w in (JacobiSim, JacobiSpmd, MultigridSmall,
                                 CompileColdMix, RemapPhaseChange,
                                 ServeTenants)}
