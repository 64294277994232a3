"""The Session: the single front door of the library.

A :class:`Session` owns one :class:`~repro.core.dataspace.DataSpace`
(the paper's scope of created arrays), a simulated distributed machine,
and a lazily recorded program.  Mapping *specification* is eager —
declaring, distributing and aligning arrays mutate the scope directly,
exactly as a specification part elaborates — while *execution* is lazy:
array statements, dynamic remaps and ``with session.loop(n):`` blocks
accumulate a :class:`~repro.engine.ir.ProgramGraph` that
:meth:`Session.run` lowers through the optimizing pass pipeline, the
backend resolver and the :class:`~repro.engine.executor.Accountant`
seam::

    from repro import Session, MachineConfig
    from repro.distributions import Block

    s = Session(16, opt=2)
    pr = s.processors("PR", 4, 4)
    u = s.array("U", 64, 64).distribute(Block(), Block(), to=pr)
    f = s.array("F", 64, 64).distribute(Block(), Block(), to=pr)
    with s.loop(10):
        u[1:-1, 1:-1] = 0.25 * (u[:-2, 1:-1] + u[2:, 1:-1]
                                + u[1:-1, :-2] + u[1:-1, 2:]) + f[1:-1, 1:-1]
    result = s.run()
    print(result.reports[-1].summary(), result.savings)

Because every program reaches the same IR, every scenario gets schedule
caching, ``-O2`` halo reuse/CSE/coalescing/hoisting, and the choice of
execution backend (``simulate`` | ``spmd``) for free — nothing is
reserved for hand-wired benchmarks.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator

import numpy as np

from repro.api.array import DistributedArray
from repro.api.lower import ProgramBuilder, run_graph
from repro.core.dataspace import DataSpace
from repro.engine.executor import ExecutionReport
from repro.engine.ir import ProgramGraph
from repro.errors import MachineError
from repro.machine.backend import resolve_backend
from repro.machine.config import MachineConfig
from repro.machine.simulator import DistributedMachine

__all__ = ["Session"]


class Session:
    """One program scope, lazily recorded, lowered through the IR.

    Parameters
    ----------
    n_processors:
        Width of the abstract processor set (ignored when ``ds`` is
        supplied).
    machine:
        ``True`` (default) builds a :class:`DistributedMachine` matching
        the processor count; a :class:`MachineConfig` customises it;
        ``False`` runs the recorded program under the sequential
        reference semantics only (no accounting).
    backend:
        A :class:`~repro.machine.backend.Backend` spec —
        ``Backend.simulate()`` (the default when ``None``) or
        ``Backend.spmd(workers=4, mode="fork")``.
    opt:
        Optimizer level ``0``/``1``/``2``
        (see :mod:`repro.engine.passes`), or ``"auto"`` to enable the
        self-adaptive feedback loop (:mod:`repro.autotune`): the
        ``-O2`` pass set is pruned per program and declared
        ``cost_profile`` imbalance may trigger a priced GENERAL_BLOCK
        redistribution at a loop-trip boundary — numerics stay
        bit-identical, every action lands on
        ``ProgramRunResult.adaptations``.
    opt_window:
        Fusion-window size for ``-O2`` message coalescing.  ``None``
        (default) sizes the window adaptively from the statement mix of
        each lowered program; an integer pins it.
    charge_remaps:
        Charge REDISTRIBUTE/REALIGN data motion to the machine (on by
        default; the directive front end disables it for historical
        accounting compatibility).
    ds:
        Adopt an existing data space instead of creating one (used by
        workload builders that wrap pre-built scopes).
    service:
        A :class:`~repro.serve.SessionService` to attach to.  ``run()``
        then goes through the service's request queue — the scope
        shares the service's plan store with every other tenant (warm
        cross-session schedules) while keeping its own machine and
        accountant.  Requires a machine.
    """

    def __init__(self, n_processors: int = 4, *,
                 machine: bool | MachineConfig = True,
                 backend=None, opt: int | str = 0,
                 opt_window: int | None = None,
                 charge_remaps: bool = True,
                 ds: DataSpace | None = None,
                 service=None) -> None:
        self.ds = ds if ds is not None else DataSpace(n_processors)
        self.backend = resolve_backend(backend)
        self.opt = "auto" if (isinstance(opt, str)
                              and opt.lower() == "auto") else int(opt)
        self.opt_window = opt_window
        self.charge_remaps = charge_remaps
        self.machine: DistributedMachine | None = None
        if machine:
            config = machine if isinstance(machine, MachineConfig) \
                else MachineConfig(self.ds.ap.size)
            if config.n_processors < self.ds.ap.size:
                raise MachineError(
                    f"machine has {config.n_processors} processors but "
                    f"the session's scope needs {self.ds.ap.size}")
            self.machine = DistributedMachine(config)
        self.service = service
        if service is not None and self.machine is None:
            raise MachineError(
                "Session(service=...) needs a machine; the service "
                "executes through the accounting pipeline")
        self.builder = ProgramBuilder(self.ds)
        self._runner = None
        #: every ExecutionReport produced across run() calls, in order
        self.reports: list[ExecutionReport] = []

    @property
    def auto(self) -> bool:
        """Whether this session runs the autotune feedback loop."""
        return self.opt == "auto"

    @property
    def opt_level(self) -> int:
        """The numeric opt level static analysis sees (auto ⇒ -O2)."""
        return 2 if self.auto else int(self.opt)

    # ------------------------------------------------------------------
    # Scope specification (eager)
    # ------------------------------------------------------------------
    def processors(self, name: str, *bounds, origin: int = 0):
        """Declare a processor arrangement (``PROCESSORS`` directive)."""
        return self.ds.processors(name, *bounds, origin=origin)

    def constant(self, name: str, value: int) -> None:
        """Define a specification constant (``PARAMETER``)."""
        self.ds.constant(name, value)

    def array(self, name: str, *bounds,
              dtype: np.dtype | type = np.float64,
              allocatable: bool = False, dynamic: bool = False,
              rank: int | None = None) -> DistributedArray:
        """Declare an array and return its handle.

        ``bounds`` entries are extents (``N`` means ``1:N``) or
        ``(lower, upper)`` pairs; pass none plus ``rank=`` for a
        deferred-shape allocatable.
        """
        self.ds.declare(name, *bounds, dtype=dtype,
                        allocatable=allocatable, dynamic=dynamic,
                        rank=rank)
        return DistributedArray(self, name)

    def arrays(self, *names, bounds, **kwargs) -> list[DistributedArray]:
        """Declare several same-shaped arrays at once."""
        return [self.array(n, *bounds, **kwargs) for n in names]

    def dynamic(self, *handles) -> None:
        """Mark arrays DYNAMIC (permits redistribute/realign)."""
        self.ds.set_dynamic(*(h.name if isinstance(h, DistributedArray)
                              else str(h) for h in handles))

    # ------------------------------------------------------------------
    # Program recording (lazy)
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def loop(self, count: int) -> Iterator[None]:
        """``with session.loop(n):`` — statements recorded inside the
        block form one :class:`~repro.engine.ir.LoopNode` body.  If the
        block raises, the half-recorded body is discarded (not sealed
        into the program)."""
        self.builder.begin_loop(count)
        try:
            yield
        except BaseException:
            self.builder.abort_loop()
            raise
        self.builder.end_loop()

    def record(self, *nodes) -> None:
        """Append ready-made :class:`~repro.engine.assignment.Assignment`
        statements or IR nodes (the escape hatch workload builders use)."""
        self.builder.record(*nodes)

    def lower(self) -> ProgramGraph:
        """The pending recorded program as IR, without executing it."""
        return self.builder.peek()

    # ------------------------------------------------------------------
    # Static analysis
    # ------------------------------------------------------------------
    def check(self, *, perf: bool = True):
        """Statically analyze the pending recorded program.

        Runs :func:`repro.engine.analysis.analyze` over :meth:`lower`'s
        IR against this session's scope — nothing executes and nothing
        is consumed; a following :meth:`run` still sees the full
        program.  Findings carry statement indices (the Session front
        end has no source lines).  ``perf=False`` skips the lints that
        compile communication schedules.
        """
        from repro.engine.analysis import analyze
        return analyze(self.ds, self.lower(), opt_level=self.opt_level,
                       perf=perf)

    def tune(self):
        """Report-only autotuning of the pending recorded program.

        Runs the same advisor an ``opt="auto"`` execution consults —
        :func:`repro.autotune.tune_graph` over :meth:`lower`'s IR —
        and returns its :class:`~repro.autotune.TuneReport` (layout
        proposals with modeled gain vs. exact remap cost, plus the
        per-program pass selection and rationale).  Nothing executes
        and nothing is consumed.  Requires a machine (the α-β model
        prices the proposals).
        """
        if self.machine is None:
            raise MachineError(
                "Session.tune() needs a machine; the advisor prices "
                "proposals with the machine's cost model")
        from repro.autotune import tune_graph
        return tune_graph(self.ds, self.lower(),
                          config=self.machine.config)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self):
        """Lower and execute everything recorded since the last run.

        Returns the :class:`~repro.engine.passes.ProgramRunResult`
        (per-statement :class:`ExecutionReport` list, the fused program
        schedule, machine state and per-pass savings) when a machine is
        attached; ``None`` otherwise.  The session's scope — data,
        layouts, schedule caches, resident-exchange tables — persists
        across runs, so recording more work and running again stays hot.
        """
        graph = self.builder.take()
        if os.environ.get("REPRO_LINT", "0") not in ("", "0"):
            # lint-before-run mode (the `repro lint` CLI drives Python
            # programs this way): collect findings, refuse to execute a
            # program with error-severity ones
            from repro.engine.analysis import analyze
            from repro.engine.diagnostics import (
                LINT_LOG, DiagnosticError, has_errors,
            )
            raw = os.environ.get("REPRO_LINT_OPT", "")
            opt = self.opt_level if raw in ("", "auto") else int(raw)
            diagnostics = analyze(self.ds, graph, opt_level=opt)
            LINT_LOG.extend(diagnostics)
            if has_errors(diagnostics):
                raise DiagnosticError(diagnostics)
        if os.environ.get("REPRO_TUNE", "0") not in ("", "0"):
            # tune-instead-of-run mode (the `repro tune` CLI drives
            # Python programs this way): consult the advisor, record
            # the report, execute nothing
            from repro.autotune import TUNE_LOG, tune_graph
            config = self.machine.config if self.machine is not None \
                else MachineConfig(self.ds.ap.size)
            TUNE_LOG.append(tune_graph(self.ds, graph, config=config))
            return None
        if self.machine is None:
            return run_graph(self.ds, graph)
        if self.service is not None:
            result = self.service.run(self, graph)
        else:
            if self._runner is None:
                self._runner = self._make_runner()
            result = run_graph(self.ds, graph, runner=self._runner)
        self.reports.extend(result.reports)
        return result

    def _make_runner(self):
        """The pipeline runner for this session's backend/opt config
        (also built on our behalf by an attached SessionService)."""
        from repro.engine.passes import ProgramRunner
        return ProgramRunner(
            self.ds, self.machine, backend=self.backend,
            opt_level=self.opt, charge_remaps=self.charge_remaps,
            opt_window=self.opt_window)

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release backend resources (the SPMD worker pool; with a
        service, the service-managed runner)."""
        if self.service is not None:
            self.service.release(self)
        if self._runner is not None:
            self._runner.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def describe(self) -> str:
        pending = len(self.builder)
        opt = "auto" if self.auto else f"-O{self.opt}"
        lines = [self.ds.describe(),
                 f"backend={self.backend.kind} opt={opt} "
                 f"pending_nodes={pending}"]
        return "\n".join(lines)

    @property
    def stats(self):
        """The machine's communication counters (None without one)."""
        return self.machine.stats if self.machine is not None else None
