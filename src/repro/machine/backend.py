"""Execution-backend selection: one switch between modeling and running.

The engine has two ways to execute a program against a machine:

* ``simulate`` — :class:`~repro.engine.executor.SimulatedExecutor`:
  sequential numerics plus the exact communication cost model (the
  paper's measurement substrate);
* ``spmd``     — :class:`~repro.engine.spmd.SpmdExecutor`: the same
  compiled schedules executed by real parallel workers over shared
  memory, with accounting bit-identical to the simulator.

:class:`Backend` is the one public spec for choosing between them::

    Session(16, backend=Backend.simulate())
    Session(16, backend=Backend.spmd(workers=4, mode="fork"))

Both constructors return a frozen :class:`BackendConfig`; every front
door (``Session``, ``run_program``, the CLI, the bench harness)
resolves its spec through :func:`resolve_backend`; the CLI and the
wire protocol, whose inputs are kind *strings*, convert them to
:class:`Backend` specs at the edge.

This module lives in the machine layer but instantiates engine classes
lazily inside :func:`make_executor`, keeping the machine package
import-free of the engine at module load (the layering rule the
simulator already follows).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MachineError

__all__ = ["BACKENDS", "Backend", "BackendConfig", "resolve_backend",
           "make_executor"]

#: recognized backend kinds, in CLI/choices order
BACKENDS = ("simulate", "spmd")

#: accepted SPMD pool modes ('fork' is an alias for 'process')
_MODES = ("auto", "process", "thread", "fork")


@dataclass(frozen=True)
class BackendConfig:
    """How statements should be executed against the machine (build one
    with :meth:`Backend.simulate` / :meth:`Backend.spmd`)."""

    kind: str = "simulate"          #: 'simulate' | 'spmd'
    #: SPMD worker count (default: one worker per abstract processor)
    n_workers: int | None = None
    #: SPMD worker substrate: 'process' ('fork') | 'thread' | 'auto'
    mode: str = "auto"
    #: comm-set strategy forwarded to the executor
    strategy: str = "auto"
    #: SPMD: compile proven trip-invariant loops into worker-resident
    #: replay programs (False: every trip is dispatched per window —
    #: the escape hatch when replay must be ruled out while debugging)
    replay: bool = True

    @property
    def pool_key(self) -> tuple:
        """Execution-substrate identity: two specs with equal pool keys
        can share a warm worker pool, so the serving stack batches their
        requests onto one dispatcher.  The compile-only field
        ``strategy`` is deliberately excluded — it changes what is
        compiled, not how workers are pooled.
        ``replay`` is included: a replaying executor advances its
        sense-barrier generations, so it must not share a pool with a
        non-replaying dispatcher."""
        return (self.kind, self.n_workers, self.mode, self.replay)

    def __post_init__(self) -> None:
        if self.kind not in BACKENDS:
            raise MachineError(
                f"unknown backend {self.kind!r}; choose from "
                f"{', '.join(BACKENDS)}")
        if self.mode not in _MODES:
            raise MachineError(
                f"unknown SPMD mode {self.mode!r}; use "
                "'process' ('fork'), 'thread' or 'auto'")
        if self.mode == "fork":
            object.__setattr__(self, "mode", "process")


class Backend:
    """Typed constructors for backend specs — the one backend surface.

    ``Backend.simulate()`` and ``Backend.spmd(...)`` return the frozen
    :class:`BackendConfig` every front door accepts; there is nothing
    to subclass or instantiate.
    """

    def __new__(cls, *args, **kwargs):   # pragma: no cover - guard
        raise TypeError("Backend is a namespace; use Backend.simulate() "
                        "or Backend.spmd(...)")

    @staticmethod
    def simulate(*, strategy: str = "auto") -> BackendConfig:
        """The sequential cost-model executor (the paper's substrate)."""
        return BackendConfig(kind="simulate", strategy=strategy)

    @staticmethod
    def spmd(workers: int | None = None, *, mode: str = "auto",
             replay: bool = True, strategy: str = "auto") -> BackendConfig:
        """Real parallel workers over shared memory.  ``mode`` picks the
        pool substrate (``'fork'``/``'process'``, ``'thread'``, or
        ``'auto'``); ``replay=False`` disables worker-resident loop
        replay (every trip dispatches per window even for trip-invariant
        loops)."""
        return BackendConfig(kind="spmd", n_workers=workers, mode=mode,
                             strategy=strategy, replay=replay)


def resolve_backend(spec) -> BackendConfig:
    """Coerce a backend spec to a :class:`BackendConfig`.

    ``None`` means :meth:`Backend.simulate`; configs pass through;
    anything else (a bare kind string included) is rejected."""
    if spec is None:
        return BackendConfig()
    if isinstance(spec, BackendConfig):
        return spec
    raise MachineError(f"bad backend spec {spec!r}")


def make_executor(ds, machine, backend=None):
    """Build the executor a backend spec names, bound to ``ds`` and
    ``machine``.  SPMD executors should be :meth:`closed
    <repro.engine.spmd.SpmdExecutor.close>` when done (they hold a
    worker pool); simulated executors need no teardown."""
    config = resolve_backend(backend)
    if config.kind == "simulate":
        from repro.engine.executor import SimulatedExecutor
        return SimulatedExecutor(ds, machine, strategy=config.strategy)
    from repro.engine.spmd import SpmdExecutor
    return SpmdExecutor(ds, machine, n_workers=config.n_workers,
                        mode=config.mode, strategy=config.strategy,
                        replay=config.replay)
