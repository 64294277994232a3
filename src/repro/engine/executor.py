"""The simulated executor: sequential numerics + exact comm accounting.

:class:`SimulatedExecutor` runs statements against a data space and a
machine: the numeric effect is the sequential reference semantics (so the
program's data evolves exactly as Fortran defines), while communication
and per-processor work are charged to the machine ledger.  Three comm
accounting strategies:

* ``"oracle"``   — dense owner-map comparison (always exact);
* ``"analytic"`` — closed-form regular sections (raises on unsupported
  mappings);
* ``"auto"``     — analytic when possible, oracle otherwise (default).

Elapsed time is charged through
:meth:`~repro.machine.simulator.DistributedMachine.charge_collective`:
each reference's compiled pattern classification
(:mod:`repro.engine.lowering`) routes recognized shapes — stencil
shifts, replication broadcasts/allgathers, dense remaps — to the
collective-tree formulas of :mod:`repro.machine.collectives`, while the
deposited words matrices stay bit-identical to the point-to-point model.

Reports carry the aggregate matrix, per-reference splits and the
per-reference pattern attribution so the experiments can attribute
traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.core.dataspace import DataSpace
from repro.engine.assignment import Assignment
from repro.engine.reference import execute_sequential
from repro.engine.schedule import schedule_for
from repro.machine.simulator import DistributedMachine

__all__ = ["Accountant", "SimulatedExecutor", "ExecutionReport",
           "charge_schedule"]


class Accountant:
    """The deposit seam between compiled schedules and the machine.

    Every communication charge an executor makes flows through one
    :meth:`deposit` call; this default implementation charges the
    machine unchanged, so executors behave exactly as before.  The
    program-level optimizer (:mod:`repro.engine.passes`) substitutes an
    accounting policy that may *skip* a deposit (the data is already
    resident — halo validity / communication CSE) or *buffer* it into a
    fusion window (cross-statement message coalescing), without the
    executors knowing.  Numerics never route through an accountant: it
    only decides what the machine is charged.
    """

    def deposit(self, machine: DistributedMachine, words, lowering,
                tag: str, *, ref: str = "", source: str = "",
                lhs_key: bytes = b"", ghosts=None):
        """Charge one words matrix; returns the action taken
        (``'charged'`` | ``'fused'`` | ``'halo-skip'`` | ``'cse-skip'``
        | ``'subsume-skip'`` | ``'local'``) — or an ``(action, words)``
        tuple when only part of the exchange reached the machine (the
        subsumption pass zeroing element-covered cells).  ``ghosts`` is
        the reference's per-cell element identity
        (:attr:`~repro.engine.schedule.RefSchedule.ghosts`), ``None``
        when not compiled."""
        machine.charge_collective(words, lowering, tag=tag)
        return "charged"

    def note_write(self, name: str) -> None:
        """An executed statement just wrote array ``name``."""

    def flush(self) -> None:
        """Deposit any buffered (coalesced) traffic now."""


#: the stateless pass-through used when no optimizer is attached
DEFAULT_ACCOUNTANT = Accountant()


@dataclass
class ExecutionReport:
    """Accounting for one executed statement."""

    statement: str
    #: aggregate (P, P) words matrix over all RHS references
    words: np.ndarray
    #: per-reference (ref string, matrix, local, off) tuples
    per_ref: list[tuple[str, np.ndarray, int, int]] = field(
        default_factory=list)
    #: per-processor iteration counts (owner-computes work)
    work: np.ndarray | None = None
    #: which comm strategy each reference used
    strategies: dict[str, str] = field(default_factory=dict)
    #: classified communication pattern per reference — see
    #: :mod:`repro.engine.lowering`
    patterns: dict[str, str] = field(default_factory=dict)
    #: what the accountant did with each reference's deposit
    #: ('charged' | 'fused' | 'halo-skip' | 'cse-skip' | 'local');
    #: ``words``/``per_ref``/``patterns`` always carry the full logical
    #: traffic regardless, so attribution survives fusion
    comm_actions: dict[str, str] = field(default_factory=dict)
    #: words physically charged to the machine for this statement
    #: (== total_words when nothing was skipped)
    charged_words: int = 0
    #: wall-clock seconds the backend spent producing this statement's
    #: numeric effect (a fused SPMD window's wall is split evenly over
    #: its statements, so sums over a program stay honest)
    wall_s: float = 0.0
    #: synchronization barriers the backend crossed for this statement:
    #: 0 for the sequential executors, 1 per dispatched SPMD fusion
    #: window and 2 per replayed window-trip (carried by the window's
    #: first report)
    barrier_count: int = 0
    #: wall seconds per execution phase (e.g. ``'gather'``/``'write'``,
    #: each the max across workers), on the report that carries the
    #: window's barrier count
    per_phase_wall: dict[str, float] = field(default_factory=dict)

    @property
    def total_words(self) -> int:
        return int(self.words.sum())

    @property
    def saved_words(self) -> int:
        """Logical words the optimizer did not re-move."""
        return self.total_words - self.charged_words

    def words_by_pattern(self) -> dict[str, int]:
        """Total words attributed to each classified pattern (references
        that moved nothing contribute no bucket)."""
        out: dict[str, int] = {}
        for ref, matrix, _, _ in self.per_ref:
            moved = int(matrix.sum())
            if moved:
                pattern = self.patterns.get(ref, "pointwise")
                out[pattern] = out.get(pattern, 0) + moved
        return out

    @property
    def total_messages(self) -> int:
        return int(np.count_nonzero(self.words))

    @property
    def local_refs(self) -> int:
        return sum(n_local for _, _, n_local, _ in self.per_ref)

    @property
    def off_processor_refs(self) -> int:
        return sum(o for _, _, _, o in self.per_ref)

    @property
    def locality(self) -> float:
        total = self.local_refs + self.off_processor_refs
        return self.local_refs / total if total else 1.0

    def summary(self) -> str:
        return (f"{self.statement}: words={self.total_words} "
                f"msgs={self.total_messages} locality={self.locality:.3f}")


def charge_schedule(machine: DistributedMachine, sched, tag: str = "",
                    accountant: Accountant | None = None
                    ) -> ExecutionReport:
    """Charge one compiled *counting* schedule to a machine and build its
    report.

    This is the single accounting path shared by
    :class:`SimulatedExecutor` and the parallel
    :class:`~repro.engine.spmd.SpmdExecutor`: both executors deposit the
    same schedule objects through it, so their words matrices, ledger
    records, per-pattern attribution and elapsed model are bit-identical
    by construction (the differential harness re-proves it).
    Deposits route through ``accountant`` (default: charge unchanged);
    the report's ``per_ref``/``patterns`` attribution is always the full
    logical traffic, while ``charged_words``/``comm_actions`` record
    what physically reached the machine.
    """
    acct = accountant if accountant is not None else DEFAULT_ACCOUNTANT
    p = machine.config.n_processors
    machine.compute(sched.work)
    report = ExecutionReport(sched.statement,
                             np.zeros((p, p), dtype=np.int64),
                             work=sched.work)
    base_tag = tag or sched.statement
    for k, rs in enumerate(sched.refs):
        result = acct.deposit(
            machine, rs.words, rs.lowering,
            f"{base_tag}#ref{k}:{rs.ref}", ref=rs.ref,
            source=rs.source, lhs_key=sched.lhs_key,
            ghosts=getattr(rs, "ghosts", None))
        if isinstance(result, tuple):
            # partial charge (subsumption zeroed covered cells)
            action, charged = result
        else:
            action = result
            charged = (int(rs.words.sum())
                       if action in ("charged", "fused") else 0)
        machine.stats.record_refs(rs.local, rs.off)
        report.per_ref.append((rs.ref, rs.words, rs.local, rs.off))
        report.strategies[rs.ref] = rs.strategy
        report.patterns[rs.ref] = rs.pattern
        report.comm_actions[rs.ref] = action
        report.charged_words += charged
        report.words += rs.words
    acct.note_write(sched.lhs_name)
    # observation-only: an attached autotune profile reads the
    # schedule/report after charging; it never touches the ledgers
    profile = getattr(acct, "profile", None)
    if profile is not None:
        profile.observe(sched, report)
    return report


class SimulatedExecutor:
    """Executes statements, charging traffic/work to a machine."""

    def __init__(self, ds: DataSpace, machine: DistributedMachine,
                 strategy: str = "auto") -> None:
        if machine.config.n_processors < ds.ap.size:
            raise ValueError(
                f"machine has {machine.config.n_processors} processors "
                f"but the data space's AP needs {ds.ap.size}")
        if strategy not in ("auto", "oracle", "analytic"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.ds = ds
        self.machine = machine
        self.strategy = strategy
        #: deposit policy; replaced by the program-level optimizer
        self.accountant: Accountant | None = None

    # ------------------------------------------------------------------
    def execute(self, stmt: Assignment, tag: str = "") -> ExecutionReport:
        """Run one assignment: numerics + communication + work.

        Communication sets come from the memoized compiled schedule
        (:func:`repro.engine.schedule.schedule_for`): the first execution
        of a statement shape compiles it, repeats are cache hits, and
        REDISTRIBUTE/REALIGN invalidate.
        """
        ds = self.ds
        p = self.machine.config.n_processors
        t0 = perf_counter()
        stmt.validate(ds)
        execute_sequential(ds, stmt)
        t1 = perf_counter()
        sched = schedule_for(ds, stmt, p, strategy=self.strategy)
        report = charge_schedule(self.machine, sched, tag,
                                 accountant=self.accountant)
        t2 = perf_counter()
        report.wall_s = t2 - t0
        report.per_phase_wall = {"numerics": t1 - t0, "charge": t2 - t1}
        return report

    def execute_all(self, stmts, tag: str = "") -> list[ExecutionReport]:
        return [self.execute(s, tag=tag) for s in stmts]
