"""The actuation half of the feedback loop: adapt at trip boundaries.

An :class:`AutoTuner` rides inside a :class:`ProgramRunner` run under
``opt="auto"``.  At each loop's entry the runner asks
:meth:`AutoTuner.consider`; a non-``None`` :class:`Decision` tells the
runner to *split* the loop — run the observation trips unrolled, apply
the adaptation, then hand the remaining trips back to the ordinary
(replay-eligible) loop path.  Splitting is how replay legality is
preserved: the remap never lands inside a worker-resident replay
program, it lands *between* two legal loops.

Actuation itself goes through the runner's emit hook, which builds an
ordinary :class:`~repro.engine.ir.RedistributeNode` and executes it via
the same ``_remap`` path a user-recorded REDISTRIBUTE takes — epoch
bump, schedule-cache invalidation, accountant flush, ledger charge.
The tuner holds no side channel into the layouts (ARCHITECTURE
invariant 9); it only reads profiles and proposes nodes.

Honesty: every applied action is recorded as an :class:`Adaptation`
carrying both the *modeled* gain/cost and the words/messages actually
*charged* for the remap, surfaced on
:attr:`~repro.engine.passes.ProgramRunResult.adaptations`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.autotune.advisor import Proposal, propose_for_loop
from repro.autotune.profile import ProfileMark, WorkProfile
from repro.engine.ir import LoopNode
from repro.machine.config import MachineConfig

__all__ = ["Adaptation", "AutoTuner", "Decision"]


@dataclass(frozen=True)
class Decision:
    """A planned loop split: observe trips ``[0, trip)``, adapt at the
    boundary, run the remaining ``count - trip`` trips normally."""

    loop: LoopNode
    trip: int
    proposals: tuple[Proposal, ...]
    #: profile snapshot at loop entry (the feedback baseline)
    mark: ProfileMark | None


@dataclass(frozen=True)
class Adaptation:
    """One applied proposal: modeled economics vs. what was charged."""

    array: str
    trip: int
    modeled_gain: float
    modeled_cost: float
    #: words/messages the machine was actually charged for the remap
    charged_words: int
    charged_messages: int
    #: the observation trips confirmed real work before acting
    confirmed: bool
    proposal: Proposal

    def describe(self) -> str:
        return (f"adapted {self.array} at trip {self.trip}: modeled "
                f"gain {self.modeled_gain:.1f} vs cost "
                f"{self.modeled_cost:.1f}; charged {self.charged_words} "
                f"words / {self.charged_messages} msgs")


class AutoTuner:
    """Decides once per static loop, adapts at most once per array."""

    def __init__(self, ds: Any, machine: Any, *,
                 config: MachineConfig | None = None,
                 profile: WorkProfile | None = None) -> None:
        self.ds = ds
        self.machine = machine
        self.config = config if config is not None else machine.config
        self.profile = profile
        #: every applied action, in order (report honesty)
        self.adaptations: list[Adaptation] = []
        self._adapted: set[str] = set()
        self._decided: set[int] = set()

    @property
    def adapted(self) -> frozenset[str]:
        return frozenset(self._adapted)

    def consider(self, loop: LoopNode) -> Decision | None:
        """Plan a split for ``loop`` (asked once per static loop node).

        ``None`` unless the advisor has a worthwhile proposal for an
        array not yet adapted this run — the legality (replay blockers,
        trips left, DYNAMIC) and economics (hysteresis over the exact
        remap price) both live in :func:`propose_for_loop`.
        """
        if id(loop) in self._decided:
            return None
        self._decided.add(id(loop))
        proposals = tuple(
            p for p in propose_for_loop(self.ds, self.config, loop,
                                        skip=self._adapted)
            if p.worthwhile)
        if not proposals:
            return None
        mark = self.profile.mark() if self.profile is not None else None
        return Decision(loop, proposals[0].trip, proposals, mark)

    def confirmed(self, decision: Decision) -> bool:
        """The feedback gate: the observation trips must have run real
        work through the profile before the static model is acted on."""
        if self.profile is None or decision.mark is None:
            return False
        statements, work = self.profile.observed_since(decision.mark)
        return statements > 0 and int(work.sum()) > 0

    def apply(self, decision: Decision,
              emit: Callable[[Proposal], Any]) -> list[Adaptation]:
        """Act on a confirmed decision through the runner's ``emit``
        hook (which executes an ordinary REDISTRIBUTE node); returns
        the recorded adaptations (empty when the gate declined)."""
        if not self.confirmed(decision):
            return []
        applied: list[Adaptation] = []
        stats = self.machine.stats
        for prop in decision.proposals:
            words0 = int(stats.total_words)
            msgs0 = int(stats.total_messages)
            emit(prop)
            adaptation = Adaptation(
                array=prop.array, trip=prop.trip,
                modeled_gain=prop.modeled_gain,
                modeled_cost=prop.modeled_cost,
                charged_words=int(stats.total_words) - words0,
                charged_messages=int(stats.total_messages) - msgs0,
                confirmed=True, proposal=prop)
            self._adapted.add(prop.array)
            self.adaptations.append(adaptation)
            applied.append(adaptation)
        return applied
