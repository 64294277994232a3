"""repro.autotune — self-adaptive layouts: the model, closed-loop.

The paper's central claim is that mapping directives are a *model* the
system can reason about.  This subsystem closes the loop the static
stack leaves open: instead of the user hand-picking
``GeneralBlock.balanced_for_costs(...)``, a ``Session(opt="auto")`` run
executes the full ``-O2`` pass set and

* **measures** — a :class:`WorkProfile` observes per-processor work and
  per-pattern words at the Accountant seam, never touching the ledgers;
* **advises** — :func:`propose_for_loop` prices a balanced
  GENERAL_BLOCK re-partition (``modeled_gain_per_trip * trips_left``
  against the exact :func:`price_remap` transfer cost, with
  hysteresis);
* **acts** — an :class:`AutoTuner` splits the loop at a trip boundary
  and emits an ordinary REDISTRIBUTE node through the runner, so cache
  invalidation, epoch bumps and ledger charges all take the existing
  paths (no side channel mutates layouts).

Front doors: ``Session(opt="auto")``, ``repro run --opt auto``, and the
report-only ``repro tune FILE`` / :meth:`Session.tune` (identical
proposals, nothing executed).  Numerics are bit-identical to the static
run by construction — adaptations only change *where* data lives and
what the machine is charged, and each one is reported honestly on
``ProgramRunResult.adaptations``.
"""

from __future__ import annotations

from repro.autotune.advisor import (
    BOUNDARY_TRIP,
    HYSTERESIS,
    MIN_TRIPS_LEFT,
    TUNE_LOG,
    Proposal,
    TuneReport,
    modeled_work,
    propose_for_loop,
    tune_graph,
)
from repro.autotune.partition import (
    balanced_bounds,
    imbalance,
    lpt_partition,
    partition_work,
)
from repro.autotune.profile import ProfileMark, WorkProfile
from repro.autotune.tuner import Adaptation, AutoTuner, Decision

__all__ = [
    "Adaptation", "AutoTuner", "BOUNDARY_TRIP", "Decision", "HYSTERESIS",
    "MIN_TRIPS_LEFT", "ProfileMark", "Proposal", "TUNE_LOG", "TuneReport",
    "WorkProfile", "balanced_bounds", "imbalance", "lpt_partition",
    "modeled_work", "partition_work", "propose_for_loop", "tune_graph",
]
