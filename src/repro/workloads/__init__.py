"""Workload generators for the experiments (substrate S10).

Every workload builds through the Session front door
(:mod:`repro.api.session`), so each one automatically gets schedule
caching, the ``-O2`` pass pipeline and both execution backends:

* :mod:`~repro.workloads.stencil` — Thole's §8.1.1 staggered grid
  and a 5-point Jacobi relaxation as ready-made cases, plus the
  iterated Jacobi-with-residual loop (``jacobi_session`` /
  ``jacobi_program``);
* :mod:`~repro.workloads.multigrid` — a two-level V-cycle
  (``multigrid_session`` / ``multigrid_program``), the optimizer
  pipeline's second benchmark;
* :mod:`~repro.workloads.irregular` — irregular per-row cost models and
  partitioners (LPT greedy) for the GENERAL_BLOCK/INDIRECT
  load-balancing experiments (E3);
* :mod:`~repro.workloads.generators` — a deterministic seeded RNG.
"""

from repro.workloads.stencil import (
    StencilCase,
    staggered_grid_case,
    jacobi_case,
    jacobi_program,
    jacobi_session,
)
from repro.workloads.multigrid import multigrid_program, multigrid_session
from repro.workloads.irregular import (
    triangular_costs,
    power_law_costs,
    stepped_costs,
    imbalance_of_partition,
    imbalanced_jacobi_session,
    lpt_partition,
)
from repro.workloads.generators import seeded_rng

__all__ = [
    "StencilCase",
    "staggered_grid_case",
    "jacobi_case",
    "jacobi_program",
    "jacobi_session",
    "multigrid_program",
    "multigrid_session",
    "triangular_costs",
    "power_law_costs",
    "stepped_costs",
    "imbalance_of_partition",
    "imbalanced_jacobi_session",
    "lpt_partition",
    "seeded_rng",
]
