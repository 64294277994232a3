"""The experiment registry: E1-E12, one per paper artifact.

Each entry maps an experiment id to ``(title, runner)``; runners take no
arguments (each fixes its own problem size) and return an
:class:`~repro.bench.harness.ExperimentResult`.  This table is the only
place the experiments are stated: ``python -m repro`` prints them and
tier-1 asserts every check.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.bench.experiments_basic import (
    e01_distribution_formats,
    e02_block_definitions,
    e03_general_block,
    e04_cyclic,
    e05_alignment,
    e06_allocatable,
)
from repro.bench.experiments_adv import (
    e07_procedures,
    e08_staggered_grid,
    e09_section_args,
    e10_allocatable_templates,
    e11_forest_height,
    e12_equivalence,
)
from repro.bench.harness import ExperimentResult

__all__ = ["EXPERIMENTS", "run_experiment"]

EXPERIMENTS: dict[str, tuple[str, Callable[[], ExperimentResult]]] = {
    "E1": ("§4 distribution-format examples", e01_distribution_formats),
    "E2": ("BLOCK definitions: HPF vs Vienna (§8 footnote)",
           e02_block_definitions),
    "E3": ("GENERAL_BLOCK load balancing (§4.1.2)", e03_general_block),
    "E4": ("CYCLIC(k) semantics (§4.1.3)", e04_cyclic),
    "E5": ("§5.1 alignment examples", e05_alignment),
    "E6": ("§6 allocatable example, verbatim", e06_allocatable),
    "E7": ("§7 procedure-boundary modes", e07_procedures),
    "E8": ("§8.1.1 staggered grid (Thole)", e08_staggered_grid),
    "E9": ("§8.1.2 array-section arguments", e09_section_args),
    "E10": ("§8.2 problem 1: allocatables vs templates",
            e10_allocatable_templates),
    "E11": ("Alignment-tree height: 1 vs chains", e11_forest_height),
    "E12": ("Template-free equivalence (core claim)", e12_equivalence),
}


def run_experiment(exp_id: str) -> ExperimentResult:
    """Run one experiment by id (``"E8"`` etc.)."""
    key = exp_id.upper()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {exp_id!r}; choose from "
            f"{', '.join(EXPERIMENTS)}")
    title, fn = EXPERIMENTS[key]
    return dataclasses.replace(fn(), experiment=key, title=title)
