"""Experiment harness (substrate S11).

:mod:`~repro.bench.harness` renders result tables;
:mod:`~repro.bench.experiments` holds the registry of experiments E1-E12
(one per paper artifact, titled with its paper section), each returning
an :class:`~repro.bench.harness.ExperimentResult` whose rows regenerate
the corresponding example/claim.  ``python -m repro`` prints them and
tier-1 asserts their checks.
"""

from repro.bench.harness import ExperimentResult, format_table
from repro.bench.experiments import EXPERIMENTS, run_experiment

__all__ = ["ExperimentResult", "format_table", "EXPERIMENTS",
           "run_experiment"]
