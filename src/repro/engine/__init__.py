"""Execution engine (substrate S9): owner-computes over distributed arrays.

Array assignments over sections are executed under the owner-computes rule
against the mappings a :class:`~repro.core.dataspace.DataSpace` maintains:
each processor computes the left-hand-side elements it owns, fetching
off-processor right-hand-side operands by messages.  Numeric results are
produced by a sequential reference evaluation (and validated against it in
tests); communication is *exactly counted* two independent ways:

* a **vectorized oracle** (:func:`~repro.engine.commsets.comm_matrix`)
  comparing dense owner maps elementwise — always applicable;
* **analytic communication sets**
  (:func:`~repro.engine.commsets.analytic_comm_sets`) built from
  per-dimension triplet intersections — the SUPERB / Vienna Fortran
  Compilation System technique [13] the paper's GENERAL_BLOCK efficiency
  claim refers to; property tests prove it agrees with the oracle.

Data-movement pricing for REDISTRIBUTE/REALIGN/procedure remaps
completes the cost model, and the SPMD backend (:mod:`repro.engine.spmd`) executes the same
compiled schedules on real parallel workers with accounting bit-identical
to the simulator.  Above the per-statement layer sits the program-level
IR (:mod:`repro.engine.ir`) and its optimizing pass pipeline
(:mod:`repro.engine.passes`): cross-statement halo validity, comm CSE,
message coalescing and remap hoisting over whole program regions.
"""

from repro.engine.expr import ArrayRef, BinExpr, ScalarLit, Expr
from repro.engine.assignment import Assignment
from repro.engine.reference import execute_sequential
from repro.engine.owner_computes import (
    section_owner_map,
    local_iteration_counts,
)
from repro.engine.commsets import comm_matrix, analytic_comm_sets, CommPiece
from repro.engine.executor import Accountant, SimulatedExecutor, \
    ExecutionReport, charge_schedule
from repro.engine.spmd import SpmdExecutor
from repro.engine.redistribute import price_remap, charge_remap
from repro.engine.ir import ProgramGraph
from repro.engine.passes import (
    OptimizingAccountant,
    ProgramRunner,
    ProgramSchedule,
)

__all__ = [
    "ArrayRef", "BinExpr", "ScalarLit", "Expr",
    "Assignment",
    "execute_sequential",
    "section_owner_map", "local_iteration_counts",
    "comm_matrix", "analytic_comm_sets", "CommPiece",
    "Accountant", "SimulatedExecutor", "ExecutionReport",
    "charge_schedule",
    "SpmdExecutor",
    "price_remap", "charge_remap",
    "ProgramGraph", "ProgramRunner", "ProgramSchedule",
    "OptimizingAccountant",
]
