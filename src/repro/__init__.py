"""repro — executable semantics for *High Performance Fortran Without
Templates: An Alternative Model for Distribution and Alignment*
(Chapman, Mehrotra, Zima; PPoPP 1993 / ICASE Report 93-17).

The public surface is deliberately small — one front door:

* :class:`Session` — owns a scope (the paper's data space) and a lazily
  recorded program; ``session.run()`` lowers it through the program IR,
  the optimizing pass pipeline and the chosen execution backend;
* :class:`DistributedArray` — array handles with fluent
  ``.distribute()/.align()/.redistribute()/.realign()`` directives and
  NumPy-flavored indexing that records array statements;
* :class:`Backend` — typed backend specs (``Backend.simulate()``,
  ``Backend.spmd(workers=4, mode="fork")``) selecting how
  statements execute;
* :class:`MachineConfig` — the simulated machine's cost parameters;
* :class:`ExecutionReport` — per-statement communication accounting.

Quick start::

    from repro import Session
    from repro.distributions import Block

    s = Session(8, opt=2)
    pr = s.processors("PR", 8)
    a = s.array("A", 64).distribute(Block(), to=pr)
    b = s.array("B", 32).align(a, lambda I: 2 * I)
    b[:] = a[1::2] + 1.0
    result = s.run()
    print(result.reports[-1].summary())

The second front end — the paper's directive language, now with
``DO``/``END DO`` loops — lowers through the same spine::

    from repro.directives import run_program
    result = run_program(source, n_processors=16, machine=True,
                         opt_level=2)

Everything else (distribution formats, alignment specs, the template
baseline, executors, the experiment registry E1–E12) lives in its
subpackage and is imported from there.
"""

from repro.api import DistributedArray, Session
from repro.engine.executor import ExecutionReport
from repro.machine.backend import Backend
from repro.machine.config import MachineConfig

__version__ = "1.3.0"

__all__ = [
    "Backend",
    "DistributedArray",
    "ExecutionReport",
    "MachineConfig",
    "Session",
    "__version__",
]
