#!/usr/bin/env python3
"""Iterative Jacobi relaxation under two mappings of the same grid.

Runs K sweeps of the 5-point Jacobi stencil through the Session API —
the sweep is recorded once as a loop and lowered through the program IR
at ``-O2`` — on 16 processors, once with (BLOCK, BLOCK) on a 4x4 grid
and once with (BLOCK, *) on a line of 16, and tracks numeric
convergence against the sequential semantics (the two runs are
identical by construction — the mapping only decides who owns what,
and so what moves).  The choice is the paper's point: the distribution
is named directly on the arrays, and every communication set follows
from it at compile time.

Run:  python examples/jacobi_iteration.py [N] [iterations]
"""

import sys

import numpy as np

from repro import MachineConfig, Session
from repro.bench.harness import format_table
from repro.distributions import Block, Collapsed


def main(n: int = 128, iterations: int = 20) -> None:
    config = MachineConfig(16)
    results = {}
    for mapping, grid, fmts in (("(BLOCK,BLOCK)", (4, 4), (Block(), Block())),
                                ("(BLOCK,*)", (16,), (Block(), Collapsed()))):
        s = Session(16, machine=config, opt=2)
        pr = s.processors("PR", *grid)
        x = s.array("X", n, n).distribute(*fmts, to=pr)
        xnew = s.array("XNEW", n, n).distribute(*fmts, to=pr)
        # hot boundary, cold interior
        x.data[:] = 0.0
        x.data[0, :] = 100.0
        xnew.data[:] = x.data

        def sweep():
            xnew[1:-1, 1:-1] = 0.25 * (x[:-2, 1:-1] + x[2:, 1:-1]
                                       + x[1:-1, :-2] + x[1:-1, 2:])
            x[1:-1, 1:-1] = xnew[1:-1, 1:-1]

        # all but the last sweep in one recorded loop ...
        with s.loop(iterations - 1):
            sweep()
        s.run()
        before = x.data.copy()
        # ... the last one separately, to measure the final residual
        sweep()
        s.run()
        residual = float(np.abs(x.data - before).max())
        results[mapping] = (s.machine, residual, x.data.copy())

    (_, _, grid_x), (_, _, rows_x) = results.values()
    assert np.array_equal(grid_x, rows_x), "numerics must be identical"

    table = [{
        "mapping": mapping,
        "messages": m.stats.total_messages,
        "words": m.stats.total_words,
        "est_time": f"{m.stats.estimated_time(config):.0f}",
        "final_residual": f"{res:.4f}",
    } for mapping, (m, res, _) in results.items()]
    print(f"Jacobi {n}x{n}, {iterations} sweeps, 16 processors, -O2")
    print(format_table(table))
    print()
    print("(BLOCK,*) talks to two neighbours instead of four: fewer,")
    print("longer messages, which the alpha-beta machine rewards even")
    print("though it moves more words than the 4x4 grid.")
    print(f"temperature at centre after {iterations} sweeps: "
          f"{grid_x[n // 2, n // 2]:.6f}")


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 128
    iters = int(sys.argv[2]) if len(sys.argv) > 2 else 20
    main(n, iters)
