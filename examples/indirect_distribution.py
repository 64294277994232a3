#!/usr/bin/env python3
"""User-defined (INDIRECT) distributions — closing the §8.1.2 gap.

The paper observes that draft HPF "cannot describe explicitly every
distribution that it can actually generate" — the inherited distribution
of a strided section being the running example — whereas Kali and Vienna
Fortran have user-defined distribution functions.  This example opens a
Session and uses the library's INDIRECT extension to:

1. capture the inherited mapping of A(2:996:2) (CYCLIC(3) parent) and
   re-declare it *explicitly* on a fresh array;
2. build a graph-partition-style mapping no standard format expresses
   (greedy bisection of a 1-D chain with irregular weights);
3. run a weighted relaxation under it and compare load balance with
   BLOCK.

Run:  python examples/indirect_distribution.py
"""

import numpy as np

from repro import Session
from repro.bench.harness import format_table
from repro.core.procedures import InheritedSectionDistribution
from repro.distributions import Block, Cyclic, GeneralBlock
from repro.distributions.indirect import Indirect, UserDefined
from repro.fortran.triplet import Triplet
from repro.workloads.irregular import (
    imbalance_of_partition,
    lpt_partition,
    stepped_costs,
)


def main() -> None:
    np_ = 8
    s = Session(np_, machine=False)
    pr = s.processors("PR", np_)

    # 1. the §8.1.2 mapping, made explicit ---------------------------
    a = s.array("A", 1000).distribute(Cyclic(3), to=pr)
    sec = s.ds.section("A", Triplet(2, 996, 2))
    inherited = InheritedSectionDistribution(a.distribution(), sec)
    mapping = inherited.primary_owner_map()
    x = s.array("X", 498).distribute(Indirect(mapping), to=pr)
    same = bool(np.array_equal(s.ds.owner_map(x.name), mapping))
    print("inherited mapping of A(2:996:2) re-declared as INDIRECT:",
          "identical" if same else "DIFFERENT")

    # 2. a mapping outside every standard format ----------------------
    # zig-zag ("boustrophedon") blocks: consecutive blocks alternate
    # direction so each processor gets two far-apart chain segments —
    # a shape neither BLOCK, CYCLIC(k) nor GENERAL_BLOCK can express
    n = 4096
    zigzag = UserDefined(
        lambda i: ((i - 1) * 2 * np_ // n) % (2 * np_) if
        ((i - 1) * 2 * np_ // n) < np_ else
        2 * np_ - 1 - ((i - 1) * 2 * np_ // n),
        name="zigzag")
    w = s.array("W", n).distribute(zigzag, to=pr)
    extents = [w.distribution().local_extent(u) for u in range(np_)]
    print(f"zig-zag mapping: per-processor extents {extents}")

    # 3. irregular weights: INDIRECT from a greedy weighted partition --
    costs = stepped_costs(n, 0.05, 80.0, seed=42)
    owner = lpt_partition(costs, np_)        # heaviest-first greedy
    s.array("V", n).distribute(Indirect(owner), to=pr)

    rows = []
    for label, fmt in (("BLOCK", Block()),
                       ("GENERAL_BLOCK(balanced)",
                        GeneralBlock.balanced_for_costs(costs, np_)),
                       ("INDIRECT(LPT greedy)", Indirect(owner))):
        dd = fmt.bind(Triplet(1, n), np_)
        owners = dd.owners_of(Triplet(1, n).values())
        imb, _ = imbalance_of_partition(costs, owners, np_)
        rows.append({"mapping": label,
                     "max/mean work": f"{imb:.4f}"})
    print()
    print(f"stepped costs (5% of rows are 80x heavier), N={n}, P={np_}:")
    print(format_table(rows))
    print()
    print("GENERAL_BLOCK balances contiguous blocks (the paper's tool);")
    print("INDIRECT can break contiguity for arbitrarily skewed work —")
    print("the user-defined generality the paper credits Kali/Vienna "
          "Fortran with.")


if __name__ == "__main__":
    main()
