"""Experiments E1-E6; ids and titles live in the ``EXPERIMENTS`` table."""

from __future__ import annotations

import numpy as np

from repro.bench.harness import ExperimentResult
from repro.directives.analyzer import run_program
from repro.distributions.block import Block, BlockVariant
from repro.distributions.cyclic import Cyclic
from repro.distributions.general_block import GeneralBlock
from repro.engine.redistribute import price_remap
from repro.fortran.triplet import Triplet
from repro.machine.config import MachineConfig
from repro.workloads.irregular import (
    imbalance_of_partition,
    power_law_costs,
    stepped_costs,
    triangular_costs,
)

__all__ = ["e01_distribution_formats", "e02_block_definitions",
           "e03_general_block", "e04_cyclic", "e05_alignment",
           "e06_allocatable"]


def e01_distribution_formats() -> ExperimentResult:
    """Run the four §4 example directives and tabulate the ownership."""
    n, nop = 100, 8
    src = f"""
      PARAMETER (NOP = {nop})
      REAL A({n}), B({n}), C({n}), E({n},10), F({n},10)
      INTEGER S(1:3)
!HPF$ PROCESSORS Q(16)
!HPF$ DISTRIBUTE A(BLOCK)
!HPF$ DISTRIBUTE B(CYCLIC) TO Q(1:NOP:2)
!HPF$ DISTRIBUTE C(GENERAL_BLOCK(S)) TO Q(1:4)
!HPF$ DISTRIBUTE (BLOCK, :) :: E,F
"""
    s_bounds = [int(n * 0.3), int(n * 0.6), int(n * 0.9)]
    res = run_program(src, n_processors=16, inputs={"S": s_bounds})
    ds = res.ds
    rows = []
    checks = {}
    for name, directive in (("A", "BLOCK"),
                            ("B", "CYCLIC TO Q(1:NOP:2)"),
                            ("C", f"GENERAL_BLOCK({s_bounds})"),
                            ("E", "(BLOCK, :)")):
        dist = ds.distribution_of(name)
        pmap = dist.primary_owner_map()
        units = dist.processors()
        extents = [dist.local_extent(u) for u in units]
        rows.append({
            "array": name,
            "directive": directive,
            "procs_used": len(units),
            "min_extent": min(extents),
            "max_extent": max(extents),
            "first_owners": " ".join(str(v) for v in
                                     pmap.reshape(-1, order="F")[:8]),
        })
    checks["block_is_contiguous"] = bool(
        np.all(np.diff(ds.owner_map("A")) >= 0))
    # B goes only to the odd-position section Q(1:NOP:2)
    b_units = set(ds.distribution_of("B").processors())
    checks["section_target_respected"] = b_units == set(range(0, nop, 2))
    c_map = ds.owner_map("C")
    checks["general_block_bounds"] = (
        int(c_map[s_bounds[0] - 1]) == 0 and int(c_map[s_bounds[0]]) == 1)
    e_map = ds.owner_map("E")
    checks["colon_dim_not_distributed"] = bool(
        (e_map == e_map[:, :1]).all())
    return ExperimentResult(
        rows=rows,
        headline=("All four §4 directives parse and produce the specified "
                  "mappings, including distribution to a processor "
                  "section Q(1:NOP:2)."),
        checks=checks)


def e02_block_definitions() -> ExperimentResult:
    """The §8 footnote: '[with] the Vienna Fortran definition of BLOCK
    ... the HPF definition will cause a problem if and only if the number
    of processors divides N exactly.'

    Mechanism: for the staggered pair P(1:N) / U(0:N), the HPF ceiling
    block size q = ceil(extent/NP) *grows* when going from N to N+1
    elements exactly when NP | N, so the two partitions' boundaries drift
    apart cumulatively; otherwise (and always under the balanced Vienna
    definition) corresponding elements stay within one block of each
    other, i.e. within the stencil's neighbour halo.
    """
    from repro.engine.executor import SimulatedExecutor
    from repro.machine.simulator import DistributedMachine
    from repro.workloads.stencil import staggered_grid_case

    np_, grid = 8, 4
    rows = []
    checks = {}
    for n in (30, 31, 32, 33, 40):
        divides = n % np_ == 0
        row = {"N": n, "NP": np_, "NP_divides_N": divides}
        drifts = {}
        for variant, label in ((BlockVariant.HPF, "hpf"),
                               (BlockVariant.VIENNA, "vienna")):
            bp = Block(variant=variant).bind(Triplet(1, n), np_)
            bu = Block(variant=variant).bind(Triplet(0, n), np_)
            drift = max(abs(bu.owner_coord(i) - bp.owner_coord(i))
                        for i in range(1, n + 1))
            drifts[label] = drift
            row[f"{label}_drift"] = drift
        bp = Block().bind(Triplet(1, n), np_)
        bu = Block().bind(Triplet(0, n), np_)
        row["hpf_qP"] = bp.block_size
        row["hpf_qU"] = bu.block_size
        # measure the footnote's consequence on the machine: staggered
        # stencil traffic under both definitions (grid of `grid` procs
        # per dimension)
        words = {}
        for strategy, label in (("direct-hpf-block", "hpf"),
                                ("direct-block", "vienna")):
            case = staggered_grid_case(n, grid, grid, strategy)
            machine = DistributedMachine(MachineConfig(grid * grid))
            report = SimulatedExecutor(case.ds, machine).execute(
                case.statement)
            words[label] = report.total_words
            row[f"{label}_stencil_words"] = report.total_words
        rows.append(row)
        # the exact footnote mechanism: the ceiling grows iff NP | N
        checks.setdefault("hpf_block_grows_iff_np_divides_n", True)
        checks["hpf_block_grows_iff_np_divides_n"] &= (
            (bu.block_size > bp.block_size) == divides)
        # ... and its measured consequence: extra traffic iff grid | N
        checks.setdefault("hpf_traffic_worse_iff_divisible", True)
        checks["hpf_traffic_worse_iff_divisible"] &= (
            (words["hpf"] > words["vienna"]) == (n % grid == 0))
        if divides:
            checks[f"N{n}_vienna_perfect"] = drifts["vienna"] == 0
            checks[f"N{n}_hpf_drifts"] = drifts["hpf"] > drifts["vienna"]
    checks["vienna_drift_bounded_by_1"] = all(
        r["vienna_drift"] <= 1 for r in rows)
    # ... and the extra traffic is no rounding artefact: at least 2x
    checks["hpf_words_at_least_double_when_divisible"] = all(
        r["hpf_stencil_words"] >= 2 * r["vienna_stencil_words"]
        for r in rows if r["N"] % grid == 0)
    return ExperimentResult(
        rows=rows,
        headline=("The HPF ceiling block size grows from the [1:N] to the "
                  "[0:N] partition exactly when NP | N, letting the "
                  "partitions drift apart (drift 2 at N=32, NP=8); the "
                  "Vienna definition keeps drift <= 1 always and 0 in "
                  "the divisible case — the §8 footnote."),
        checks=checks)


def e03_general_block() -> ExperimentResult:
    """BLOCK vs GENERAL_BLOCK imbalance on irregular per-index costs."""
    n, np_ = 4096, 8
    rows = []
    checks = {}
    profiles = {
        "triangular": triangular_costs(n),
        "power_law": power_law_costs(n, 2.0),
        "stepped": stepped_costs(n, 0.1, 50.0, seed=7),
    }
    dim = Triplet(1, n)
    for label, costs in profiles.items():
        block = Block().bind(dim, np_)
        owners_block = block.owner_coord_array(dim.values())
        imb_b, _ = imbalance_of_partition(costs, owners_block, np_)
        gb = GeneralBlock.balanced_for_costs(costs, np_).bind(dim, np_)
        owners_gb = gb.owner_coord_array(dim.values())
        imb_g, _ = imbalance_of_partition(costs, owners_gb, np_)
        rows.append({
            "profile": label, "N": n, "NP": np_,
            "block_imbalance": imb_b,
            "general_block_imbalance": imb_g,
            "improvement_x": imb_b / imb_g,
        })
        checks[f"{label}_gb_wins"] = imb_g < imb_b
        checks[f"{label}_gb_near_optimal"] = imb_g < 1.35
    return ExperimentResult(
        rows=rows,
        headline=("GENERAL_BLOCK bounds chosen from the cost profile "
                  "bring max/mean work close to 1.0 where equal-size "
                  "BLOCKs leave up to ~2x imbalance — the load-balancing "
                  "use the paper cites [13]."),
        checks=checks)


def e04_cyclic() -> ExperimentResult:
    n, np_ = 1000, 7
    rows = []
    checks = {}
    dim = Triplet(1, n)
    for k in (1, 2, 3, 5):
        cd = Cyclic(k).bind(dim, np_)
        owners = cd.owner_coord_array(dim.values())
        extents = [cd.local_extent(p) for p in range(np_)]
        # round-robin invariant: owner(i + k*NP) == owner(i)
        period_ok = bool(np.array_equal(owners[:n - k * np_],
                                        owners[k * np_:]))
        # segment invariant: within each k-segment the owner is constant
        seg_ok = all(
            len(set(owners[s:s + k])) == 1
            for s in range(0, n - k, k))
        rows.append({
            "k": k, "N": n, "NP": np_,
            "min_extent": min(extents), "max_extent": max(extents),
            "periodic": period_ok, "segments_intact": seg_ok,
        })
        checks[f"cyclic{k}_periodic"] = period_ok
        checks[f"cyclic{k}_segments"] = seg_ok
        checks[f"cyclic{k}_balance"] = max(extents) - min(extents) <= k
    return ExperimentResult(
        rows=rows,
        headline=("k-segments are dealt round-robin with period k*NP and "
                  "per-processor extents within one segment of each "
                  "other."),
        checks=checks)


def e05_alignment() -> ExperimentResult:
    """The two worked examples of §5.1, executed end to end."""
    n, m, np_ = 64, 48, 8
    src = f"""
      REAL A(1:{n}), D(1:{n},1:{m})
      REAL B(1:{n},1:{m}), E(1:{n})
!HPF$ PROCESSORS PR({np_})
!HPF$ ALIGN A(:) WITH D(:,*)
!HPF$ ALIGN B(:,*) WITH E(:)
!HPF$ DISTRIBUTE D(BLOCK,:) TO PR
!HPF$ DISTRIBUTE E(CYCLIC) TO PR
"""
    res = run_program(src, n_processors=np_)
    ds = res.ds
    rows = []
    checks = {}
    # Example 1: A(:) WITH D(:,*) — a copy of A aligned with every column
    a_dist = ds.distribution_of("A")
    img = ds.forest.alignment_of("A").image((2,))
    rows.append({
        "example": "ALIGN A(:) WITH D(:,*)",
        "image_of": "A(2)",
        "image_size": len(img),
        "replicated": a_dist.is_replicated,
        "owners_A2": len(a_dist.owners((2,))),
    })
    checks["replication_image"] = img == frozenset(
        (2, k) for k in range(1, m + 1))
    # D's columns are collapsed (':' format), so every copy of A(2) still
    # lands on D(2,:)'s single owner — the CONSTRUCT union
    checks["construct_union"] = a_dist.owners((2,)) == ds.owners("D",
                                                                 (2, 1))
    # Example 2: B(:,*) WITH E(:) — collapse
    b_dist = ds.distribution_of("B")
    img2 = ds.forest.alignment_of("B").image((2, 3))
    rows.append({
        "example": "ALIGN B(:,*) WITH E(:)",
        "image_of": "B(2,3)",
        "image_size": len(img2),
        "replicated": b_dist.is_replicated,
        "owners_B23": len(b_dist.owners((2, 3))),
    })
    checks["collapse_image"] = img2 == frozenset({(2,)})
    checks["collapse_follows_base"] = (
        b_dist.owners((2, 3)) == ds.owners("E", (2,)))
    checks["whole_row_collocated"] = all(
        b_dist.owners((5, j)) == ds.owners("E", (5,))
        for j in range(1, m + 1, 7))
    return ExperimentResult(
        rows=rows,
        headline=("ALIGN A(:) WITH D(:,*) replicates A over all M "
                  "columns; ALIGN B(:,*) WITH E(:) collapses B's second "
                  "axis — both reduced forms match the paper's "
                  "derivations exactly."),
        checks=checks)


def e06_allocatable() -> ExperimentResult:
    m, n, np_ = 4, 8, 32
    src = """
      REAL,ALLOCATABLE(:,:) :: A,B
      REAL,ALLOCATABLE(:) :: C,D
!HPF$ PROCESSORS PR(32)
!HPF$ DISTRIBUTE A(CYCLIC,BLOCK)
!HPF$ DISTRIBUTE(BLOCK) :: C,D
!HPF$ DYNAMIC B,C

      READ 6,M,N

      ALLOCATE(A(N*M,N*M))
      ALLOCATE(B(N,N))
!HPF$ REALIGN B(:,:) WITH A(M::M,1::M)
      ALLOCATE(C(10000), D(10000))
!HPF$ REDISTRIBUTE C(CYCLIC) TO PR
"""
    res = run_program(src, n_processors=np_, inputs={"M": m, "N": n})
    ds = res.ds
    rows = []
    checks = {}
    for event in ds.remap_events:
        matrix, moved = price_remap(event, np_)
        rows.append({
            "event": event.reason, "array": event.array,
            "elements_moved": moved,
            "messages": int(np.count_nonzero(matrix)),
        })
    trees = ds.forest_snapshot()
    checks["B_aligned_to_A"] = trees.get("A") == frozenset({"B"})
    checks["C_degenerate_after_redistribute"] = ("C" in trees
                                                 and not trees["C"])
    # collocation invariant of the REALIGN: B(i,j) with A(M*i, M*(j-1)+1)
    checks["realign_collocation"] = all(
        ds.owners("B", (i, j)) <= ds.owners("A", (m * i, m * (j - 1) + 1))
        for i in range(1, n + 1, 3) for j in range(1, n + 1, 3))
    checks["allocations_moved_nothing"] = all(
        r["elements_moved"] == 0 for r in rows
        if r["event"] == "ALLOCATE")
    checks["redistribute_moved_data"] = any(
        r["elements_moved"] > 0 for r in rows
        if r["event"] == "REDISTRIBUTE")
    return ExperimentResult(
        rows=rows,
        headline=("The §6 program runs end to end: spec-part attributes "
                  "propagate to ALLOCATE instances, REALIGN attaches B "
                  "to A with the M::M alignment, REDISTRIBUTE moves "
                  "exactly the elements whose owner changed."),
        checks=checks)
