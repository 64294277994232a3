"""Experiments E7-E12; ids and titles live in the ``EXPERIMENTS`` table."""

from __future__ import annotations

import numpy as np

from repro.align.ast import Dummy
from repro.align.spec import AlignSpec, AxisDummy, BaseExpr
from repro.bench.harness import ExperimentResult
from repro.core.dataspace import DataSpace
from repro.core.procedures import (
    DummyMode,
    DummySpec,
    Procedure,
    distributions_equal,
)
from repro.distributions.block import Block
from repro.distributions.cyclic import Cyclic
from repro.distributions.distribution import FormatDistribution
from repro.distributions.general_block import GeneralBlock
from repro.engine.executor import SimulatedExecutor
from repro.engine.redistribute import price_remap
from repro.errors import ConformanceError, TemplateError
from repro.fortran.triplet import Triplet
from repro.machine.config import MachineConfig
from repro.machine.simulator import DistributedMachine
from repro.templates.equivalence import (
    derive_general_block_formats,
    mappings_equivalent,
    verify_equivalence,
)
from repro.templates.inherit import inherit_mapping
from repro.templates.model import TemplateDataSpace
from repro.workloads.generators import seeded_rng
from repro.workloads.stencil import staggered_grid_case

__all__ = ["e07_procedures", "e08_staggered_grid", "e09_section_args",
           "e10_allocatable_templates", "e11_forest_height",
           "e12_equivalence"]


def e07_procedures() -> ExperimentResult:
    n, np_ = 10000, 8
    rows = []
    checks = {}

    def fresh_caller() -> DataSpace:
        ds = DataSpace(np_)
        ds.processors("PR", np_)
        ds.declare("A", n)
        ds.distribute("A", [Block()], to="PR")
        return ds

    noop = lambda frame, x: None   # noqa: E731

    # mode 1: explicit — remap to CYCLIC and restore on exit
    ds = fresh_caller()
    proc = Procedure("S_EXPL", [DummySpec(
        "X", DummyMode.EXPLICIT, formats=(Cyclic(),), to="PR")], noop)
    rec = proc.call(ds, "A")
    entry_words = sum(price_remap(e, np_)[1] for e in rec.entry_remaps)
    exit_words = sum(price_remap(e, np_)[1] for e in rec.exit_restores)
    rows.append({"mode": "explicit CYCLIC", "entry_moved": entry_words,
                 "exit_moved": exit_words, "conforming": True})
    checks["explicit_remaps"] = entry_words > 0
    checks["explicit_restores"] = exit_words == entry_words
    checks["caller_mapping_restored"] = distributions_equal(
        ds.distribution_of("A"),
        FormatDistribution(ds.arrays["A"].domain, (Block(),),
                           ds.resolve_target("PR", 1), ds.ap))

    # mode 2: inherit — zero movement
    ds = fresh_caller()
    proc = Procedure("S_INH", [DummySpec("X", DummyMode.INHERIT)], noop)
    rec = proc.call(ds, "A")
    rows.append({"mode": "inherit *", "entry_moved": 0
                 if not rec.entry_remaps else -1,
                 "exit_moved": 0 if not rec.exit_restores else -1,
                 "conforming": True})
    checks["inherit_is_free"] = not rec.entry_remaps and \
        not rec.exit_restores

    # mode 3: inherit-match — matching passes, mismatch non-conforming
    ds = fresh_caller()
    proc = Procedure("S_MATCH", [DummySpec(
        "X", DummyMode.INHERIT_MATCH, formats=(Block(),), to="PR")], noop)
    rec = proc.call(ds, "A")
    checks["match_ok_is_free"] = not rec.entry_remaps
    ds = fresh_caller()
    proc = Procedure("S_MISMATCH", [DummySpec(
        "X", DummyMode.INHERIT_MATCH, formats=(Cyclic(),), to="PR")], noop)
    try:
        proc.call(ds, "A")
        nonconf = False
    except ConformanceError:
        nonconf = True
    rows.append({"mode": "inherit-match (mismatch)", "entry_moved": 0,
                 "exit_moved": 0, "conforming": not nonconf})
    checks["mismatch_nonconforming"] = nonconf
    # ... unless the interface is known: the processor remaps
    ds = fresh_caller()
    rec = proc.call(ds, "A", interface_known=True)
    words = sum(price_remap(e, np_)[1] for e in rec.entry_remaps)
    rows.append({"mode": "inherit-match (interface known)",
                 "entry_moved": words, "exit_moved": words,
                 "conforming": True})
    checks["interface_remap"] = words > 0

    # dummies redistributed inside the body are restored on exit
    ds = fresh_caller()

    def body(frame, x) -> None:
        frame.redistribute("X", [Cyclic(3)], to=None)

    proc = Procedure("S_DYN", [DummySpec("X", DummyMode.INHERIT,
                                         dynamic=True)], body)
    rec = proc.call(ds, "A")
    rows.append({"mode": "body REDISTRIBUTE (restore)",
                 "entry_moved": 0,
                 "exit_moved": sum(price_remap(e, np_)[1]
                                   for e in rec.exit_restores),
                 "conforming": True})
    checks["body_redistribute_restored"] = len(rec.exit_restores) == 1
    return ExperimentResult(
        rows=rows,
        headline=("Explicit specs remap the actual and restore it on "
                  "exit; inheritance is free; inheritance matching "
                  "rejects mismatches unless an interface block lets the "
                  "processor remap; body redistributes are undone on "
                  "return."),
        checks=checks)


def e08_staggered_grid() -> ExperimentResult:
    n, r, c = 128, 4, 4
    rows = []
    checks = {}
    config = MachineConfig(r * c)
    results = {}
    for strategy in ("template-cyclic", "template-block", "direct-block",
                     "direct-general-block", "max-align"):
        case = staggered_grid_case(n, r, c, strategy)
        machine = DistributedMachine(config)
        report = SimulatedExecutor(case.ds, machine).execute(
            case.statement)
        results[strategy] = report
        rows.append({
            "strategy": strategy, "N": n, "procs": r * c,
            "locality": report.locality,
            "words": report.total_words,
            "messages": report.total_messages,
            "est_time": machine.stats.estimated_time(config),
        })
    tc = results["template-cyclic"]
    tb = results["template-block"]
    db = results["direct-block"]
    dg = results["direct-general-block"]
    ma = results["max-align"]
    checks["cyclic_template_is_worst"] = tc.total_words == max(
        x.total_words for x in results.values())
    # "the worst possible effect, viz. different processor allocations
    # for any two neighbors": every reference is off-processor
    checks["cyclic_template_zero_locality"] = tc.locality == 0.0
    checks["block_template_recovers_locality"] = tb.locality > 0.8
    checks["direct_block_matches_template_block"] = (
        db.total_words <= tb.total_words * 1.5)
    checks["general_block_works"] = dg.locality > 0.8
    # §8.1.1: the MAX/MIN explicit-alignment extension "will suffice"
    checks["max_min_alignment_suffices"] = ma.locality >= db.locality
    return ExperimentResult(
        rows=rows,
        headline=("A (CYCLIC,CYCLIC) template puts every neighbour on a "
                  "different processor (locality 0) — the paper's 'worst "
                  "possible effect'; (BLOCK,BLOCK) — via the template or "
                  "directly, without one — recovers >80% locality; "
                  "GENERAL_BLOCK and the paper's MAX/MIN explicit "
                  "alignment give the same answer with no template."),
        checks=checks)


def e09_section_args() -> ExperimentResult:
    n, np_ = 1000, 4
    rows = []
    checks = {}
    section = (Triplet(2, 996, 2),)

    # the template-model reading: T(1000), ALIGN X(I) WITH T(2*I),
    # DISTRIBUTE T(CYCLIC(3))
    tds = TemplateDataSpace(np_)
    tds.processors("PR", np_)
    tds.declare("A", n)
    tds.distribute("A", [Cyclic(3)], to="PR")
    inherited = inherit_mapping(tds, "A", _section(tds, "A", section))
    tds2 = TemplateDataSpace(np_)
    tds2.processors("PR", np_)
    tds2.template("T", n)
    tds2.declare("X", 498)
    i = Dummy("I")
    tds2.align(AlignSpec("X", [AxisDummy("I")], "T", [BaseExpr(2 * i)]))
    tds2.distribute("T", [Cyclic(3)], to="PR")
    template_map = tds2.owner_map("X")
    inherit_map = inherited.owner_map()
    checks["template_equals_inheritance"] = bool(
        np.array_equal(template_map, inherit_map))
    rows.append({"spec": "TEMPLATE T(1000) / ALIGN X(I) WITH T(2*I)",
                 "owners_equal_inherited": bool(
                     np.array_equal(template_map, inherit_map)),
                 "remap_words": 0})

    # the paper's template-free alternative: pass A too and
    # ALIGN X(I) WITH A(2*I) with A's distribution inherited
    ds = DataSpace(np_)
    ds.processors("PR", np_)
    ds.declare("A", n)
    ds.declare("X", 498)
    ds.distribute("A", [Cyclic(3)], to="PR")
    ds.align(AlignSpec("X", [AxisDummy("I")], "A", [BaseExpr(2 * i)]))
    paper_map = ds.owner_map("X")
    checks["paper_spec_equals_template_spec"] = bool(
        np.array_equal(paper_map, template_map))
    rows.append({"spec": "ALIGN X(I) WITH A(2*I) (no template)",
                 "owners_equal_inherited": bool(
                     np.array_equal(paper_map, inherit_map)),
                 "remap_words": 0})

    # star-distribution check under INHERIT (the draft-HPF surprise):
    # DISTRIBUTE X *(CYCLIC(3)) talks about A, not the section
    try:
        inherited.check_star_distribution((Cyclic(3),))
        star_ok = True
    except ConformanceError:
        star_ok = False
    checks["inherit_star_describes_ultimate_base"] = star_ok
    try:
        inherited.check_star_distribution((Cyclic(4),))
        star_bad = False
    except ConformanceError:
        star_bad = True
    checks["inherit_star_rejects_wrong_assertion"] = star_bad

    # forcing an explicit distribution on the dummy costs a remap
    ds2 = DataSpace(np_)
    ds2.processors("PR", np_)
    ds2.declare("A", n)
    ds2.distribute("A", [Cyclic(3)], to="PR")
    moved = {}
    for mode, spec in (("inherit", DummySpec("X", DummyMode.INHERIT)),
                       ("explicit CYCLIC(3)",
                        DummySpec("X", DummyMode.EXPLICIT,
                                  formats=(Cyclic(3),), to="PR"))):
        proc = Procedure("SUB", [spec], lambda frame, x: None)
        rec = proc.call(ds2, ("A", section))
        moved[mode] = sum(price_remap(e, np_)[1]
                          for e in rec.entry_remaps)
        rows.append({"spec": f"CALL SUB(A(2:996:2)) [{mode}]",
                     "owners_equal_inherited": mode == "inherit",
                     "remap_words": moved[mode]})
    checks["inheritance_is_free"] = moved["inherit"] == 0
    checks["explicit_respec_costs"] = moved["explicit CYCLIC(3)"] > 0
    return ExperimentResult(
        rows=rows,
        headline=("The template spec, the INHERIT mechanism and the "
                  "paper's template-free ALIGN X(I) WITH A(2*I) all "
                  "induce the identical ownership for the section; "
                  "inheriting is free while re-specifying the dummy's "
                  "distribution costs a remap."),
        checks=checks)


def _section(tds, name: str, subs):
    from repro.fortran.section import ArraySection
    return ArraySection(tds.arrays[name].domain, subs)


def e10_allocatable_templates() -> ExperimentResult:
    np_ = 8
    rows = []
    checks = {}
    # template model: aligning a run-time-shaped array to a template
    tds = TemplateDataSpace(np_)
    tds.processors("PR", np_)
    tds.template("T", 1024)
    tds.declare("B", 100, runtime_shape=True)   # extent known at run time
    i = Dummy("I")
    try:
        tds.align(AlignSpec("B", [AxisDummy("I")], "T",
                            [BaseExpr(2 * i)]))
        failed = False
    except TemplateError:
        failed = True
    rows.append({"model": "template", "operation":
                 "ALIGN runtime-shaped B WITH T(2*I)",
                 "outcome": "TemplateError" if failed else "accepted"})
    checks["template_rejects_runtime_alignee"] = failed
    # ... and templates cannot be allocatable or passed
    try:
        tds.templates["T"].allocate()
        alloc_failed = False
    except TemplateError:
        alloc_failed = True
    try:
        tds.pass_template("T")
        pass_failed = False
    except TemplateError:
        pass_failed = True
    rows.append({"model": "template", "operation": "ALLOCATE(T)",
                 "outcome": "TemplateError" if alloc_failed else "ok"})
    rows.append({"model": "template", "operation": "CALL SUB(T)",
                 "outcome": "TemplateError" if pass_failed else "ok"})
    checks["template_not_allocatable"] = alloc_failed
    checks["template_not_passable"] = pass_failed

    # paper model: repeated ALLOCATE/DEALLOCATE with run-time extents,
    # alignment and redistribution all work
    ds = DataSpace(np_)
    ds.processors("PR", np_)
    ds.declare("A", 1024, dynamic=True)
    ds.distribute("A", [Cyclic(2)], to="PR")
    ds.declare("B", allocatable=True, dynamic=True, rank=1)
    ok_cycles = 0
    for extent in (64, 100, 256):
        ds.allocate("B", extent)
        ds.realign(AlignSpec("B", [AxisDummy("I")], "A",
                             [BaseExpr(2 * i)]))
        collocated = all(
            ds.owners("B", (k,)) <= ds.owners("A", (2 * k,))
            for k in range(1, extent + 1, extent // 4))
        ok_cycles += collocated
        ds.deallocate("B")
    rows.append({"model": "paper", "operation":
                 "3x ALLOCATE/REALIGN B WITH A(2*I)/DEALLOCATE",
                 "outcome": f"{ok_cycles}/3 collocated"})
    checks["paper_model_handles_allocatables"] = ok_cycles == 3
    return ExperimentResult(
        rows=rows,
        headline=("The template model rejects run-time-shaped alignees "
                  "(fixed template shapes), allocatable templates and "
                  "template arguments; the paper's array-based model "
                  "runs repeated ALLOCATE/REALIGN/DEALLOCATE cycles."),
        checks=checks)


def e11_forest_height() -> ExperimentResult:
    n, np_ = 20000, 8
    rows = []
    checks = {}
    i = Dummy("I")
    height1_forests = []
    for depth in (1, 4, 16, 64):
        tds = TemplateDataSpace(np_)
        tds.processors("PR", np_)
        tds.declare("A0", n + depth)
        tds.distribute("A0", [Block()], to="PR")
        for d in range(1, depth + 1):
            tds.declare(f"A{d}", n + depth - d)
            tds.align(AlignSpec(f"A{d}", [AxisDummy("I")],
                                f"A{d - 1}", [BaseExpr(i + 1)]))
        leaf = f"A{depth}"
        chain_map = tds.owner_map(leaf)
        # the paper's model: the same mapping as a single height-1 edge
        ds = DataSpace(np_)
        ds.processors("PR", np_)
        ds.declare("BASE", n + depth)
        ds.distribute("BASE", [Block()], to="PR")
        ds.declare("LEAF", n)
        ds.align(AlignSpec("LEAF", [AxisDummy("I")], "BASE",
                           [BaseExpr(i + depth)]))
        flat_map = ds.owner_map("LEAF")
        height1_forests.append(ds.forest_snapshot())
        same = bool(np.array_equal(chain_map, flat_map))
        rows.append({"depth": depth, "N": n, "same_mapping": same,
                     "chain_links": tds.resolution_depth(leaf)})
        checks[f"depth{depth}_composition_correct"] = same
    # resolution walks one link per chain level; the height-1 scope
    # holds a single edge whatever the depth
    checks["chain_links_equal_depth"] = all(
        r["chain_links"] == r["depth"] for r in rows)
    checks["height1_forest_is_one_edge"] = all(
        f == {"BASE": frozenset({"LEAF"})} for f in height1_forests)
    return ExperimentResult(
        rows=rows,
        headline=("Deep alignment chains resolve to the same mapping as "
                  "a single height-1 alignment, but ownership resolution "
                  "walks every link; the paper's height-1 invariant "
                  "keeps one edge per secondary at any depth."),
        checks=checks)


def e12_equivalence() -> ExperimentResult:
    cases, np_ = 12, 6
    rows = []
    checks = {}
    rng = seeded_rng("e12", cases, np_)
    i = Dummy("I")
    all_ok = True
    gb_ok = 0
    gb_applicable = 0
    for case in range(cases):
        tn = int(rng.integers(64, 256))
        a = int(rng.integers(1, 4))
        n = (tn - int(rng.integers(8, 16))) // a
        slack = tn - a * n           # >= 8 by construction
        b = int(rng.integers(1, slack + 1))   # a*n + b <= tn: no clamping
        kind = ("BLOCK", "CYCLIC", "CYCLIC(k)", "GENERAL_BLOCK")[
            case % 4]
        tds = TemplateDataSpace(np_)
        tds.processors("PR", np_)
        tds.template("T", tn)
        tds.declare("X", n)
        spec = AlignSpec("X", [AxisDummy("I")], "T", [BaseExpr(a * i + b)])
        tds.align(spec)
        if kind == "BLOCK":
            fmt = Block()
        elif kind == "CYCLIC":
            fmt = Cyclic()
        elif kind == "CYCLIC(k)":
            fmt = Cyclic(int(rng.integers(2, 6)))
        else:
            cuts = sorted(rng.integers(1, tn, size=np_ - 1).tolist())
            fmt = GeneralBlock(cuts)
        tds.distribute("T", [fmt], to="PR")
        result = verify_equivalence(tds, "T", [spec])
        ok = result["X"]
        all_ok &= ok
        gb_row = "-"
        if kind in ("BLOCK", "GENERAL_BLOCK"):
            gb_applicable += 1
            tdist = tds._dist["T"]
            fmts, target = derive_general_block_formats(
                tdist, tds._aligned_to["X"][1], tds.arrays["X"].domain)
            direct = FormatDistribution(tds.arrays["X"].domain, fmts,
                                        target, tds.ap)
            gb_eq = mappings_equivalent(direct, tds.distribution_of("X"))
            gb_ok += gb_eq
            gb_row = "yes" if gb_eq else "NO"
        rows.append({"case": case, "template_N": tn,
                     "align": f"{a}*I+{b}", "format": str(fmt),
                     "witness_equivalent": ok,
                     "general_block_equivalent": gb_row})
    checks["witness_strategy_always_equivalent"] = bool(all_ok)
    checks["general_block_strategy_equivalent"] = gb_ok == gb_applicable
    return ExperimentResult(
        rows=rows,
        headline=(f"For {cases} randomized template-based mappings, the "
                  "witness-array derivation reproduces the element-to-"
                  "processor map exactly; block-partitioned cases are "
                  "also expressible directly as GENERAL_BLOCK with no "
                  "auxiliary array."),
        checks=checks)
