"""Cold paths derive ownership from the layout's structure, at any size.

* Invariant 1 (counts are exact): whether an aligned array is replicated
  is decided from the alignment's ``*`` axes and the base's per-axis
  owner coordinates, so the same program classifies and counts the same
  at n=200 and at n=70 000 (a size threshold used to guess above 65 536
  elements).
* ``CYCLIC(k) -> CYCLIC(k')`` comm sets are residue lattices: the cold
  compile of the ``CYCLIC(3) -> CYCLIC(7)``, P=16 reshuffle does not grow
  with n.
* The bulk owner-set kernel (``Distribution.owner_mask``) answers the
  replicated ``comm_matrix`` branch and ``price_remap`` exactly as the
  per-element reference kept below, with no size limit and without a
  single ``AlignmentFunction.image`` call.
"""

from __future__ import annotations

import itertools
import math
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.ast import Dummy
from repro.align.function import AlignmentFunction
from repro.align.spec import AlignSpec, AxisDummy, AxisStar, BaseExpr, BaseStar
from repro.core.dataspace import DataSpace, RemapEvent
from repro.directives.analyzer import run_program
from repro.distributions.base import Collapsed
from repro.distributions.block import Block
from repro.distributions.cyclic import Cyclic
from repro.distributions.general_block import GeneralBlock
from repro.distributions.replicated import (
    ReplicatedDistribution,
    ReplicatedFormat,
)
from repro.engine.assignment import Assignment
from repro.engine.commsets import analytic_comm_sets, comm_matrix
from repro.engine.expr import ArrayRef
from repro.engine.planstore import PlanStore, swapped_plan_store
from repro.engine.redistribute import price_remap
from repro.engine.schedule import schedule_for
from repro.engine.spmd import SpmdExecutor
from repro.fortran.triplet import Triplet
from repro.machine.config import MachineConfig
from repro.machine.simulator import DistributedMachine
from repro.processors.section import ProcessorSection


# ----------------------------------------------------------------------
# Per-element references (the walks the bulk kernels replaced)
# ----------------------------------------------------------------------
def reference_comm_matrix(lhs_dist, lhs_section, ref_dist, ref_section, p):
    matrix = np.zeros((p, p), dtype=np.int64)
    local = off = 0
    for t in lhs_section.domain():
        dst = lhs_dist.primary_owner(lhs_section.to_parent(t))
        owners = ref_dist.owners(ref_section.to_parent(t))
        if dst in owners:
            local += 1
        else:
            off += 1
            matrix[min(owners), dst] += 1
    return matrix, local, off


def reference_price_remap(old, new, p):
    matrix = np.zeros((p, p), dtype=np.int64)
    moved = 0
    for idx in old.domain:
        old_owners = old.owners(idx)
        for dst in new.owners(idx) - old_owners:
            matrix[min(old_owners), dst] += 1
            moved += 1
    return matrix, moved


def position(dist, idx):
    return tuple(d.position(v) for v, d in zip(idx, dist.domain.dims))


# ----------------------------------------------------------------------
# Invariant 1: the ROADMAP program, straddling the old threshold
# ----------------------------------------------------------------------
ROW_REPLICATED = """
      READ 6,N
      REAL G(N,8), W(N), X(N)
!HPF$ PROCESSORS PR(4)
!HPF$ DISTRIBUTE G(BLOCK,:) TO PR
!HPF$ ALIGN W(I) WITH G(I,*)
!HPF$ DISTRIBUTE X(CYCLIC) TO PR
      X = W + 1
"""


@pytest.mark.parametrize("n", [200, 70_000])
def test_star_into_collapsed_axis_is_not_replicated_at_any_size(n):
    """``W(I) WITH G(I,*)`` with ``G`` ``(BLOCK, :)``: the ``*`` spans a
    ``:`` dimension, so every W element has exactly one owner and
    ``X = W + 1`` is a dense BLOCK -> CYCLIC alltoall of 3n/4 words."""
    res = run_program(ROW_REPLICATED, n_processors=4, inputs={"N": n},
                      machine=True)
    assert res.ds.distribution_of("W").is_replicated is False
    report = res.reports[-1]
    assert report.patterns == {"W": "alltoall"}
    assert int(report.words.sum()) == 3 * n // 4


@st.composite
def star_alignments(draw):
    """A ``W`` aligned with ``*`` into a rank-2 base ``G`` whose dims are
    ``:``, BLOCK, CYCLIC(k), GENERAL_BLOCK, REPLICATED or on a
    one-coordinate processor axis."""
    shape = [draw(st.integers(1, 7)), draw(st.integers(1, 7))]
    formats, extents = [], []
    for n in shape:
        kind = draw(st.sampled_from(
            ["colon", "block", "cyclic", "gb", "rep"]))
        if kind == "colon":
            formats.append(Collapsed())
            continue
        np_ = draw(st.integers(2 if kind == "rep" else 1, 3))
        extents.append(np_)
        if kind == "block":
            formats.append(Block())
        elif kind == "cyclic":
            formats.append(Cyclic(draw(st.integers(1, 4))))
        elif kind == "rep":
            formats.append(ReplicatedFormat())
        else:
            formats.append(GeneralBlock(sorted(draw(st.lists(
                st.integers(0, n), min_size=np_ - 1, max_size=np_ - 1)))))
    if not extents:
        formats[0] = Block()
        extents.append(2)
    ds = DataSpace(math.prod(extents))
    ds.processors("PR", *extents)
    ds.declare("G", *shape)
    ds.distribute("G", formats, to="PR")
    star_axis = draw(st.sampled_from([0, 1, None]))
    if star_axis is None:
        ds.declare("W", draw(st.integers(1, 5)))
        spec = AlignSpec("W", [AxisStar()], "G", [BaseStar(), BaseStar()])
    else:
        ds.declare("W", shape[1 - star_axis])
        subs = [BaseExpr(Dummy("I")), BaseExpr(Dummy("I"))]
        subs[star_axis] = BaseStar()
        spec = AlignSpec("W", [AxisDummy("I")], "G", subs)
    ds.align(spec)
    return ds


@given(star_alignments())
@settings(max_examples=150, deadline=None)
def test_structural_replication_equals_owner_walk(ds):
    dist = ds.distribution_of("W")
    owners = {idx: dist.owners(idx) for idx in dist.domain}
    assert dist.is_replicated == any(len(o) > 1 for o in owners.values())
    units = sorted(set().union(*owners.values()))
    assert list(dist.processors()) == units
    smallest = dist.smallest_owner_map()
    for unit in range(ds.ap.size):
        mask = dist.owner_mask(unit)
        for idx, o in owners.items():
            assert mask[position(dist, idx)] == (unit in o)
    for idx, o in owners.items():
        assert smallest[position(dist, idx)] == min(o)


# ----------------------------------------------------------------------
# Bulk kernel == per-element reference
# ----------------------------------------------------------------------
@given(star_alignments(), st.data())
@settings(max_examples=100, deadline=None)
def test_bulk_comm_matrix_and_remap_equal_reference(ds, data):
    """Format (with REPLICATED dims), Constructed (with ``*``) and
    Replicated distributions, as operand, target, and remap ends."""
    w = ds.distribution_of("W")
    n = w.domain.size
    p = ds.ap.size
    ds.processors("Q", p)
    lhs_fmt = data.draw(st.sampled_from(
        [Block(), Cyclic(2), ReplicatedFormat()]))
    ds.declare("X", n)
    ds.distribute("X", [lhs_fmt], to="Q")
    x = ds.distribution_of("X")
    units = data.draw(st.sets(st.integers(0, p - 1), min_size=1))
    rep = ReplicatedDistribution(w.domain, units)
    length = data.draw(st.integers(1, n))
    lo = data.draw(st.integers(1, n - length + 1))
    sec = Triplet(lo, lo + length - 1)
    xs, ws = ds.section("X", sec), ds.section("W", sec)
    for lhs, ref in ((x, w), (x, rep), (w, x), (rep, w)):
        got = comm_matrix(lhs, xs, ref, ws, p)
        want = reference_comm_matrix(lhs, xs, ref, ws, p)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1:] == want[1:]
    for old, new in ((x, w), (w, x), (w, rep), (rep, w), (x, rep)):
        matrix, moved = price_remap(RemapEvent("W", old, new, "test"), p)
        want_matrix, want_moved = reference_price_remap(old, new, p)
        np.testing.assert_array_equal(matrix, want_matrix)
        assert moved == want_moved


@pytest.mark.parametrize("grid,g_formats,star", [
    ((2, 2), [Block(), Block()], True),    # replicated over grid columns
    ((4,), [Block(), Collapsed()], True),  # `*` into `:`: one owner
    ((2, 2), [Block(), Block()], False),   # plain aligned operand
])
@pytest.mark.parametrize("spmd", [False, True])
def test_compile_and_key_aligned_operand_makes_no_image_calls(
        monkeypatch, grid, g_formats, star, spmd):
    """Keying and compiling the statement's schedule, and with ``spmd``
    also compiling (and running) its SPMD window plan, reads the ALIGNed
    operand's owners in bulk: zero ``AlignmentFunction.image`` calls."""
    n = 20_000
    ds = DataSpace(4)
    ds.processors("PR", *grid)
    ds.processors("Q", 4)
    ds.declare("G", n, 4)
    ds.declare("W", n)
    ds.declare("X", n)
    ds.distribute("G", g_formats, to="PR")
    ds.align(AlignSpec("W", [AxisDummy("I")], "G",
                       [BaseExpr(Dummy("I")),
                        BaseStar() if star else BaseExpr(2)]))
    ds.distribute("X", [Cyclic()], to="Q")
    calls = []
    image = AlignmentFunction.image

    def counted(self, index):
        calls.append(index)
        return image(self, index)

    monkeypatch.setattr(AlignmentFunction, "image", counted)
    stmt = Assignment(ArrayRef("X", (Triplet(1, n),)),
                      ArrayRef("W", (Triplet(1, n),)))
    with swapped_plan_store(PlanStore()) as store:
        if spmd:
            machine = DistributedMachine(MachineConfig(4))
            with SpmdExecutor(ds, machine, mode="thread") as ex:
                ex.execute(stmt)
                assert len(ex._tasks) == 1
        else:
            assert schedule_for(ds, stmt, 4) is not None
    # the schedule, plus the window plan when one is compiled
    assert store.stats()["misses"] == (2 if spmd else 1)
    assert calls == []


def test_large_replicating_remap_prices_in_bulk():
    """BLOCK -> REPLICATED over 2*10^6 elements on P=4: every element
    gains three copies from its block owner (refused above 10^6 before
    the bulk kernel)."""
    n = 2_000_000
    ds = DataSpace(4)
    ds.processors("PR", 4)
    ds.declare("A", n, dynamic=True)
    ds.distribute("A", [Block()], to="PR")
    start = perf_counter()
    event = ds.redistribute("A", [ReplicatedFormat()], to="PR")
    matrix, moved = price_remap(event, 4)
    assert perf_counter() - start < 2.0
    assert moved == 3 * n
    expected = np.full((4, 4), n // 4, dtype=np.int64)
    np.fill_diagonal(expected, 0)
    np.testing.assert_array_equal(matrix, expected)


#: 2-D remap family: row/column BLOCK and row CYCLIC(3), each on the
#: whole Q(8) or on the section Q(1:7:2), where odd units own nothing
REMAP_LAYOUTS = [(formats, odd)
                 for formats in ((Block(), Collapsed()),
                                 (Collapsed(), Block()),
                                 (Cyclic(3), Collapsed()))
                 for odd in (False, True)]


def _layout_id(layout):
    formats, odd = layout
    return f"({','.join(map(str, formats))}){'@odd' if odd else ''}"


@pytest.mark.parametrize("old,new", [
    pytest.param(a, b, id=f"{_layout_id(a)}->{_layout_id(b)}")
    for a, b in itertools.permutations(REMAP_LAYOUTS, 2)])
def test_two_dim_remap_family_equals_reference(old, new):
    """13 x 10 is divisible by neither 4 nor 8: blocks are ragged and
    some units of the target own nothing."""
    p = 8
    ds = DataSpace(p)
    q = ds.processors("Q", p)

    def target(odd):
        return ProcessorSection(q, (Triplet(1, 7, 2),)) if odd else "Q"

    ds.declare("A", 13, 10, dynamic=True)
    ds.distribute("A", list(old[0]), to=target(old[1]))
    event = ds.redistribute("A", list(new[0]), to=target(new[1]))
    matrix, moved = price_remap(event, p)
    want_matrix, want_moved = reference_price_remap(event.old, event.new, p)
    np.testing.assert_array_equal(matrix, want_matrix)
    assert moved == want_moved == int(matrix.sum())
    assert not np.diagonal(matrix).any()


# ----------------------------------------------------------------------
# CYCLIC(k) -> CYCLIC(k') reshuffle: lattices, not block pairs
# ----------------------------------------------------------------------
RESHUFFLE = """
      READ 6,N
      REAL A(N), B(N)
!HPF$ PROCESSORS PR(16)
!HPF$ DISTRIBUTE A(CYCLIC(3)) TO PR
!HPF$ DISTRIBUTE B(CYCLIC(7)) TO PR
      B = A
"""


def reshuffle_triplets(n: int) -> int:
    ds = DataSpace(16)
    ds.processors("PR", 16)
    ds.declare("A", n)
    ds.declare("B", n)
    ds.distribute("A", [Cyclic(3)], to="PR")
    ds.distribute("B", [Cyclic(7)], to="PR")
    sec = ds.section("A", Triplet(1, n))
    pieces = analytic_comm_sets(ds.distribution_of("B"), sec,
                                ds.distribution_of("A"), sec)
    return sum(len(dim) for piece in pieces for dim in piece.dim_sets)


def test_cyclic_reshuffle_cold_compile_is_size_independent():
    n = 14_450
    start = perf_counter()
    res = run_program(RESHUFFLE, n_processors=16, inputs={"N": n},
                      machine=True)
    assert perf_counter() - start < 2.0
    report = res.reports[-1]
    assert report.strategies == {"A": "analytic"}
    i = np.arange(n)
    src, dst = (i // 3) % 16, (i // 7) % 16
    off = src != dst
    expected = np.bincount(src[off] * 16 + dst[off],
                           minlength=256).reshape(16, 16)
    np.testing.assert_array_equal(report.words, expected)
    assert reshuffle_triplets(3_600) == reshuffle_triplets(n)
