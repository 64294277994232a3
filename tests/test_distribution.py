"""Unit tests for multi-dimensional distributions (§4.1) and CONSTRUCT."""

import numpy as np
import pytest

from repro.align.ast import Dummy
from repro.align.function import AlignmentFunction
from repro.align.reduce import reduce_alignment
from repro.align.spec import AlignSpec, AxisDummy, AxisStar, BaseExpr, BaseStar
from repro.distributions.base import Collapsed
from repro.distributions.block import Block
from repro.distributions.construct import construct
from repro.distributions.cyclic import Cyclic
from repro.distributions.distribution import FormatDistribution
from repro.distributions.inquiry import (
    distribution_format,
    distribution_rank,
    distribution_target_name,
    is_replicated,
    number_of_processors,
    owners_of,
)
from repro.distributions.replicated import (
    ReplicatedDistribution,
    ReplicatedFormat,
)
from repro.errors import DistributionError, MappingError
from repro.fortran.domain import IndexDomain
from repro.fortran.triplet import Triplet
from repro.processors.abstract import AbstractProcessors
from repro.processors.arrangement import ProcessorArrangement
from repro.processors.section import ProcessorSection


def make_target(shape, ap_size=None):
    ap = AbstractProcessors(ap_size or int(np.prod(shape)))
    pr = ap.declare(ProcessorArrangement("PR", IndexDomain.standard(*shape)))
    return ap, ProcessorSection(pr)


class TestFormatDistribution:
    def test_rank_rule_format_list_length(self):
        ap, target = make_target((4,))
        with pytest.raises(DistributionError):
            FormatDistribution(IndexDomain.standard(8, 8),
                               [Block()], target, ap)

    def test_rank_rule_colon_reduction(self):
        # §4.1: target rank = distributee rank minus number of colons
        ap, target = make_target((4,))
        dist = FormatDistribution(IndexDomain.standard(8, 8),
                                  [Block(), Collapsed()], target, ap)
        assert dist.owners((1, 1)) == dist.owners((1, 8))

    def test_rank_rule_mismatch(self):
        ap, target = make_target((2, 2))
        with pytest.raises(DistributionError):
            FormatDistribution(IndexDomain.standard(8, 8),
                               [Block(), Collapsed()], target, ap)

    def test_2d_block_block(self):
        ap, target = make_target((2, 2))
        dist = FormatDistribution(IndexDomain.standard(4, 4),
                                  [Block(), Block()], target, ap)
        # quadrants: (1,1)->unit 0, (3,1)->1, (1,3)->2, (3,3)->3
        assert dist.primary_owner((1, 1)) == 0
        assert dist.primary_owner((3, 1)) == 1
        assert dist.primary_owner((1, 3)) == 2
        assert dist.primary_owner((3, 3)) == 3

    def test_owner_map_matches_elementwise(self):
        ap, target = make_target((2, 3))
        dist = FormatDistribution(IndexDomain.of_bounds((0, 7), (1, 9)),
                                  [Cyclic(2), Block()], target, ap)
        pmap = dist.primary_owner_map()
        assert pmap.shape == (8, 9)
        for idx in dist.domain:
            pos = tuple(d.position(v)
                        for v, d in zip(idx, dist.domain.dims))
            assert pmap[pos] == dist.primary_owner(idx)

    def test_owner_map_with_collapsed_dim(self):
        ap, target = make_target((4,))
        dist = FormatDistribution(IndexDomain.standard(8, 5),
                                  [Block(), Collapsed()], target, ap)
        pmap = dist.primary_owner_map()
        # every column identical
        assert (pmap == pmap[:, :1]).all()

    def test_section_target(self):
        ap = AbstractProcessors(16)
        q = ap.declare(ProcessorArrangement("Q",
                                            IndexDomain.standard(16)))
        sec = ProcessorSection(q, (Triplet(1, 8, 2),))
        dist = FormatDistribution(IndexDomain.standard(100),
                                  [Cyclic()], sec, ap)
        assert set(dist.processors()) == {0, 2, 4, 6}

    def test_local_shape_and_extent(self):
        ap, target = make_target((2, 2))
        dist = FormatDistribution(IndexDomain.standard(10, 6),
                                  [Block(), Block()], target, ap)
        assert dist.local_shape(0) == (5, 3)
        assert dist.local_extent(0) == 15
        assert sum(dist.local_extent(u) for u in range(4)) == 60

    def test_processors_excludes_empty(self):
        # HPF BLOCK can leave trailing processors empty
        ap, target = make_target((4,))
        dist = FormatDistribution(IndexDomain.standard(9),
                                  [Block()], target, ap)
        assert dist.processors() == (0, 1, 2)

    def test_totality(self):
        ap, target = make_target((2, 2))
        dist = FormatDistribution(IndexDomain.standard(7, 5),
                                  [Block(), Cyclic(2)], target, ap)
        for idx in dist.domain:
            assert len(dist.owners(idx)) >= 1

    def test_replicated_format_dim(self):
        ap, target = make_target((2, 2))
        dist = FormatDistribution(IndexDomain.standard(6, 6),
                                  [Block(), ReplicatedFormat()],
                                  target, ap)
        assert dist.is_replicated
        assert len(dist.owners((1, 1))) == 2
        assert dist.owners((1, 1)) == dist.owners((1, 6))

    def test_same_mapping(self):
        ap, target = make_target((4,))
        a = FormatDistribution(IndexDomain.standard(16), [Block()],
                               target, ap)
        b = FormatDistribution(IndexDomain.standard(16), [Cyclic(4)],
                               target, ap)
        c = FormatDistribution(IndexDomain.standard(16), [Cyclic()],
                               target, ap)
        assert a.same_mapping(b)       # CYCLIC(4) of 16 == BLOCK of 16
        assert not a.same_mapping(c)

    def test_rank0_domain_distribution(self):
        rep = ReplicatedDistribution(IndexDomain.scalar(), range(4))
        assert rep.owners(()) == frozenset({0, 1, 2, 3})
        assert rep.is_replicated


class TestConstruct:
    def make_aligned(self, n=16, np_=4):
        ap, target = make_target((np_,))
        base_dom = IndexDomain.standard(2 * n)
        base = FormatDistribution(base_dom, [Block()], target, ap)
        spec = AlignSpec("X", [AxisDummy("I")], "B",
                         [BaseExpr(Dummy("I") * 2)])
        fn = AlignmentFunction(reduce_alignment(
            spec, IndexDomain.standard(n), base_dom))
        return fn, base

    def test_collocation_guarantee(self):
        # Definition 4: A(i) resides where B(j) does for all j in alpha(i)
        fn, base = self.make_aligned()
        dist = construct(fn, base)
        for i in range(1, 17):
            assert dist.owners((i,)) == base.owners((2 * i,))

    def test_owner_map_vectorized_path(self):
        fn, base = self.make_aligned(n=64, np_=8)
        dist = construct(fn, base)
        pmap = dist.primary_owner_map()
        for i in range(1, 65, 7):
            assert pmap[i - 1] == dist.primary_owner((i,))

    def test_domain_mismatch_rejected(self):
        fn, _ = self.make_aligned()
        ap, target = make_target((4,))
        wrong = FormatDistribution(IndexDomain.standard(99), [Block()],
                                   target, ap)
        with pytest.raises(MappingError):
            construct(fn, wrong)

    def test_replicating_alignment_union(self):
        # ALIGN A(I) WITH D(I, *) over a (BLOCK, BLOCK) D: owners of A(i)
        # are the whole row of processors
        ap, target = make_target((2, 2))
        d_dom = IndexDomain.standard(8, 8)
        d = FormatDistribution(d_dom, [Block(), Block()], target, ap)
        spec = AlignSpec("A", [AxisDummy("I")], "D",
                         [BaseExpr(Dummy("I")), BaseStar()])
        fn = AlignmentFunction(reduce_alignment(
            spec, IndexDomain.standard(8), d_dom))
        dist = construct(fn, d)
        assert dist.is_replicated
        assert dist.owners((1,)) == frozenset({0, 2})   # row 1, both cols
        assert dist.owners((8,)) == frozenset({1, 3})

    def test_collapse_alignment(self):
        # ALIGN B(:, *) WITH E(:) — paper §5.1 second example
        ap, target = make_target((4,))
        e_dom = IndexDomain.standard(8)
        e = FormatDistribution(e_dom, [Cyclic()], target, ap)
        spec = AlignSpec("B", [AxisDummy("I"), AxisStar()], "E",
                         [BaseExpr(Dummy("I"))])
        fn = AlignmentFunction(reduce_alignment(
            spec, IndexDomain.standard(8, 5), e_dom))
        dist = construct(fn, e)
        for j in range(1, 6):
            assert dist.owners((3, j)) == e.owners((3,))
        assert not dist.is_replicated


class TestInquiry:
    def test_inquiry_functions(self):
        ap, target = make_target((4,))
        dist = FormatDistribution(IndexDomain.standard(12, 3),
                                  [Cyclic(3), Collapsed()], target, ap)
        assert distribution_rank(dist) == 2
        assert distribution_format(dist, 0) == "CYCLIC(3)"
        assert distribution_format(dist, 1) == ":"
        assert distribution_target_name(dist) == "PR"
        assert number_of_processors(dist) == 4
        assert owners_of(dist, (1, 1)) == (0,)
        assert not is_replicated(dist)

    def test_inquiry_on_derived(self):
        rep = ReplicatedDistribution(IndexDomain.standard(4), [0, 1])
        assert distribution_format(rep, 0) == "DERIVED"
        assert distribution_target_name(rep) is None
        assert is_replicated(rep)
