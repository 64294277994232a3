"""Unit tests for the processor model (S2, §3)."""

import pytest

from repro.core.dataspace import DataSpace
from repro.distributions.block import Block
from repro.distributions.cyclic import Cyclic
from repro.distributions.distribution import FormatDistribution
from repro.errors import MappingError
from repro.fortran.domain import IndexDomain
from repro.fortran.triplet import Triplet
from repro.processors.abstract import AbstractProcessors
from repro.processors.arrangement import (
    ProcessorArrangement,
    ScalarArrangement,
    ScalarPolicy,
)
from repro.processors.section import ProcessorSection
from repro.processors.topology import FullyConnected, Hypercube, Line, Mesh2D


class TestArrangements:
    def test_array_arrangement(self):
        pr = ProcessorArrangement("PR", IndexDomain.standard(4, 8))
        assert pr.rank == 2 and pr.size == 32 and pr.shape == (4, 8)

    def test_empty_domain_rejected(self):
        with pytest.raises(MappingError):
            ProcessorArrangement("PR", IndexDomain([Triplet(1, 0)]))

    def test_rank0_rejected(self):
        with pytest.raises(MappingError):
            ProcessorArrangement("PR", IndexDomain.scalar())

    def test_scalar_arrangement(self):
        s = ScalarArrangement("CTRL")
        assert s.rank == 0 and s.size == 1
        assert s.policy is ScalarPolicy.CONTROL


class TestAbstractProcessors:
    def test_declaration_and_numbering(self):
        ap = AbstractProcessors(32)
        pr = ap.declare(ProcessorArrangement(
            "PR", IndexDomain.standard(4, 8)))
        # column-major: (2,1) is unit 1, (1,2) is unit 4
        assert ap.ap_unit(pr, (1, 1)) == 0
        assert ap.ap_unit(pr, (2, 1)) == 1
        assert ap.ap_unit(pr, (1, 2)) == 4
        assert ap.ap_unit(pr, (4, 8)) == 31
        assert ap.index_of_unit(pr, 4) == (1, 2)

    def test_too_large_rejected(self):
        ap = AbstractProcessors(8)
        with pytest.raises(MappingError):
            ap.declare(ProcessorArrangement(
                "BIG", IndexDomain.standard(3, 3)))

    def test_origin_offset(self):
        ap = AbstractProcessors(16)
        q = ap.declare(ProcessorArrangement(
            "Q", IndexDomain.standard(4)), origin=8)
        assert ap.ap_unit(q, (1,)) == 8

    def test_duplicate_name_rejected(self):
        ap = AbstractProcessors(8)
        ap.declare(ProcessorArrangement("PR", IndexDomain.standard(4)))
        with pytest.raises(MappingError):
            ap.declare(ProcessorArrangement("PR", IndexDomain.standard(2)))

    def test_sharing_rule(self):
        # §3: same-origin arrangements share processors
        ap = AbstractProcessors(32)
        pr = ap.declare(ProcessorArrangement(
            "PR", IndexDomain.standard(32)))
        q = ap.declare(ProcessorArrangement(
            "Q", IndexDomain.standard(4, 4)))
        assert ap.share_processors(pr, q)
        assert len(ap.shared_units(pr, q)) == 16
        # PR(5) and Q(1,2) occupy the same abstract (hence physical) unit
        assert ap.ap_unit(pr, (5,)) == ap.ap_unit(q, (1, 2)) == 4

    def test_scalar_policies(self):
        ap = AbstractProcessors(8)
        ctrl = ap.declare(ScalarArrangement("CTRL"))
        assert ap.ap_unit(ctrl) == 0
        arb = ap.declare(ScalarArrangement(
            "ARB", policy=ScalarPolicy.ARBITRARY))
        assert ap.ap_units(arb) == (0,)
        rep = ap.declare(ScalarArrangement(
            "REP", policy=ScalarPolicy.REPLICATED))
        assert ap.ap_units(rep) == tuple(range(8))
        with pytest.raises(MappingError):
            ap.ap_unit(rep)

    def test_unknown_arrangement(self):
        ap = AbstractProcessors(8)
        with pytest.raises(MappingError):
            ap.arrangement("NOPE")


class TestProcessorSection:
    def setup_method(self):
        self.ap = AbstractProcessors(16)
        self.q = self.ap.declare(ProcessorArrangement(
            "Q", IndexDomain.standard(16)))

    def test_whole_arrangement(self):
        sec = ProcessorSection(self.q)
        assert sec.rank == 1 and sec.size == 16
        assert sec.ap_units_all(self.ap) == list(range(16))

    def test_strided_section(self):
        # the paper's TO Q(1:NOP:2) with NOP=8
        sec = ProcessorSection(self.q, (Triplet(1, 8, 2),))
        assert sec.size == 4
        assert sec.ap_units_all(self.ap) == [0, 2, 4, 6]
        assert sec.domain() == IndexDomain.standard(4)

    def test_scalar_subscript_section(self):
        sec = ProcessorSection(self.q, (5,))
        assert sec.rank == 0 and sec.size == 1
        assert sec.ap_units_all(self.ap) == [4]

    def test_empty_section_rejected(self):
        with pytest.raises(MappingError):
            ProcessorSection(self.q, (Triplet(5, 4),))

    def test_2d_section(self):
        ap = AbstractProcessors(16)
        pr = ap.declare(ProcessorArrangement(
            "PR", IndexDomain.standard(4, 4)))
        sec = ProcessorSection(pr, (Triplet(1, 3, 2), Triplet(2, 4, 2)))
        assert sec.shape == (2, 2)
        # (1,2)->4, (3,2)->6, (1,4)->12, (3,4)->14
        assert sec.ap_units_all(ap) == [4, 6, 12, 14]


class TestTopologies:
    def test_fully_connected(self):
        t = FullyConnected(8)
        assert t.hops(0, 0) == 0 and t.hops(0, 7) == 1
        assert t.diameter() == 1

    def test_line(self):
        t = Line(8)
        assert t.hops(0, 7) == 7 and t.diameter() == 7

    def test_mesh_xy_routing(self):
        t = Mesh2D(16, rows=4, cols=4)
        assert t.hops(0, 15) == 6      # (0,0) -> (3,3)
        assert t.hops(0, 1) == 1

    def test_mesh_auto_factorization(self):
        t = Mesh2D(12)
        assert t.rows * t.cols == 12

    def test_mesh_bad_shape(self):
        with pytest.raises(ValueError):
            Mesh2D(16, rows=3, cols=4)

    def test_hypercube(self):
        t = Hypercube(16)
        assert t.dimension == 4
        assert t.hops(0b0000, 0b1111) == 4
        assert t.hops(5, 5) == 0

    def test_hypercube_power_of_two(self):
        with pytest.raises(ValueError):
            Hypercube(12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Line(4).hops(0, 4)


class TestTargetUnitMemo:
    """A target's AP unit table is computed once per AP: arrangements
    are never re-declared, so REDISTRIBUTE reuses it."""

    def test_remap_cycles_walk_each_target_once(self, monkeypatch):
        calls = []
        walk = ProcessorSection.ap_units_all

        def counted(self, ap):
            calls.append(self)
            return walk(self, ap)

        monkeypatch.setattr(ProcessorSection, "ap_units_all", counted)
        ds = DataSpace(8)
        q = ds.processors("Q", 8)
        odd = ProcessorSection(q, (Triplet(1, 7, 2),))
        ds.declare("A", 32, dynamic=True)
        ds.distribute("A", [Block()], to="Q")
        for _ in range(100):
            ds.redistribute("A", [Cyclic()], to=odd)
            ds.redistribute("A", [Block()], to="Q")
        assert len(calls) <= 2
        assert ds.distribution_of("A").processors() == tuple(range(8))

    def test_equivalenced_arrangements_keep_their_own_units(self):
        ap = AbstractProcessors(16)
        lo = ap.declare(ProcessorArrangement("LO", IndexDomain.standard(8)))
        hi = ap.declare(ProcessorArrangement("HI", IndexDomain.standard(8)),
                        origin=8)
        dom = IndexDomain.standard(24)
        dists = [FormatDistribution(dom, [Block()], ProcessorSection(a), ap)
                 for a in (lo, hi)]
        assert list(ap.target_units(ProcessorSection(lo))) == list(range(8))
        assert list(ap.target_units(ProcessorSection(hi))) == \
            list(range(8, 16))
        assert dists[0].processors() == tuple(range(8))
        assert dists[1].processors() == tuple(range(8, 16))
        assert (dists[1].primary_owner_map()
                == dists[0].primary_owner_map() + 8).all()
