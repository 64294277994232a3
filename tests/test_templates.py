"""Unit tests for the template baseline (§8) and its impossibilities."""

import numpy as np
import pytest

from repro.align.ast import Dummy
from repro.align.spec import AlignSpec, AxisDummy, BaseExpr
from repro.distributions.block import Block
from repro.distributions.cyclic import Cyclic
from repro.errors import ConformanceError, MappingError, TemplateError
from repro.fortran.section import ArraySection
from repro.fortran.triplet import Triplet
from repro.templates.equivalence import (
    derive_general_block_formats,
    derive_witness_model,
    mappings_equivalent,
    verify_equivalence,
)
from repro.templates.inherit import inherit_mapping, section_alignment
from repro.templates.model import ChainedAlignment, TemplateDataSpace
from repro.templates.template import Template
from repro.fortran.domain import IndexDomain
from repro.distributions.distribution import FormatDistribution
from repro.directives import run_program


def ident(alignee, base, factor=1, offset=0):
    return AlignSpec(alignee, [AxisDummy("I")], base,
                     [BaseExpr(factor * Dummy("I") + offset)])


class TestTemplateObject:
    def test_tagged_identity(self):
        # distinct definitions are different even with equal domains
        a = Template("T", IndexDomain.standard(8))
        b = Template("T", IndexDomain.standard(8))
        assert a is not b and a != b and a.tag != b.tag

    def test_shape_validation(self):
        with pytest.raises(TemplateError):
            Template("T", IndexDomain.scalar())

    def test_not_allocatable(self):
        t = Template("T", IndexDomain.standard(8))
        with pytest.raises(TemplateError):
            t.allocate()

    def test_not_passable(self):
        t = Template("T", IndexDomain.standard(8))
        with pytest.raises(TemplateError):
            t.pass_to_procedure()


class TestTemplateDataSpace:
    def make(self):
        tds = TemplateDataSpace(4)
        tds.processors("PR", 4)
        return tds

    def test_align_to_template_and_distribute(self):
        tds = self.make()
        tds.template("T", 64)
        tds.declare("X", 32)
        tds.align(ident("X", "T", 2))
        tds.distribute("T", [Block()], to="PR")
        assert tds.owners("X", (1,)) == frozenset({0})
        assert tds.owners("X", (32,)) == frozenset({3})

    def test_template_cannot_be_alignee(self):
        tds = self.make()
        tds.template("T", 64)
        tds.declare("X", 64)
        with pytest.raises(TemplateError):
            tds.align(ident("T", "X"))

    def test_chain_resolution(self):
        tds = self.make()
        tds.declare("A", 70)
        tds.declare("B", 64)
        tds.declare("C", 32)
        tds.distribute("A", [Cyclic()], to="PR")
        tds.align(ident("B", "A", 1, 3))
        tds.align(ident("C", "B", 2))
        base, chain = tds.ultimate_base("C")
        assert base == "A" and chain.depth == 2
        assert tds.resolution_depth("C") == 2
        # C(i) -> B(2i) -> A(2i+3)
        assert tds.owners("C", (5,)) == tds.owners("A", (13,))

    def test_cycle_rejected(self):
        tds = self.make()
        tds.declare("A", 8)
        tds.declare("B", 8)
        tds.align(ident("A", "B"))
        with pytest.raises(MappingError):
            tds.align(ident("B", "A"))

    def test_undistributed_base_error(self):
        tds = self.make()
        tds.template("T", 8)
        tds.declare("X", 8)
        tds.align(ident("X", "T"))
        with pytest.raises(MappingError):
            tds.distribution_of("X")

    def test_runtime_shaped_alignee_rejected(self):
        # §8.2 problem 1
        tds = self.make()
        tds.template("T", 64)
        tds.declare("B", 16, runtime_shape=True)
        with pytest.raises(TemplateError):
            tds.align(ident("B", "T", 2))

    def test_pass_template_rejected(self):
        tds = self.make()
        tds.template("T", 8)
        with pytest.raises(TemplateError):
            tds.pass_template("T")

    def test_describe(self):
        tds = self.make()
        tds.template("T", 8)
        tds.declare("X", 8)
        tds.align(ident("X", "T"))
        tds.distribute("T", [Block()], to="PR")
        text = tds.describe()
        assert "TEMPLATE T" in text and "depth 1" in text


class TestImplicitTarget:
    """A TO-less DISTRIBUTE leaves the processor grid to the
    implementation; both models must pick the same one, so the same
    program gets the same owner map under either."""

    SOURCE = """
      REAL T(34,12,4)
!HPF$ DISTRIBUTE T(BLOCK,BLOCK,BLOCK)
"""

    @pytest.mark.parametrize("n_processors", [12, 102])
    def test_models_agree_on_the_implicit_grid(self, n_processors):
        paper, template = (
            run_program(self.SOURCE, n_processors=n_processors, model=m).ds
            for m in ("paper", "template"))
        assert np.array_equal(paper.owner_map("T"),
                              template.owner_map("T"))


class TestChainedAlignment:
    def test_image_composition(self):
        tds = TemplateDataSpace(4)
        tds.processors("PR", 4)
        tds.declare("A", 100)
        tds.declare("B", 40)
        tds.declare("C", 20)
        tds.align(ident("B", "A", 2, 1))
        tds.align(ident("C", "B", 2))
        _, chain = tds.ultimate_base("C")
        # C(i) -> B(2i) -> A(4i + 1)
        assert chain.image((3,)) == frozenset({(13,)})
        got = chain.map_indices(np.array([[1], [2], [3]]))
        np.testing.assert_array_equal(got, [[5], [9], [13]])

    def test_mismatched_links_rejected(self):
        from repro.align.function import identity_alignment
        a = identity_alignment(IndexDomain.standard(4))
        b = identity_alignment(IndexDomain.standard(5))
        with pytest.raises(MappingError):
            ChainedAlignment([a, b])

    def test_empty_chain_rejected(self):
        with pytest.raises(MappingError):
            ChainedAlignment([])


class TestInherit:
    def make(self):
        tds = TemplateDataSpace(4)
        tds.processors("PR", 4)
        tds.declare("A", 1000)
        tds.distribute("A", [Cyclic(3)], to="PR")
        return tds

    def test_section_alignment(self):
        tds = self.make()
        sec = ArraySection(tds.arrays["A"].domain, (Triplet(2, 996, 2),))
        fn = section_alignment(sec)
        assert fn.image((1,)) == frozenset({(2,)})
        assert fn.image((498,)) == frozenset({(996,)})

    def test_inherit_mapping_matches_restriction(self):
        tds = self.make()
        sec = ArraySection(tds.arrays["A"].domain, (Triplet(2, 996, 2),))
        inh = inherit_mapping(tds, "A", sec)
        a_dist = tds.distribution_of("A")
        for k in (1, 7, 250, 498):
            assert inh.owners((k,)) == a_dist.owners((2 * k,))

    def test_star_distribution_describes_base(self):
        tds = self.make()
        sec = ArraySection(tds.arrays["A"].domain, (Triplet(2, 996, 2),))
        inh = inherit_mapping(tds, "A", sec)
        inh.check_star_distribution((Cyclic(3),))
        with pytest.raises(ConformanceError):
            inh.check_star_distribution((Cyclic(4),))

    def test_inherit_through_chain(self):
        tds = self.make()
        tds.declare("B", 400)
        tds.align(ident("B", "A", 2, 5))
        inh = inherit_mapping(tds, "B")
        assert inh.ultimate_base == "A"
        assert inh.owners((3,)) == tds.owners("A", (11,))

    def test_inherit_without_distribution_fails(self):
        tds = TemplateDataSpace(4)
        tds.processors("PR", 4)
        tds.template("T", 100)
        tds.declare("X", 50)
        tds.align(ident("X", "T", 2))
        with pytest.raises(TemplateError):
            inherit_mapping(tds, "X")


class TestEquivalence:
    def test_witness_strategy_thole(self):
        n = 8
        tds = TemplateDataSpace(4)
        tds.processors("PR", 2, 2)
        tds.template("T", (0, 2 * n), (0, 2 * n))
        tds.declare("U", (0, n), (1, n))
        tds.declare("V", (1, n), (0, n))
        tds.declare("P", (1, n), (1, n))
        i, j = Dummy("I"), Dummy("J")
        specs = [
            AlignSpec("P", [AxisDummy("I"), AxisDummy("J")], "T",
                      [BaseExpr(2 * i - 1), BaseExpr(2 * j - 1)]),
            AlignSpec("U", [AxisDummy("I"), AxisDummy("J")], "T",
                      [BaseExpr(2 * i), BaseExpr(2 * j - 1)]),
            AlignSpec("V", [AxisDummy("I"), AxisDummy("J")], "T",
                      [BaseExpr(2 * i - 1), BaseExpr(2 * j)]),
        ]
        for s in specs:
            tds.align(s)
        tds.distribute("T", [Cyclic(), Cyclic()], to="PR")
        assert verify_equivalence(tds, "T", specs) == {
            "P": True, "U": True, "V": True}

    def test_witness_model_structure(self):
        tds = TemplateDataSpace(4)
        tds.processors("PR", 4)
        tds.template("T", 64)
        tds.declare("X", 32)
        spec = ident("X", "T", 2)
        tds.align(spec)
        tds.distribute("T", [Block()], to="PR")
        ds = derive_witness_model(tds, "T", [spec])
        assert "_W_T" in ds.arrays
        assert ds.forest.parent_of("X") == "_W_T"

    def test_general_block_derivation_with_pinned_axis(self):
        # 2-D template, one axis pinned by a dummyless subscript: the
        # derived target is a processor *section*
        tds = TemplateDataSpace(8)
        tds.processors("PR", 4, 2)
        tds.template("T", 64, 10)
        tds.declare("X", 32)
        spec = AlignSpec("X", [AxisDummy("I")], "T",
                         [BaseExpr(2 * Dummy("I")), BaseExpr(7)])
        tds.align(spec)
        tds.distribute("T", [Block(), Block()], to="PR")
        tdist = tds._dist["T"]
        fmts, target = derive_general_block_formats(
            tdist, tds._aligned_to["X"][1], tds.arrays["X"].domain)
        direct = FormatDistribution(tds.arrays["X"].domain, fmts,
                                    target, tds.ap)
        assert mappings_equivalent(direct, tds.distribution_of("X"))
        assert target.rank == 1      # pinned axis consumed

    def test_general_block_refuses_cyclic(self):
        tds = TemplateDataSpace(4)
        tds.processors("PR", 4)
        tds.template("T", 64)
        tds.declare("X", 32)
        tds.align(ident("X", "T", 2))
        tds.distribute("T", [Cyclic()], to="PR")
        with pytest.raises(MappingError):
            derive_general_block_formats(
                tds._dist["T"], tds._aligned_to["X"][1],
                tds.arrays["X"].domain)
