"""Edge-case and error-path coverage across subsystems."""

import pytest

from repro.core.array import HpfArray
from repro.core.dataspace import _factorize
from repro.core.mapping import BlockFirstDimPolicy
from repro.distributions.block import Block
from repro.distributions.cyclic import Cyclic
from repro.errors import (
    AllocationError,
    DirectiveError,
    DistributionError,
    MappingError,
    ReproError,
)
from repro.fortran.domain import IndexDomain
from repro.fortran.triplet import Triplet
from repro.processors.abstract import AbstractProcessors


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        from repro import errors
        for name in errors.__dict__:
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) \
                    and obj is not ReproError:
                assert issubclass(obj, ReproError), name

    def test_directive_error_location(self):
        err = DirectiveError("bad", line=3, column=7, text="REAL A(")
        assert "line 3" in str(err) and "column 7" in str(err)
        assert "REAL A(" in str(err)


class TestHpfArrayEdges:
    def test_unallocated_access(self):
        arr = HpfArray("A", None, allocatable=True, rank=1)
        with pytest.raises(AllocationError):
            _ = arr.domain
        with pytest.raises(AllocationError):
            _ = arr.data

    def test_non_allocatable_needs_domain(self):
        with pytest.raises(AllocationError):
            HpfArray("A", None)

    def test_rank_contradiction(self):
        with pytest.raises(AllocationError):
            HpfArray("A", IndexDomain.standard(4), rank=2)

    def test_non_standard_domain_rejected(self):
        with pytest.raises(AllocationError):
            HpfArray("A", IndexDomain([Triplet(1, 9, 2)]))

    def test_get_set_by_global_index(self):
        arr = HpfArray("A", IndexDomain.of_bounds((0, 3), (2, 4)))
        arr.set((0, 2), 5.0)
        assert arr.get((0, 2)) == 5.0
        with pytest.raises(IndexError):
            arr.get((4, 2))

    def test_instance_counter(self):
        arr = HpfArray("A", None, allocatable=True, rank=1)
        assert arr.instance == 0
        arr.allocate(IndexDomain.standard(4))
        assert arr.instance == 1
        arr.deallocate()
        arr.allocate(IndexDomain.standard(8))
        assert arr.instance == 2

    def test_fill_sequence_column_major(self):
        arr = HpfArray("A", IndexDomain.standard(2, 2))
        arr.fill_sequence()
        assert arr.get((2, 1)) == 1.0
        assert arr.get((1, 2)) == 2.0

    def test_repr(self):
        arr = HpfArray("A", IndexDomain.standard(4), dynamic=True)
        assert "DYNAMIC" in repr(arr)


class TestFactorize:
    @pytest.mark.parametrize("n,ndims", [
        (12, 2), (16, 2), (17, 2), (64, 3), (1, 2), (7, 3), (100, 2),
    ])
    def test_product_preserved(self, n, ndims):
        dims = _factorize(n, ndims)
        assert len(dims) == ndims
        prod = 1
        for d in dims:
            prod *= d
        assert prod == n

    def test_factors_nearly_square(self):
        assert sorted(_factorize(16, 2)) == [4, 4]
        assert sorted(_factorize(12, 2)) == [3, 4]


class TestPolicy:
    def test_policy_reuses_ap_arrangement(self):
        ap = AbstractProcessors(8)
        policy = BlockFirstDimPolicy()
        d1 = policy.implicit_distribution(IndexDomain.standard(16), ap)
        d2 = policy.implicit_distribution(IndexDomain.standard(32), ap)
        assert d1.target.arrangement is d2.target.arrangement

    def test_policy_scalar(self):
        ap = AbstractProcessors(4)
        policy = BlockFirstDimPolicy()
        d = policy.implicit_distribution(IndexDomain.scalar(), ap)
        assert d.owners(()) == frozenset(range(4))


class TestDataSpaceEdges:
    def test_unknown_array(self, ds8):
        with pytest.raises(MappingError):
            ds8.distribution_of("NOPE")

    def test_resolve_bad_target(self, ds8):
        with pytest.raises(DistributionError):
            ds8.resolve_target(3.14, 1)

    def test_scalar_target_with_formats_rejected(self, ds8):
        ds8.scalar_processors("CTRL")
        ds8.declare("A", 8)
        with pytest.raises(DistributionError):
            ds8.distribute("A", [Block()], to="CTRL")

    def test_redistribute_unallocated(self, ds8):
        ds8.declare("C", allocatable=True, rank=1, dynamic=True)
        with pytest.raises(AllocationError):
            ds8.redistribute("C", [Block()], to="PR")

    def test_pending_both_align_and_distribute_rejected(self, ds8):
        from repro.align.ast import Dummy
        from repro.align.spec import AlignSpec, AxisDummy, BaseExpr
        ds8.declare("A", 16)
        ds8.declare("C", allocatable=True, rank=1)
        ds8.distribute("C", [Block()], to="PR")
        ds8.align(AlignSpec("C", [AxisDummy("I")], "A",
                            [BaseExpr(Dummy("I"))]))
        with pytest.raises(MappingError):
            ds8.allocate("C", 16)

    def test_constant_definition(self, ds8):
        ds8.constant("N", 12)
        assert ds8.env["N"] == 12

    def test_unresolved_constant_fails_at_evaluation(self, ds8):
        # an unresolved Name survives reduction symbolically; the error
        # surfaces when the alignment image is first evaluated
        from repro.align.ast import Dummy, Name
        from repro.align.spec import AlignSpec, AxisDummy, BaseExpr
        from repro.errors import AlignmentError
        ds8.declare("A", 16)
        ds8.declare("B", 8)
        spec = AlignSpec("B", [AxisDummy("I")], "A",
                         [BaseExpr(Name("Q") * Dummy("I"))])
        ds8.align(spec)
        with pytest.raises(AlignmentError):
            ds8.owners("B", (2,))


class TestExecutorEdges:
    def test_analytic_strategy_raises_on_unsupported(self, ds8,
                                                     machine8):
        from repro.align.ast import Dummy
        from repro.align.spec import (AlignSpec, AxisDummy, BaseExpr,
                                      BaseStar)
        from repro.engine.assignment import Assignment
        from repro.engine.commsets import AnalyticUnsupported
        from repro.engine.executor import SimulatedExecutor
        from repro.engine.expr import ArrayRef
        ds8.declare("D", 16, 8)
        ds8.declare("R", 16)
        ds8.declare("L", 16)
        ds8.distribute("D", [Block(), Block()], to=None)
        ds8.distribute("L", [Block()], to="PR")
        ds8.align(AlignSpec("R", [AxisDummy("I")], "D",
                            [BaseExpr(Dummy("I")), BaseStar()]))
        ex = SimulatedExecutor(ds8, machine8, strategy="analytic")
        with pytest.raises(AnalyticUnsupported):
            ex.execute(Assignment(ArrayRef("L"), ArrayRef("R")))

    def test_auto_strategy_falls_back(self, ds8, machine8):
        from repro.align.ast import Dummy
        from repro.align.spec import (AlignSpec, AxisDummy, BaseExpr,
                                      BaseStar)
        from repro.engine.assignment import Assignment
        from repro.engine.executor import SimulatedExecutor
        from repro.engine.expr import ArrayRef
        ds8.declare("D", 16, 8)
        ds8.declare("R", 16)
        ds8.declare("L", 16)
        ds8.distribute("D", [Block(), Block()], to=None)
        ds8.distribute("L", [Block()], to="PR")
        ds8.align(AlignSpec("R", [AxisDummy("I")], "D",
                            [BaseExpr(Dummy("I")), BaseStar()]))
        ex = SimulatedExecutor(ds8, machine8, strategy="auto")
        rep = ex.execute(Assignment(ArrayRef("L"), ArrayRef("R")))
        assert rep.strategies[str(ArrayRef("R"))] == "oracle"

    def test_unknown_strategy(self, blocked_pair, machine8):
        from repro.engine.executor import SimulatedExecutor
        with pytest.raises(ValueError):
            SimulatedExecutor(blocked_pair, machine8, strategy="magic")


class TestCyclicOwnedEdge:
    def test_trailing_coord_with_no_elements(self):
        cd = Cyclic(4).bind(Triplet(1, 6), 3)
        assert cd.owned(2) == ()
        assert cd.local_extent(2) == 0

    def test_more_processors_than_elements(self):
        cd = Cyclic().bind(Triplet(1, 3), 8)
        assert [cd.local_extent(p) for p in range(8)] == \
            [1, 1, 1, 0, 0, 0, 0, 0]
