"""Unit tests for GENERAL_BLOCK (§4.1.2) and CYCLIC(k) (§4.1.3)."""

import numpy as np
import pytest

from repro.distributions.cyclic import Cyclic
from repro.distributions.general_block import GeneralBlock
from repro.errors import DistributionError
from repro.fortran.triplet import Triplet


class TestGeneralBlock:
    def test_paper_block_ranges(self):
        # §4.1.2: block 1 is [1:G(1)], block i is [G(i-1)+1 : G(i)],
        # block NP is [G(NP-1)+1 : N]
        g = GeneralBlock([3, 7, 9])
        gb = g.bind(Triplet(1, 12), 4)
        assert gb.owned(0) == (Triplet(1, 3, 1),)
        assert gb.owned(1) == (Triplet(4, 7, 1),)
        assert gb.owned(2) == (Triplet(8, 9, 1),)
        assert gb.owned(3) == (Triplet(10, 12, 1),)

    def test_owner_lookup(self):
        gb = GeneralBlock([3, 7, 9]).bind(Triplet(1, 12), 4)
        owners = [gb.owner_coord(i) for i in range(1, 13)]
        assert owners == [0, 0, 0, 1, 1, 1, 1, 2, 2, 3, 3, 3]

    def test_from_sizes(self):
        g = GeneralBlock.from_sizes([4, 0, 6], lower=1)
        gb = g.bind(Triplet(1, 10), 3)
        assert gb.local_extent(0) == 4
        assert gb.local_extent(1) == 0
        assert gb.local_extent(2) == 6

    def test_empty_block_skipped_in_ownership(self):
        gb = GeneralBlock.from_sizes([4, 0, 6]).bind(Triplet(1, 10), 3)
        # element 5 belongs to block 2 (block 1 is empty)
        assert gb.owner_coord(5) == 2
        assert gb.owned(1) == ()

    def test_m_ge_np_minus_1_required(self):
        with pytest.raises(DistributionError):
            GeneralBlock([5]).bind(Triplet(1, 10), 4)

    def test_full_length_bounds_validated(self):
        # G(NP) must equal the upper bound when given
        GeneralBlock([3, 7, 10]).bind(Triplet(1, 10), 3)
        with pytest.raises(DistributionError):
            GeneralBlock([3, 7, 9]).bind(Triplet(1, 10), 3)

    def test_decreasing_bounds_rejected(self):
        with pytest.raises(DistributionError):
            GeneralBlock([7, 3])

    def test_out_of_range_bound_rejected(self):
        with pytest.raises(DistributionError):
            GeneralBlock([3, 20]).bind(Triplet(1, 10), 3)

    def test_nonunit_lower_bound(self):
        gb = GeneralBlock([2, 5]).bind(Triplet(0, 9), 3)
        assert gb.owned(0) == (Triplet(0, 2, 1),)
        assert gb.owned(2) == (Triplet(6, 9, 1),)

    def test_vectorized_matches_scalar(self):
        gb = GeneralBlock([10, 10, 25, 60]).bind(Triplet(1, 80), 5)
        vals = np.arange(1, 81)
        np.testing.assert_array_equal(
            gb.owners_of(vals),
            [gb.owner_coord(int(v)) for v in vals])

    def test_local_global_roundtrip(self):
        gb = GeneralBlock([10, 10, 25, 60]).bind(Triplet(1, 80), 5)
        for p in range(5):
            for t in gb.owned(p):
                for i in t:
                    assert gb.global_index(p, gb.local_index(i)) == i

    def test_balanced_for_costs(self):
        costs = np.arange(1, 101, dtype=float)
        g = GeneralBlock.balanced_for_costs(costs, 4)
        gb = g.bind(Triplet(1, 100), 4)
        work = np.zeros(4)
        for i in range(1, 101):
            work[gb.owner_coord(i)] += costs[i - 1]
        assert work.max() / work.mean() < 1.15

    def test_block_sizes(self):
        gb = GeneralBlock([3, 7, 9]).bind(Triplet(1, 12), 4)
        np.testing.assert_array_equal(gb.block_sizes(), [3, 4, 2, 3])


class TestCyclic:
    def test_standard_semantics(self):
        # (1-based) owner = ((ceil(i/k) - 1) mod NP) + 1
        cd = Cyclic(3).bind(Triplet(1, 30), 4)
        for i in range(1, 31):
            expected = ((-(-i // 3) - 1) % 4)
            assert cd.owner_coord(i) == expected

    def test_cyclic1_is_round_robin(self):
        cd = Cyclic().bind(Triplet(1, 10), 3)
        assert [cd.owner_coord(i) for i in range(1, 11)] == \
            [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]

    def test_cyclic_equivalent_to_cyclic1(self):
        a = Cyclic().bind(Triplet(1, 50), 7)
        b = Cyclic(1).bind(Triplet(1, 50), 7)
        for i in range(1, 51):
            assert a.owner_coord(i) == b.owner_coord(i)

    def test_k_must_be_positive(self):
        with pytest.raises(DistributionError):
            Cyclic(0)

    def test_owned_cyclic1_single_triplet(self):
        cd = Cyclic().bind(Triplet(1, 20), 4)
        assert cd.owned(1) == (Triplet(2, 20, 4),)

    def test_owned_blocks_k3(self):
        cd = Cyclic(3).bind(Triplet(1, 20), 3)
        assert cd.owned(0) == (Triplet(1, 3, 1), Triplet(10, 12, 1),
                               Triplet(19, 20, 1))

    def test_owned_partition_total(self):
        cd = Cyclic(4).bind(Triplet(0, 52), 5)
        seen = []
        for p in range(5):
            for t in cd.owned(p):
                seen.extend(t)
        assert sorted(seen) == list(range(0, 53))

    def test_local_extent_formula(self):
        cd = Cyclic(4).bind(Triplet(0, 52), 5)
        for p in range(5):
            assert cd.local_extent(p) == sum(
                len(t) for t in cd.owned(p))

    def test_local_index_packing(self):
        cd = Cyclic(3).bind(Triplet(1, 30), 4)
        # local indices on each coord must be 0..extent-1, in global order
        for p in range(4):
            locals_ = [cd.local_index(i)
                       for t in cd.owned(p) for i in t]
            assert locals_ == list(range(cd.local_extent(p)))

    def test_global_local_roundtrip(self):
        cd = Cyclic(5).bind(Triplet(2, 47), 3)
        for p in range(3):
            for t in cd.owned(p):
                for i in t:
                    assert cd.global_index(p, cd.local_index(i)) == i

    def test_vectorized_matches_scalar(self):
        cd = Cyclic(3).bind(Triplet(0, 100), 7)
        vals = np.arange(0, 101)
        np.testing.assert_array_equal(
            cd.owners_of(vals),
            [cd.owner_coord(int(v)) for v in vals])

    def test_nonunit_lower_bound(self):
        cd = Cyclic(2).bind(Triplet(0, 9), 2)
        assert [cd.owner_coord(i) for i in range(0, 10)] == \
            [0, 0, 1, 1, 0, 0, 1, 1, 0, 0]

    def test_neighbour_separation_cyclic1(self):
        # §8.1.1: under CYCLIC every pair of adjacent indices lands on
        # different processors (NP > 1)
        cd = Cyclic().bind(Triplet(0, 99), 4)
        assert all(cd.owner_coord(i) != cd.owner_coord(i + 1)
                   for i in range(0, 99))
