"""Unit tests for BLOCK distributions (§4.1.1 + Vienna variant)."""

import numpy as np
import pytest

from repro.distributions.block import Block, BlockVariant
from repro.errors import DistributionError
from repro.fortran.triplet import Triplet


class TestHpfBlock:
    def test_paper_formula(self):
        # §4.1.1: q = ceil(N/NP); delta(i) = {ceil(i/q)} (1-based)
        n, np_ = 10, 4
        bd = Block().bind(Triplet(1, n), np_)
        q = -(-n // np_)
        assert bd.block_size == q == 3
        for i in range(1, n + 1):
            assert bd.owner_coord(i) + 1 == -(-i // q)

    def test_paper_local_index(self):
        # §4.1.1: local index of A(i) on R(j) is i - (j-1)*q
        bd = Block().bind(Triplet(1, 10), 4)
        for i in range(1, 11):
            j = bd.owner_coord(i) + 1
            assert bd.paper_local_index(i) == i - (j - 1) * bd.block_size
            assert bd.local_index(i) == bd.paper_local_index(i) - 1

    def test_trailing_processor_can_be_empty(self):
        # N=10, NP=4, q=3 -> blocks 3,3,3,1; N=9, NP=4, q=3 -> 3,3,3,0
        bd = Block().bind(Triplet(1, 9), 4)
        assert bd.owned(3) == ()
        assert bd.local_extent(3) == 0
        assert [bd.local_extent(p) for p in range(4)] == [3, 3, 3, 0]

    def test_owned_blocks_partition_domain(self):
        bd = Block().bind(Triplet(1, 10), 4)
        covered = []
        for p in range(4):
            for t in bd.owned(p):
                covered.extend(t)
        assert covered == list(range(1, 11))

    def test_nonunit_lower_bound(self):
        # the staggered grid's U(0:N)
        bd = Block().bind(Triplet(0, 8), 3)
        assert bd.owner_coord(0) == 0
        assert bd.owner_coord(8) == 2
        assert bd.owned(0) == (Triplet(0, 2, 1),)

    def test_vectorized_owner_matches_scalar(self):
        bd = Block().bind(Triplet(0, 100), 7)
        values = np.arange(0, 101)
        got = bd.owners_of(values)
        expected = [bd.owner_coord(int(v)) for v in values]
        np.testing.assert_array_equal(got, expected)

    def test_global_local_roundtrip(self):
        bd = Block().bind(Triplet(1, 17), 4)
        for p in range(4):
            for t in bd.owned(p):
                for i in t:
                    assert bd.global_index(p, bd.local_index(i)) == i

    def test_global_index_bad_local(self):
        bd = Block().bind(Triplet(1, 10), 4)
        with pytest.raises(DistributionError):
            bd.global_index(0, 3)

    def test_explicit_block_size(self):
        bd = Block(size=5).bind(Triplet(1, 20), 4)
        assert bd.block_size == 5
        assert Block(size=5).is_extension

    def test_explicit_size_too_small(self):
        with pytest.raises(DistributionError):
            Block(size=2).bind(Triplet(1, 20), 4)

    def test_bad_size_rejected(self):
        with pytest.raises(DistributionError):
            Block(size=0)

    def test_empty_dim_rejected(self):
        with pytest.raises(DistributionError):
            Block().bind(Triplet(1, 0), 4)

    def test_strided_dim_rejected(self):
        with pytest.raises(DistributionError):
            Block().bind(Triplet(1, 10, 2), 4)


class TestViennaBlock:
    def test_balanced_sizes(self):
        bd = Block(variant=BlockVariant.VIENNA).bind(Triplet(1, 10), 4)
        assert [bd.local_extent(p) for p in range(4)] == [3, 3, 2, 2]

    def test_divisible_matches_hpf(self):
        h = Block().bind(Triplet(1, 16), 4)
        v = Block(variant=BlockVariant.VIENNA).bind(Triplet(1, 16), 4)
        for i in range(1, 17):
            assert h.owner_coord(i) == v.owner_coord(i)

    def test_every_processor_nonempty_when_n_ge_np(self):
        bd = Block(variant=BlockVariant.VIENNA).bind(Triplet(1, 9), 4)
        assert all(bd.local_extent(p) >= 1 for p in range(4))

    def test_fewer_elements_than_processors(self):
        bd = Block(variant=BlockVariant.VIENNA).bind(Triplet(1, 3), 5)
        assert [bd.local_extent(p) for p in range(5)] == [1, 1, 1, 0, 0]

    def test_owner_array_matches_scalar(self):
        bd = Block(variant=BlockVariant.VIENNA).bind(Triplet(0, 52), 7)
        vals = np.arange(0, 53)
        np.testing.assert_array_equal(
            bd.owners_of(vals),
            [bd.owner_coord(int(v)) for v in vals])

    def test_partition_contiguous_and_total(self):
        bd = Block(variant=BlockVariant.VIENNA).bind(Triplet(1, 23), 5)
        covered = []
        for p in range(5):
            blocks = bd.owned(p)
            assert len(blocks) <= 1
            for t in blocks:
                covered.extend(t)
        assert covered == list(range(1, 24))

    def test_roundtrip(self):
        bd = Block(variant=BlockVariant.VIENNA).bind(Triplet(1, 23), 5)
        for p in range(5):
            for t in bd.owned(p):
                for i in t:
                    assert bd.owner_coord(i) == p
                    assert bd.global_index(p, bd.local_index(i)) == i

    def test_footnote_boundary_stability(self):
        # §8 footnote mechanism: Vienna partitions of N and N+1 elements
        # never drift by more than one owner
        for n in (12, 15, 16, 17, 20):
            bp = Block(variant=BlockVariant.VIENNA).bind(Triplet(1, n), 4)
            bu = Block(variant=BlockVariant.VIENNA).bind(Triplet(0, n), 4)
            drift = max(abs(bu.owner_coord(i) - bp.owner_coord(i))
                        for i in range(1, n + 1))
            assert drift <= 1
