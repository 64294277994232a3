"""Unit tests for communication sets (oracle + analytic)."""

import numpy as np
import pytest

from repro.core.dataspace import DataSpace
from repro.distributions.base import Collapsed
from repro.distributions.block import Block
from repro.distributions.cyclic import Cyclic
from repro.distributions.general_block import GeneralBlock
from repro.engine.commsets import (
    AnalyticUnsupported,
    CommPiece,
    analytic_comm_sets,
    comm_matrix,
    words_matrix_from_pieces,
)
from repro.errors import MachineError
from repro.fortran.section import full_section
from repro.fortran.triplet import Triplet


def oracle_vs_analytic(ds, lhs, lsec, rhs, rsec, p):
    dl = ds.distribution_of(lhs)
    dr = ds.distribution_of(rhs)
    sl = ds.section(lhs, *lsec)
    sr = ds.section(rhs, *rsec)
    m1, local, off = comm_matrix(dl, sl, dr, sr, p)
    pieces = analytic_comm_sets(dl, sl, dr, sr)
    m2 = words_matrix_from_pieces(pieces, p)
    return m1, m2, local, off, pieces


class TestOracle:
    def test_identity_no_traffic(self, blocked_pair):
        ds = blocked_pair
        d = ds.distribution_of("A")
        sec = full_section(ds.arrays["A"].domain)
        m, local, off = comm_matrix(d, sec, d, sec, 8)
        assert m.sum() == 0 and off == 0 and local == 64

    def test_conformance_checked(self, blocked_pair):
        ds = blocked_pair
        d = ds.distribution_of("A")
        with pytest.raises(MachineError):
            comm_matrix(d, ds.section("A", Triplet(1, 10)),
                        d, ds.section("B", Triplet(1, 9)), 8)

    def test_words_conserved(self, cyclic_pair):
        ds = cyclic_pair
        dl = ds.distribution_of("A")
        dr = ds.distribution_of("B")
        sec = full_section(ds.arrays["A"].domain)
        m, local, off = comm_matrix(dl, sec, dr, sec, 8)
        assert local + off == 60
        assert m.sum() == off

    def test_replicated_operand_local_when_owner_present(self, ds8):
        from repro.align.ast import Dummy
        from repro.align.spec import (AlignSpec, AxisDummy, BaseExpr,
                                      BaseStar)
        # R replicated over all processors: every read is local
        ds8.declare("D", 16, 8)
        ds8.declare("R", 16)
        ds8.declare("L", 16)
        ds8.distribute("D", [Block(), Block()], to=None)
        ds8.distribute("L", [Block()], to="PR")
        ds8.align(AlignSpec("R", [AxisDummy("I")], "D",
                            [BaseExpr(Dummy("I")), BaseStar()]))
        dl = ds8.distribution_of("L")
        dr = ds8.distribution_of("R")
        sec = full_section(ds8.arrays["L"].domain)
        m, local, off = comm_matrix(dl, sec, dr, sec, 8)
        # D's row-blocks span only 4 target rows; every L owner holds a
        # copy for the rows it needs at least somewhere — count is exact
        assert local + off == 16
        assert m.sum() == off


class TestAnalytic:
    CASES = [
        # (lhs fmt, rhs fmt, lhs section, rhs section, n, p)
        ([Block()], [Cyclic()], (Triplet(1, 60),), (Triplet(1, 60),),
         60, 6),
        ([Cyclic(3)], [Block()], (Triplet(2, 60, 2),),
         (Triplet(1, 59, 2),), 60, 6),
        ([GeneralBlock([10, 25, 40, 41, 55])], [Cyclic(2)],
         (Triplet(5, 58),), (Triplet(3, 56),), 60, 6),
        ([Cyclic(2)], [Cyclic(5)], (Triplet(1, 55, 3),),
         (Triplet(4, 58, 3),), 60, 6),
    ]

    @pytest.mark.parametrize("lfmt,rfmt,lsec,rsec,n,p", CASES)
    def test_matches_oracle_1d(self, lfmt, rfmt, lsec, rsec, n, p):
        ds = DataSpace(p)
        ds.processors("PR", p)
        ds.declare("X", n)
        ds.declare("Y", n)
        ds.distribute("X", lfmt, to="PR")
        ds.distribute("Y", rfmt, to="PR")
        m1, m2, _, off, _ = oracle_vs_analytic(ds, "X", lsec, "Y", rsec, p)
        np.testing.assert_array_equal(m1, m2)

    def test_matches_oracle_2d_scalar_dims(self):
        ds = DataSpace(8)
        ds.processors("PR", 4, 2)
        ds.declare("X", 24, 24)
        ds.declare("Y", 24, 24)
        ds.distribute("X", [Block(), Block()], to="PR")
        ds.distribute("Y", [Cyclic(2), Block()], to="PR")
        m1, m2, _, _, _ = oracle_vs_analytic(
            ds, "X", (Triplet(1, 20), 3), "Y", (5, Triplet(2, 21)), 8)
        np.testing.assert_array_equal(m1, m2)

    def test_collapsed_dim(self):
        ds = DataSpace(4)
        ds.processors("PR", 4)
        ds.declare("X", 16, 6)
        ds.declare("Y", 16, 6)
        ds.distribute("X", [Block(), Collapsed()], to="PR")
        ds.distribute("Y", [Cyclic(), Collapsed()], to="PR")
        m1, m2, _, _, _ = oracle_vs_analytic(
            ds, "X", (Triplet(1, 16), Triplet(1, 6)),
            "Y", (Triplet(1, 16), Triplet(1, 6)), 4)
        np.testing.assert_array_equal(m1, m2)

    def test_replicated_unsupported(self, ds8):
        from repro.distributions.replicated import ReplicatedDistribution
        from repro.fortran.domain import IndexDomain
        rep = ReplicatedDistribution(IndexDomain.standard(8), range(8))
        ds8.declare("L", 8)
        ds8.distribute("L", [Block()], to="PR")
        sec = full_section(ds8.arrays["L"].domain)
        with pytest.raises(AnalyticUnsupported):
            analytic_comm_sets(ds8.distribution_of("L"), sec, rep, sec)

    def test_piece_words(self):
        piece = CommPiece(0, 1, ((Triplet(1, 5), Triplet(11, 12)),
                                 (Triplet(1, 3),)))
        assert piece.words == 7 * 3
        assert "P0->P1" in str(piece)

    def test_pieces_describe_disjoint_regular_sections(self, cyclic_pair):
        ds = cyclic_pair
        dl = ds.distribution_of("A")
        dr = ds.distribution_of("B")
        sec = full_section(ds.arrays["A"].domain)
        pieces = analytic_comm_sets(dl, sec, dr, sec)
        # pieces with the same (src, dst) must not overlap
        seen = {}
        for p in pieces:
            vals = set()
            for t in p.dim_sets[0]:
                vals |= set(t)
            key = (p.src, p.dst)
            assert not (vals & seen.get(key, set()))
            seen.setdefault(key, set()).update(vals)
