"""Property-based tests: analytic communication sets == vectorized oracle.

This is the load-bearing equivalence of the execution engine: the closed-
form regular-section computation (the SUPERB/VFCS technique [13]) must
agree exactly with dense owner-map comparison for every mapping pair and
section pair in the regular family.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataspace import DataSpace
from repro.distributions.block import Block, BlockVariant
from repro.distributions.cyclic import Cyclic
from repro.distributions.general_block import GeneralBlock
from repro.engine.commsets import (
    analytic_comm_sets,
    comm_matrix,
    words_matrix_from_pieces,
)
from repro.fortran.triplet import Triplet


@st.composite
def formats(draw, np_, n):
    kind = draw(st.sampled_from(["block", "vienna", "cyclic", "gb"]))
    if kind == "block":
        return Block()
    if kind == "vienna":
        return Block(variant=BlockVariant.VIENNA)
    if kind == "cyclic":
        return Cyclic(draw(st.integers(1, 5)))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=np_ - 1,
                                max_size=np_ - 1)))
    return GeneralBlock(cuts)


@st.composite
def sections(draw, n, count):
    """``count`` conformable sections of a [1:n] dimension."""
    length = draw(st.integers(1, n))
    out = []
    for _ in range(count):
        stride = draw(st.integers(1, 4))
        max_lo = n - (length - 1) * stride
        if max_lo < 1:
            stride = max((n - 1) // max(length - 1, 1), 1)
            max_lo = n - (length - 1) * stride
        lo = draw(st.integers(1, max(max_lo, 1)))
        out.append(Triplet(lo, lo + (length - 1) * stride, stride))
    return out


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_analytic_equals_oracle_1d(data):
    n = 80
    np_ = data.draw(st.integers(2, 6))
    ds = DataSpace(np_)
    ds.processors("PR", np_)
    ds.declare("X", n)
    ds.declare("Y", n)
    ds.distribute("X", [data.draw(formats(np_, n))], to="PR")
    ds.distribute("Y", [data.draw(formats(np_, n))], to="PR")
    lsec, rsec = data.draw(sections(n, 2))
    dl, dr = ds.distribution_of("X"), ds.distribution_of("Y")
    sl = ds.section("X", lsec)
    sr = ds.section("Y", rsec)
    m_oracle, local, off = comm_matrix(dl, sl, dr, sr, np_)
    pieces = analytic_comm_sets(dl, sl, dr, sr)
    m_analytic = words_matrix_from_pieces(pieces, np_)
    np.testing.assert_array_equal(m_oracle, m_analytic)
    assert local + off == len(lsec)
    assert m_oracle.sum() == off


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_analytic_equals_oracle_2d(data):
    rows = data.draw(st.integers(2, 3))
    cols = data.draw(st.integers(1, 3))
    np_ = rows * cols
    ds = DataSpace(np_)
    ds.processors("PR", rows, cols)
    n1, n2 = 24, 18
    ds.declare("X", n1, n2)
    ds.declare("Y", n1, n2)
    f = lambda: data.draw(formats(rows, n1))  # noqa: E731
    g = lambda: data.draw(formats(cols, n2))  # noqa: E731
    ds.distribute("X", [f(), g()], to="PR")
    ds.distribute("Y", [f(), g()], to="PR")
    (l1, r1) = data.draw(sections(n1, 2))
    (l2, r2) = data.draw(sections(n2, 2))
    dl, dr = ds.distribution_of("X"), ds.distribution_of("Y")
    sl = ds.section("X", l1, l2)
    sr = ds.section("Y", r1, r2)
    m_oracle, _, off = comm_matrix(dl, sl, dr, sr, np_)
    m_analytic = words_matrix_from_pieces(
        analytic_comm_sets(dl, sl, dr, sr), np_)
    np.testing.assert_array_equal(m_oracle, m_analytic)


#: (k, k') pairs: coprime and sharing a factor, equal, and mixed with k=1
CYCLIC_PAIRS = [(3, 7), (5, 8), (4, 6), (2, 8), (6, 6), (1, 8), (7, 1)]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_cyclic_lattices_equal_oracle_1d(data):
    """CYCLIC(k) -> CYCLIC(k') with more blocks than k per unit, so both
    sides enter as residue lattices; strided and offset sections."""
    k, k2 = data.draw(st.sampled_from(CYCLIC_PAIRS)
                      | st.tuples(st.integers(1, 8), st.integers(1, 8)))
    np_ = data.draw(st.integers(2, 6))
    n = data.draw(st.integers(200, 900))
    ds = DataSpace(np_)
    ds.processors("PR", np_)
    ds.declare("X", n)
    ds.declare("Y", n)
    ds.distribute("X", [Cyclic(k)], to="PR")
    ds.distribute("Y", [Cyclic(k2)], to="PR")
    lsec, rsec = data.draw(sections(n, 2))
    dl, dr = ds.distribution_of("X"), ds.distribution_of("Y")
    sl, sr = ds.section("X", lsec), ds.section("Y", rsec)
    m_oracle, _, off = comm_matrix(dl, sl, dr, sr, np_)
    m_analytic = words_matrix_from_pieces(
        analytic_comm_sets(dl, sl, dr, sr), np_)
    np.testing.assert_array_equal(m_oracle, m_analytic)
    assert m_analytic.sum() == off


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_cyclic_lattices_equal_oracle_2d(data):
    rows = data.draw(st.integers(2, 3))
    cols = data.draw(st.integers(1, 3))
    np_ = rows * cols
    ds = DataSpace(np_)
    ds.processors("PR", rows, cols)
    n1, n2 = 90, 60
    ds.declare("X", n1, n2)
    ds.declare("Y", n1, n2)
    pairs = st.sampled_from(CYCLIC_PAIRS)
    (a, b), (c, d) = data.draw(pairs), data.draw(pairs)
    ds.distribute("X", [Cyclic(a), Cyclic(c)], to="PR")
    ds.distribute("Y", [Cyclic(b), Cyclic(d)], to="PR")
    (l1, r1) = data.draw(sections(n1, 2))
    (l2, r2) = data.draw(sections(n2, 2))
    dl, dr = ds.distribution_of("X"), ds.distribution_of("Y")
    sl = ds.section("X", l1, l2)
    sr = ds.section("Y", r1, r2)
    m_oracle, _, _ = comm_matrix(dl, sl, dr, sr, np_)
    m_analytic = words_matrix_from_pieces(
        analytic_comm_sets(dl, sl, dr, sr), np_)
    np.testing.assert_array_equal(m_oracle, m_analytic)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_remap_pricing_conserves_elements(data):
    """price_remap moves exactly the elements whose owner changed, and
    row/column sums match the per-processor gains/losses."""
    from repro.engine.redistribute import price_remap
    np_ = data.draw(st.integers(2, 6))
    n = data.draw(st.integers(np_, 100))
    ds = DataSpace(np_)
    ds.processors("PR", np_)
    ds.declare("A", n, dynamic=True)
    ds.distribute("A", [data.draw(formats(np_, n))], to="PR")
    old_map = ds.owner_map("A").copy()
    event = ds.redistribute("A", [data.draw(formats(np_, n))], to="PR")
    new_map = ds.owner_map("A")
    matrix, moved = price_remap(event, np_)
    assert moved == int((old_map != new_map).sum())
    # outgoing words per processor == elements it lost
    for p in range(np_):
        lost = int(((old_map == p) & (new_map != p)).sum())
        gained = int(((new_map == p) & (old_map != p)).sum())
        assert matrix[p, :].sum() == lost
        assert matrix[:, p].sum() == gained
