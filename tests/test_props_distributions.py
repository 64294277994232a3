"""Property-based tests: distribution-function invariants (Definitions 1-2).

Every bound per-dimension distribution must be a *total* mapping into
non-empty coordinate sets whose owned sets partition the dimension
(non-replicated formats), with bijective local<->global translation and
vectorized owners agreeing with scalar owners.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions.base import Collapsed
from repro.distributions.block import Block, BlockVariant
from repro.distributions.cyclic import Cyclic
from repro.distributions.general_block import GeneralBlock
from repro.fortran.triplet import Triplet

_dims = st.tuples(st.integers(-20, 20), st.integers(1, 120)).map(
    lambda t: Triplet(t[0], t[0] + t[1] - 1, 1))
_np = st.integers(1, 10)


@st.composite
def bound_distributions(draw):
    dim = draw(_dims)
    np_ = draw(_np)
    kind = draw(st.sampled_from(["block", "vienna", "cyclic", "gb",
                                 "colon"]))
    if kind == "block":
        return Block().bind(dim, np_), dim, np_
    if kind == "vienna":
        return Block(variant=BlockVariant.VIENNA).bind(dim, np_), dim, np_
    if kind == "cyclic":
        k = draw(st.integers(1, 7))
        return Cyclic(k).bind(dim, np_), dim, np_
    if kind == "gb":
        cuts = sorted(draw(st.lists(
            st.integers(dim.lower - 1, dim.last),
            min_size=np_ - 1, max_size=np_ - 1)))
        return GeneralBlock(cuts).bind(dim, np_), dim, np_
    return Collapsed().bind(dim, 1), dim, 1


@given(bound_distributions())
@settings(max_examples=150)
def test_totality(case):
    dd, dim, np_ = case
    for i in dim:
        owners = dd.owner_coords(i)
        assert len(owners) >= 1
        assert all(0 <= p < dd.np_ for p in owners)


@given(bound_distributions())
@settings(max_examples=150)
def test_owned_sets_partition_dimension(case):
    dd, dim, np_ = case
    seen: dict[int, int] = {}
    for p in range(dd.np_):
        for t in dd.owned(p):
            for i in t:
                assert i not in seen, f"{i} owned by {seen[i]} and {p}"
                seen[i] = p
    assert set(seen) == set(dim)


@given(bound_distributions())
@settings(max_examples=150)
def test_owner_coord_consistent_with_owned(case):
    dd, dim, np_ = case
    for p in range(dd.np_):
        for t in dd.owned(p):
            for i in t:
                assert dd.owner_coord(i) == p


@given(bound_distributions())
@settings(max_examples=100)
def test_vectorized_owner_agrees(case):
    dd, dim, np_ = case
    vals = dim.values()
    got = dd.owners_of(vals)
    expected = np.array([dd.owner_coord(int(v)) for v in vals])
    np.testing.assert_array_equal(got, expected)


@given(bound_distributions())
@settings(max_examples=100)
def test_local_global_bijection(case):
    dd, dim, np_ = case
    for p in range(dd.np_):
        locals_seen = set()
        for t in dd.owned(p):
            for i in t:
                loc = dd.local_index(i)
                assert loc not in locals_seen
                locals_seen.add(loc)
                assert dd.global_index(p, loc) == i
        assert len(locals_seen) == dd.local_extent(p)


@given(bound_distributions())
@settings(max_examples=100)
def test_extents_sum_to_dimension(case):
    dd, dim, np_ = case
    assert sum(dd.local_extent(p) for p in range(dd.np_)) == len(dim)
