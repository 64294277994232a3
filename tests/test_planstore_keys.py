"""Plan-store layout keys are exact: the owner-map digest tells apart
layouts whose ``describe()`` strings coincide, and the digest itself,
taken at the narrowest integer width, cannot alias across widths."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.dataspace import DataSpace
from repro.distributions.block import Block
from repro.distributions.indirect import Indirect, UserDefined
from repro.engine.assignment import Assignment
from repro.engine.commsets import comm_matrix
from repro.engine.expr import ArrayRef
from repro.engine.planstore import (
    PlanStore,
    distribution_key,
    owner_digest,
    swapped_plan_store,
)
from repro.engine.schedule import schedule_for
from repro.fortran.triplet import Triplet

N, P = 12, 4

#: two INDIRECT maps sharing their first six owners: ``describe()``
#: truncates both to ``INDIRECT((0,1,2,3,0,1,...))``
INDIRECT_PAIR = (Indirect([0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]),
                 Indirect([0, 1, 2, 3, 0, 1, 3, 3, 2, 2, 1, 0]))
#: two user-defined maps with one name and different functions
USER_PAIR = (UserDefined(lambda i: i % P, name="f"),
             UserDefined(lambda i: (i // 3) % P, name="f"))


def _scope(x_format) -> DataSpace:
    ds = DataSpace(P)
    ds.processors("PR", P)
    ds.declare("X", N)
    ds.declare("Y", N)
    ds.distribute("X", [x_format], to="PR")
    ds.distribute("Y", [Block()], to="PR")
    return ds


@pytest.mark.parametrize("pair", [INDIRECT_PAIR, USER_PAIR],
                         ids=["indirect-prefix", "user-same-name"])
def test_layouts_with_equal_descriptions_get_distinct_keys(pair):
    """The owner-map digest is the only key field that separates these
    layouts, so two scopes running the same statement under one store
    compile twice and each charges its own words."""
    scopes = [_scope(fmt) for fmt in pair]
    dists = [ds.distribution_of("X") for ds in scopes]
    assert dists[0].describe() == dists[1].describe()
    assert not np.array_equal(dists[0].primary_owner_map(),
                              dists[1].primary_owner_map())
    keys = [distribution_key("X", ds.arrays["X"].dtype, d)
            for ds, d in zip(scopes, dists)]
    assert keys[0] != keys[1]

    stmt = Assignment(ArrayRef("Y", (Triplet(1, N),)),
                      ArrayRef("X", (Triplet(1, N),)))
    want = [comm_matrix(ds.distribution_of("Y"), stmt.lhs.section(ds),
                        ds.distribution_of("X"), stmt.rhs.section(ds), P)[0]
            for ds in scopes]
    assert not np.array_equal(want[0], want[1])
    with swapped_plan_store(PlanStore()) as store:
        got = [schedule_for(ds, stmt, P).refs[0].words for ds in scopes]
    assert (store.misses, store.hits) == (2, 0)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_digest_hashes_the_width():
    """``[256, 2]`` as ``uint16`` and ``[0, 1, 2, 0]`` as ``uint8`` are
    both the bytes ``00 01 02 00``; only the hashed dtype separates
    them."""
    wide, narrow = np.array([256, 2]), np.array([0, 1, 2, 0])
    assert wide.astype(np.uint16).tobytes() == \
        narrow.astype(np.uint8).tobytes()
    assert owner_digest(wide) != owner_digest(narrow)


owner_arrays = hnp.arrays(
    np.int64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0,
                               max_side=5),
    elements=st.integers(0, 300))


@given(owner_arrays, owner_arrays, st.data())
@settings(max_examples=300, deadline=None)
def test_digests_equal_iff_value_sequences_equal(a, b, data):
    """The digest is exact on the Fortran-order value sequence (a
    layout key carries the shape separately), for any input dtype."""
    if data.draw(st.booleans()):
        b = a.astype(data.draw(st.sampled_from(
            [np.int64, np.int32, np.uint16])))
        if b.size and data.draw(st.booleans()):
            flat = b.reshape(-1, order="F").copy()
            flat[data.draw(st.integers(0, flat.size - 1))] ^= 1
            b = flat
    same = np.array_equal(a.reshape(-1, order="F"), b.reshape(-1, order="F"))
    assert (owner_digest(a) == owner_digest(b)) == same


def test_wide_machine_layout_key_follows_one_owner_change():
    """P = 300 owner maps take the ``uint16`` path; moving one element
    to another unit changes the key even when ``describe()`` cannot
    tell (INDIRECT truncates after six owners)."""
    p, n = 300, 600
    ds = DataSpace(p)
    ds.processors("PR", p)
    for name in ("B", "S", "M"):
        ds.declare(name, n)
    ds.distribute("B", [Block()], to="PR")
    owners = ds.distribution_of("B").primary_owner_map()
    assert owners.max() > np.iinfo(np.uint8).max
    moved = owners.copy()
    moved[-1] = 0
    ds.distribute("S", [Indirect(owners)], to="PR")
    ds.distribute("M", [Indirect(moved)], to="PR")
    same, diff = ds.distribution_of("S"), ds.distribution_of("M")
    assert same.describe() == diff.describe()
    assert owner_digest(same.primary_owner_map()) == owner_digest(owners)
    assert owner_digest(diff.primary_owner_map()) != owner_digest(owners)
    assert distribution_key("A", np.float64, same) != \
        distribution_key("A", np.float64, diff)
