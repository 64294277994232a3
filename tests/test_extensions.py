"""Tests for the library extensions: INDIRECT/user-defined distributions
(§8.1.2's missing expressiveness), processor VIEWs (§9) and the
ghost-region execution mode (SUPERB overlap)."""

import numpy as np
import pytest

from repro.core.dataspace import DataSpace
from repro.core.procedures import InheritedSectionDistribution
from repro.distributions.block import Block
from repro.distributions.cyclic import Cyclic
from repro.distributions.indirect import (
    Indirect,
    UserDefined,
    compress_to_triplets,
)
from repro.engine.assignment import Assignment
from repro.engine.commsets import analytic_comm_sets, comm_matrix, \
    words_matrix_from_pieces
from repro.engine.executor import SimulatedExecutor
from repro.engine.expr import ArrayRef
from repro.errors import DistributionError, MappingError
from repro.fortran.section import full_section
from repro.fortran.triplet import Triplet
from repro.machine.config import MachineConfig
from repro.machine.simulator import DistributedMachine
from repro.workloads.stencil import jacobi_case


class TestCompressToTriplets:
    def test_empty(self):
        assert compress_to_triplets(np.array([], dtype=int)) == ()

    def test_singleton(self):
        assert compress_to_triplets(np.array([7])) == (Triplet(7, 7, 1),)

    def test_contiguous_run(self):
        got = compress_to_triplets(np.arange(3, 10))
        assert got == (Triplet(3, 9, 1),)

    def test_strided_run(self):
        got = compress_to_triplets(np.array([1, 4, 7, 10]))
        assert got == (Triplet(1, 10, 3),)

    def test_mixed_runs(self):
        got = compress_to_triplets(np.array([1, 2, 3, 10, 20, 30, 31]))
        flattened = [v for t in got for v in t]
        assert flattened == [1, 2, 3, 10, 20, 30, 31]

    def test_roundtrip_random(self):
        rng = np.random.default_rng(5)
        vals = np.unique(rng.integers(0, 200, size=60))
        got = compress_to_triplets(vals)
        flattened = [v for t in got for v in t]
        assert flattened == sorted(vals.tolist())


class TestIndirect:
    def test_owner_lookup(self):
        fmt = Indirect([0, 2, 1, 1, 0, 2])
        dd = fmt.bind(Triplet(1, 6), 3)
        assert [dd.owner_coord(i) for i in range(1, 7)] == \
            [0, 2, 1, 1, 0, 2]

    def test_length_validated(self):
        with pytest.raises(DistributionError):
            Indirect([0, 1]).bind(Triplet(1, 6), 3)

    def test_range_validated(self):
        with pytest.raises(DistributionError):
            Indirect([0, 3, 1, 1, 0, 2]).bind(Triplet(1, 6), 3)

    def test_owned_sets_partition(self):
        mapping = [0, 2, 1, 1, 0, 2, 0, 0]
        dd = Indirect(mapping).bind(Triplet(0, 7), 3)
        seen = []
        for p in range(3):
            for t in dd.owned(p):
                seen.extend(t)
        assert sorted(seen) == list(range(0, 8))

    def test_local_global_roundtrip(self):
        rng = np.random.default_rng(9)
        mapping = rng.integers(0, 4, size=40)
        dd = Indirect(mapping).bind(Triplet(1, 40), 4)
        for i in range(1, 41):
            p = dd.owner_coord(i)
            assert dd.global_index(p, dd.local_index(i)) == i
        assert sum(dd.local_extent(p) for p in range(4)) == 40

    def test_user_defined_function(self):
        # an arbitrary mapping no HPF format can express: parity + halves
        fn = UserDefined(lambda i: (i % 2) * 2 + (i > 8), "parity")
        dd = fn.bind(Triplet(1, 16), 4)
        assert dd.owner_coord(3) == 2   # odd, <= 8
        assert dd.owner_coord(10) == 1  # even, > 8

    def test_analytic_comm_sets_work_with_indirect(self):
        ds = DataSpace(4)
        ds.processors("PR", 4)
        ds.declare("X", 32)
        ds.declare("Y", 32)
        rng = np.random.default_rng(17)
        ds.distribute("X", [Indirect(rng.integers(0, 4, size=32))],
                      to="PR")
        ds.distribute("Y", [Cyclic()], to="PR")
        dl, dr = ds.distribution_of("X"), ds.distribution_of("Y")
        sec = full_section(ds.arrays["X"].domain)
        m1, _, _ = comm_matrix(dl, sec, dr, sec, 4)
        m2 = words_matrix_from_pieces(
            analytic_comm_sets(dl, sec, dr, sec, piece_limit=64), 4)
        np.testing.assert_array_equal(m1, m2)

    def test_section_inheritance_becomes_expressible(self):
        """§8.1.2 resolved: the inherited distribution of A(2:996:2)
        (CYCLIC(3) parent) *is* directly describable as INDIRECT —
        the user-defined-distribution capability HPF lacked."""
        ds = DataSpace(4)
        ds.processors("PR", 4)
        ds.declare("A", 1000)
        ds.distribute("A", [Cyclic(3)], to="PR")
        sec = ds.section("A", Triplet(2, 996, 2))
        inherited = InheritedSectionDistribution(
            ds.distribution_of("A"), sec)
        mapping = inherited.primary_owner_map()
        ds.declare("X", 498)
        ds.distribute("X", [Indirect(mapping)], to="PR")
        np.testing.assert_array_equal(ds.owner_map("X"), mapping)

    def test_directive_level_indirect(self):
        from repro.directives.analyzer import run_program
        res = run_program("""
      REAL A(8)
      INTEGER MAP(1:8)
!HPF$ PROCESSORS PR(4)
!HPF$ DISTRIBUTE A(INDIRECT(MAP)) TO PR
""", n_processors=4, inputs={"MAP": [1, 2, 3, 4, 4, 3, 2, 1]})
        # 1-based directive values -> 0-based units
        np.testing.assert_array_equal(res.ds.owner_map("A"),
                                      [0, 1, 2, 3, 3, 2, 1, 0])


class TestProcessorViews:
    def test_view_shares_units(self, ds8):
        pr = ds8.ap.arrangement("PR")
        grid = ds8.ap.view(pr, "GRID", 2, 4)
        # same column-major rank -> same AP unit (§9 reshaping)
        assert ds8.ap.ap_unit(grid, (1, 1)) == ds8.ap.ap_unit(pr, (1,))
        assert ds8.ap.ap_unit(grid, (2, 3)) == ds8.ap.ap_unit(pr, (6,))
        assert ds8.ap.share_processors(pr, grid)

    def test_view_by_name(self, ds8):
        ds8.ap.view("PR", "GRID", 4, 2)
        assert ds8.ap.arrangement("GRID").shape == (4, 2)

    def test_view_size_mismatch(self, ds8):
        with pytest.raises(MappingError):
            ds8.ap.view("PR", "BAD", 3, 3)

    def test_distribute_to_view(self, ds8):
        ds8.ap.view("PR", "GRID", 2, 4)
        ds8.declare("A", 8, 8)
        ds8.distribute("A", [Block(), Block()], to="GRID")
        assert len(ds8.distribution_of("A").processors()) == 8


class TestOverlapExecution:
    def test_overlap_mode_jacobi_message_parity(self):
        # 5-point Jacobi has one reference per direction: halo exchange
        # needs the same number of messages, never more
        case = jacobi_case(64, 2, 2)
        naive = DistributedMachine(MachineConfig(4))
        SimulatedExecutor(case.ds, naive).execute(case.statement)
        halo = DistributedMachine(MachineConfig(4))
        rep = SimulatedExecutor(case.ds, halo,
                                use_overlap=True).execute(case.statement)
        assert rep.strategies.get("*") == "overlap"
        assert halo.stats.total_messages <= naive.stats.total_messages
        # halo volume bounds the naive traffic from above (full strips)
        assert halo.stats.total_words >= naive.stats.total_words
        # ... and costs at most 5% more modelled time for it
        config = halo.config
        assert (halo.stats.estimated_time(config)
                <= 1.05 * naive.stats.estimated_time(config))

    def test_overlap_mode_batches_width2_stencil(self):
        # two references per direction (width-2): the halo batches them
        # into one message per neighbour — strictly fewer messages
        ds = DataSpace(4)
        ds.processors("PR", 4)
        ds.declare("A", 64)
        ds.declare("B", 64)
        ds.distribute("A", [Block()], to="PR")
        ds.distribute("B", [Block()], to="PR")
        stmt = Assignment(
            ArrayRef("B", (Triplet(3, 62),)),
            ArrayRef("A", (Triplet(1, 60),))
            + ArrayRef("A", (Triplet(2, 61),))
            + ArrayRef("A", (Triplet(4, 63),))
            + ArrayRef("A", (Triplet(5, 64),)))
        naive = DistributedMachine(MachineConfig(4))
        SimulatedExecutor(ds, naive).execute(stmt)
        halo = DistributedMachine(MachineConfig(4))
        rep = SimulatedExecutor(ds, halo, use_overlap=True).execute(stmt)
        assert rep.strategies.get("*") == "overlap"
        assert halo.stats.total_messages < naive.stats.total_messages
        config = halo.config
        assert (halo.stats.estimated_time(config)
                <= 1.05 * naive.stats.estimated_time(config))

    def test_overlap_mode_falls_back(self, cyclic_pair, machine8):
        # non-halo-form mapping: overlap unavailable, normal accounting
        ex = SimulatedExecutor(cyclic_pair, machine8, use_overlap=True)
        rep = ex.execute(Assignment(ArrayRef("B"), ArrayRef("A")))
        assert "overlap" not in rep.strategies.values()
        assert rep.total_words > 0

    def test_overlap_mode_keeps_numerics(self):
        case = jacobi_case(32, 2, 2)
        case.ds.arrays["X"].data[:] = 4.0
        machine = DistributedMachine(MachineConfig(4))
        SimulatedExecutor(case.ds, machine,
                          use_overlap=True).execute(case.statement)
        inner = case.ds.arrays["XNEW"].data[1:-1, 1:-1]
        np.testing.assert_allclose(inner, 4.0)
