"""Communication-set computation: vectorized oracle + analytic sets.

Under owner-computes, processor ``p`` executes the iterations whose LHS
element it owns; for every RHS reference, the iterations whose operand
lives on ``q != p`` require a message ``q -> p``.  Two independent
implementations compute this traffic:

* :func:`comm_matrix` — the **oracle**: slice both owner maps by the
  respective sections, compare elementwise (one fused NumPy pass), and
  bincount the (src, dst) pairs.  Always applicable; exact.
* :func:`analytic_comm_sets` — the **compile-time technique** of SUPERB /
  the Vienna Fortran Compilation System [13]: ownership of every format
  distribution is a per-dimension union of subscript triplets, sections
  are per-dimension triplets, and the set of iterations p needs from q is
  the per-dimension intersection of their pre-images — a *regular
  section*, computed in closed form with the triplet algebra (CRT
  intersections), independent of array size.  Property tests prove it
  equals the oracle.

A ``CYCLIC(k)`` coordinate owning more than ``k`` blocks enters the
intersection as its ``k`` residue-class lattices (stride ``k*P``) rather
than as its blocks: a cyclic reshuffle is an index lattice, so one
``CYCLIC(k) -> CYCLIC(k')`` unit pair costs at most ``k*k'`` CRT
intersections per dimension, and for fixed ``k``, ``k'`` and ``P`` the
analytic cost does not depend on ``n`` below the piece limit (which still
counts blocks, so the analytic-vs-oracle decision is unchanged).

Replicated operands go through the oracle only, with the bulk
:meth:`~repro.distributions.distribution.Distribution.owner_mask` kernel
(one NumPy pass per owning unit) instead of a walk over the elements;
there is no size limit.

The iteration space of a statement is the LHS section's standard domain;
both section ranks must agree (Fortran conformance), and iteration
position ``t`` touches LHS element ``L_d.value_at(t_d - 1)`` and RHS
element ``R_d.value_at(t_d - 1)`` per dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.distributions.base import DimDistribution
from repro.distributions.cyclic import CyclicDim
from repro.distributions.distribution import Distribution, FormatDistribution
from repro.engine.expr import section_slicer
from repro.engine.owner_computes import section_owner_map
from repro.errors import MachineError
from repro.fortran.section import ArraySection
from repro.fortran.triplet import EMPTY_TRIPLET, Triplet

__all__ = ["comm_matrix", "analytic_comm_sets", "CommPiece",
           "AnalyticUnsupported", "words_matrix_from_pieces"]


class AnalyticUnsupported(MachineError):
    """The analytic path cannot handle this mapping; use the oracle."""


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def comm_matrix(lhs_dist: Distribution, lhs_section: ArraySection,
                ref_dist: Distribution, ref_section: ArraySection,
                n_processors: int) -> tuple[np.ndarray, int, int]:
    """Exact (P, P) words matrix for one RHS reference.

    Returns ``(matrix, local_refs, off_refs)`` with ``matrix[q, p]`` the
    number of elements moving ``q -> p``.
    """
    if lhs_section.shape != ref_section.shape:
        raise MachineError(
            f"non-conformable sections {lhs_section.shape} vs "
            f"{ref_section.shape}")
    p = n_processors
    dst = np.asfortranarray(
        section_owner_map(lhs_dist, lhs_section)).reshape(-1, order="F")
    if not ref_dist.is_replicated:
        src = np.asfortranarray(
            section_owner_map(ref_dist, ref_section)).reshape(-1, order="F")
        mask = src != dst
    else:
        # Replicated operand: an iteration is local whenever the executing
        # processor is *one of* the owners; otherwise it fetches from the
        # smallest owner.  One owner-mask pass per unit, largest first,
        # so the smallest owner is written last.
        slicer = section_slicer(ref_section)
        src = np.empty(dst.size, dtype=np.int64)
        local_mask = np.zeros(dst.size, dtype=bool)
        for unit in reversed(ref_dist.processors()):
            owns = ref_dist.owner_mask(unit)[slicer].reshape(-1, order="F")
            src[owns] = unit
            local_mask |= owns & (dst == unit)
        mask = ~local_mask
    off = int(mask.sum())
    local = int(mask.size - off)
    pairs = src[mask] * p + dst[mask]
    matrix = np.bincount(pairs, minlength=p * p).reshape(p, p)
    return matrix, local, off


# ----------------------------------------------------------------------
# Analytic regular sections
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CommPiece:
    """One q -> p transfer described as a regular section of the
    iteration space: per dimension, a union of subscript triplets (the
    transferred set is the cartesian product of the per-dim unions)."""

    src: int
    dst: int
    dim_sets: tuple[tuple[Triplet, ...], ...]

    @property
    def words(self) -> int:
        n = 1
        for dim in self.dim_sets:
            n *= sum(len(t) for t in dim)
        return n

    def __str__(self) -> str:
        dims = " x ".join(
            "{" + ",".join(str(t) for t in ds) + "}" for ds in self.dim_sets)
        return f"P{self.src}->P{self.dst}: {dims} ({self.words} words)"


def _preimage(global_piece: Triplet, sec_triplet: Triplet) -> Triplet:
    """Iteration positions (1-based) whose section element lies in
    ``global_piece``; exact triplet arithmetic."""
    c = global_piece.intersect(sec_triplet)
    if c.is_empty:
        return EMPTY_TRIPLET
    s = sec_triplet.stride
    lo = sec_triplet.lower
    p_lo = (c.lower - lo) // s + 1
    p_hi = (c.last - lo) // s + 1
    stride = c.stride // s if len(c) > 1 else 1
    if stride == 0:
        stride = 1
    return Triplet(p_lo, p_hi, stride).as_ascending_set()


def _owned_lattices(dd: DimDistribution, coord: int
                    ) -> tuple[int, tuple[Triplet, ...]]:
    """``(blocks, triplets)``: how many pieces ``coord`` owns, and its
    owned set as a union of triplets.  A ``CYCLIC(k)`` coordinate owning
    more than ``k`` blocks enters as its ``k`` residue-class lattices
    ``lo + c*k + r : last : k*P`` instead of its blocks, so the set's size
    no longer grows with the dimension."""
    if isinstance(dd, CyclicDim) and dd.k > 1:
        first = dd.dim.lower + coord * dd.k
        last = dd.dim.last
        blocks = (last - first) // dd.period + 1 if first <= last else 0
        if dd.k < blocks:
            return blocks, tuple(Triplet(first + r, last, dd.period)
                                 for r in range(dd.k))
    owned = dd.owned(coord)
    return len(owned), owned


def _side_iteration_sets(dist: FormatDistribution, section: ArraySection,
                         piece_limit: int
                         ) -> dict[int, list[tuple[Triplet, ...]]]:
    """For every owning unit: per iteration dimension, the union of
    iteration triplets whose element the unit owns."""
    if not isinstance(dist, FormatDistribution):
        raise AnalyticUnsupported(
            f"analytic sets need a format distribution, got "
            f"{type(dist).__name__}")
    if dist.is_replicated:
        raise AnalyticUnsupported(
            "analytic sets do not cover replicated operands")
    kept = section.kept_dims
    out: dict[int, list[tuple[Triplet, ...]]] = {}
    for unit in dist.processors():
        coords = dist.dim_coords_of_unit(unit)
        coord_of_dim: list[int] = []
        ci = iter(coords)
        for tdim in dist.target_dim_of:
            coord_of_dim.append(next(ci) if tdim is not None else 0)
        # scalar-subscripted dims: the unit participates only if its
        # coordinate owns the fixed element
        participates = True
        for j, sub in enumerate(section.subscripts):
            if not isinstance(sub, Triplet):
                dd = dist.dims[j]
                if coord_of_dim[j] not in dd.owner_coords(int(sub)):
                    participates = False
                    break
        if not participates:
            continue
        per_dim: list[tuple[Triplet, ...]] = []
        empty = False
        for d, j in enumerate(kept):
            dd = dist.dims[j]
            sec_t = section.subscripts[j]
            pieces = []
            blocks, owned = _owned_lattices(dd, coord_of_dim[j])
            if blocks > piece_limit:
                raise AnalyticUnsupported(
                    f"{blocks} owned pieces exceed the analytic "
                    f"piece limit {piece_limit}")
            for og in owned:
                pre = _preimage(og, sec_t)
                if not pre.is_empty:
                    pieces.append(pre)
            if not pieces:
                empty = True
                break
            per_dim.append(tuple(pieces))
        if not empty:
            out[unit] = per_dim
    return out


def analytic_comm_sets(lhs_dist: Distribution, lhs_section: ArraySection,
                       ref_dist: Distribution, ref_section: ArraySection,
                       *, piece_limit: int = 512) -> list[CommPiece]:
    """Closed-form communication sets for one RHS reference.

    Raises :class:`AnalyticUnsupported` for mappings outside the regular-
    section family (replication, constructed distributions, more owned
    pieces than ``piece_limit``); callers fall back to the oracle.
    """
    if lhs_section.shape != ref_section.shape:
        raise MachineError(
            f"non-conformable sections {lhs_section.shape} vs "
            f"{ref_section.shape}")
    lhs_sets = _side_iteration_sets(lhs_dist, lhs_section, piece_limit)
    ref_sets = _side_iteration_sets(ref_dist, ref_section, piece_limit)
    out: list[CommPiece] = []
    for q, q_dims in ref_sets.items():
        for p, p_dims in lhs_sets.items():
            if p == q:
                continue
            dim_sets: list[tuple[Triplet, ...]] = []
            empty = False
            for qa, pa in zip(q_dims, p_dims):
                inter = []
                for a in qa:
                    for b in pa:
                        c = a.intersect(b)
                        if not c.is_empty:
                            inter.append(c)
                if not inter:
                    empty = True
                    break
                dim_sets.append(tuple(inter))
            if not empty:
                out.append(CommPiece(q, p, tuple(dim_sets)))
    return out


def words_matrix_from_pieces(pieces: Iterable[CommPiece],
                             n_processors: int) -> np.ndarray:
    """Aggregate analytic pieces into the (P, P) words matrix."""
    matrix = np.zeros((n_processors, n_processors), dtype=np.int64)
    for piece in pieces:
        matrix[piece.src, piece.dst] += piece.words
    return matrix
