"""Compiled communication schedules — the vectorized, memoized middle end.

The paper's central claim is that direct distribution + alignment
functions (no templates) suffice to *derive* ownership and communication
sets at compile time.  This module is that derivation, packaged: a
:class:`CommSchedule` is everything the execution engine needs to run one
array assignment against the current layout of a :class:`DataSpace` —

* the flattened LHS owner map (who executes which iteration under
  owner-computes) and the per-processor work vector;
* one :class:`RefSchedule` per RHS reference occurrence: the exact
  (P, P) words matrix, the local/off-processor split, and which strategy
  (analytic regular sections / dense oracle) produced it;
* the SUPERB-style ghost-region :class:`OverlapPlan` when requested;
* one :class:`~repro.engine.lowering.Lowering` per reference and
  overlap plan: the compile-time pattern classification (SHIFT /
  BROADCAST / ALLGATHER / ALLTOALL / POINTWISE) the executors hand to
  :meth:`~repro.machine.simulator.DistributedMachine.charge_collective`
  so recognized traffic is priced with collective-tree formulas while
  the words matrices stay bit-identical.

There is one schedule per statement: every executor charges it, and the
SPMD backend (:mod:`repro.engine.spmd`) derives its per-worker pulls
from the same LHS owner vector plus each operand's owner map.

Schedules are compiled once per (layout, statement structure, machine
width, strategy) and memoized in the data space's
:class:`~repro.core.dataspace.ScheduleCache`; any REDISTRIBUTE / REALIGN
/ DEALLOCATE drops every schedule compiled against the remapped forest,
so Jacobi-style iteration 2..N becomes a pure cache hit while remaining
bit-identical to per-statement recomputation (the tier-1 suite is the
oracle for that).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.dataspace import DataSpace
from repro.engine.assignment import Assignment
from repro.engine.commsets import (
    AnalyticUnsupported,
    analytic_comm_sets,
    comm_matrix,
    words_matrix_from_pieces,
)
from repro.engine.expr import ArrayRef, BinExpr, Expr, section_slicer
from repro.engine.lowering import (
    Lowering,
    POINTWISE_LOWERING,
    Pattern,
    classify_matrix,
)
from repro.engine.overlap import OverlapPlan, overlap_plan
from repro.engine.owner_computes import section_owner_map
from repro.engine.planstore import (
    active_plan_store,
    statement_content_key,
)

__all__ = ["CommSchedule", "RefSchedule", "flat_storage_index",
           "schedule_for", "unique_refs"]


def flat_storage_index(ds: DataSpace, ref: ArrayRef, it_shape,
                       positions: np.ndarray) -> np.ndarray:
    """Lower linear iteration positions to flat Fortran-order *storage*
    indices of ``ref``'s array: iteration coords -> section coords (the
    triplet start/stride per sliced dim, the scalar subscript position
    per dropped dim) -> ravel in the array's storage order.  Shared by
    the SPMD window-plan compiler (worker gathers/writes) and the
    subset-subsumption pass (element-range residency keys): both need
    the *global element identity* behind an iteration position."""
    arr_shape = ds.arrays[ref.name].data.shape
    slicer = section_slicer(ref.section(ds))
    multi = (np.unravel_index(positions, it_shape, order="F")
             if it_shape else ())
    coords: list[np.ndarray] = []
    k = 0
    for sl in slicer:
        if isinstance(sl, slice):
            coords.append(sl.start + multi[k] * sl.step)
            k += 1
        else:
            coords.append(np.full(positions.shape, sl, dtype=np.int64))
    if not coords:      # rank-0 array
        return np.zeros(positions.shape, dtype=np.int64)
    return np.ravel_multi_index(coords, arr_shape, order="F").astype(
        np.int64)


@dataclass(frozen=True)
class RefSchedule:
    """Compiled traffic of one RHS reference occurrence."""

    ref: str
    #: exact (P, P) words matrix, entry [q, p] = words moving q -> p
    words: np.ndarray
    local: int
    off: int
    #: 'analytic' (closed-form regular sections) or 'oracle' (dense maps)
    strategy: str
    #: compile-time pattern classification of the words matrix
    lowering: Lowering = POINTWISE_LOWERING
    #: name of the array the reference reads (the halo-validity key)
    source: str = ""
    #: per-(src, dst) *element identity* of the exchange — one
    #: ``(src, dst, global flat element ids)`` group per off-diagonal
    #: cell, compiled for SHIFT-classified references only (the shapes
    #: subset-subsumption targets).  Lets the optimizer prove one
    #: exchange's elements are contained in traffic already resident
    #: from a different exchange (a 9-point diagonal inside the
    #: straight faces), which the words matrices alone cannot express.
    ghosts: tuple[tuple[int, int, frozenset], ...] | None = None

    @property
    def pattern(self) -> str:
        return self.lowering.pattern.value


@dataclass(frozen=True)
class CommSchedule:
    """Everything needed to execute one statement against one layout."""

    statement: str
    n_processors: int
    iteration_shape: tuple[int, ...]
    #: flattened (column-major) LHS owner map: iteration -> executing unit
    lhs_owner_flat: np.ndarray
    #: per-processor elementwise-operation counts for the statement
    work: np.ndarray
    refs: tuple[RefSchedule, ...]
    overlap: OverlapPlan | None = None
    #: pattern classification of the overlap exchange, when one exists
    overlap_lowering: Lowering | None = None
    #: name of the written (LHS) array
    lhs_name: str = ""
    #: content digest of the flattened LHS owner map — two statements
    #: whose destinations partition identically share it, which is what
    #: lets the optimizer prove one statement's exchange covers another's
    lhs_key: bytes = b""
    #: the plan-store content key (``None`` when compiled with no store);
    #: the SPMD backend content-addresses window plans derived from it
    plan_key: tuple | None = None

    @property
    def iteration_size(self) -> int:
        return int(self.lhs_owner_flat.size)

    @property
    def patterns(self) -> dict[str, str]:
        """Classified pattern per reference (or ``'*'`` for the bulk
        overlap exchange) — the attribution executors copy into reports."""
        if self.overlap is not None and self.overlap_lowering is not None:
            return {"*": self.overlap_lowering.pattern.value}
        return {r.ref: r.pattern for r in self.refs}

    @property
    def total_words(self) -> int:
        if self.overlap is not None:
            return int(self.overlap.words.sum())
        return int(sum(int(r.words.sum()) for r in self.refs))

    def describe(self) -> str:
        strategies = ",".join(sorted({r.strategy for r in self.refs}))
        return (f"<CommSchedule {self.statement!r} P={self.n_processors} "
                f"refs={len(self.refs)} "
                f"[{strategies or 'none'}] words={self.total_words}>")


# ----------------------------------------------------------------------
# Statement structure helpers
# ----------------------------------------------------------------------
def unique_refs(expr: Expr) -> list[ArrayRef]:
    """Unique-by-identity ArrayRef leaves in first-occurrence order (a
    shared leaf object is gathered once; structurally equal but distinct
    leaves are gathered separately — the SPMD operand contract)."""
    out: list[ArrayRef] = []
    seen: set[int] = set()

    def walk(e: Expr) -> None:
        if isinstance(e, ArrayRef):
            if id(e) not in seen:
                seen.add(id(e))
                out.append(e)
        elif isinstance(e, BinExpr):
            walk(e.left)
            walk(e.right)

    walk(expr)
    return out


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
def schedule_for(ds: DataSpace, stmt: Assignment, n_processors: int, *,
                 strategy: str = "auto", use_overlap: bool = False
                 ) -> CommSchedule:
    """The compiled schedule for ``stmt`` under the current layout.

    Memoized on the data space: repeated identical statements (the Jacobi
    pattern) return the cached object; REDISTRIBUTE / REALIGN invalidate.
    Statement keys are structural (frozen dataclasses).

    Above the per-scope cache sits the process-wide
    :class:`~repro.engine.planstore.PlanStore`: on a local miss the
    compiler first looks the statement up by *content* (layout digests
    plus statement structure), so an independent session that already
    compiled the same statement over the same layout donates its
    schedule — the stored, immutable object itself is adopted, never
    recompiled.  The per-scope cache still records its own miss either
    way (its counters keep meaning "not resident in this scope").
    """
    key = (stmt, n_processors, strategy, use_overlap)
    cache = ds.schedule_cache
    hit = cache.get(key)
    if hit is not None:
        return hit
    # register the arrays the schedule was compiled against, so a remap
    # of one alignment forest invalidates exactly the schedules that
    # depend on it (unrelated forests keep theirs)
    arrays = frozenset({stmt.lhs.name, *(r.name for r in stmt.rhs.refs())})
    # a scope attached to a serving-stack SessionService carries its own
    # store; everything else shares the process-wide active one
    store = getattr(ds, "plan_store", None)
    if store is None:   # explicit: an *empty* store is len-0 falsy
        store = active_plan_store()
    content = None
    if store is not None:
        content = statement_content_key(ds, stmt, n_processors, strategy,
                                        use_overlap)
        shared = store.get(content)
        if shared is not None:
            cache.put(key, shared, arrays)
            return shared
    sched = _compile(ds, stmt, n_processors, strategy, use_overlap,
                     content)
    cache.put(key, sched, arrays)
    if store is not None:
        store.put(content, sched)
    return sched


def _compile(ds: DataSpace, stmt: Assignment, p: int, strategy: str,
             use_overlap: bool, plan_key: tuple | None) -> CommSchedule:
    if strategy not in ("auto", "oracle", "analytic"):
        raise ValueError(f"unknown strategy {strategy!r}")
    shape = stmt.validate(ds)
    lhs_dist = ds.distribution_of(stmt.lhs.name)
    lhs_section = stmt.lhs.section(ds)
    lhs_map = section_owner_map(lhs_dist, lhs_section)
    dst = np.asfortranarray(lhs_map).reshape(-1, order="F")
    n_refs = max(len(stmt.rhs.refs()), 1)
    work = np.bincount(dst, minlength=p).astype(np.int64) * n_refs
    work.setflags(write=False)

    plan = overlap_plan(ds, stmt, p) if use_overlap else None

    refs: list[RefSchedule] = []
    for ref in stmt.rhs.refs():
        ref_dist = ds.distribution_of(ref.name)
        ref_section = ref.section(ds)
        used = "oracle"
        matrix = None
        if plan is None and strategy in ("auto", "analytic"):
            try:
                pieces = analytic_comm_sets(
                    lhs_dist, lhs_section, ref_dist, ref_section)
                matrix = words_matrix_from_pieces(pieces, p)
                used = "analytic"
                off = int(matrix.sum())
                local = lhs_section.size - off
            except AnalyticUnsupported:
                if strategy == "analytic":
                    raise
                matrix = None
        if matrix is None:
            # the overlap branch reports per-reference locality via the
            # oracle regardless of strategy (matching the seed engine)
            matrix, local, off = comm_matrix(
                lhs_dist, lhs_section, ref_dist, ref_section, p)
        matrix.setflags(write=False)
        # the hint is about the *operand* data: only a replicated
        # reference ships identical pieces to every destination
        lowering = classify_matrix(matrix,
                                   replicated=ref_dist.is_replicated)
        ghosts = None
        if lowering.pattern is Pattern.SHIFT:
            # element-range identity for the subsumption pass: which
            # global storage elements each off-diagonal cell ships.
            # Compiled from the dense owner maps (the oracle the
            # analytic pieces agree with), once per schedule.
            src_own = np.asfortranarray(
                section_owner_map(ref_dist, ref_section)).reshape(
                    -1, order="F")
            if src_own.size == dst.size:
                elems = flat_storage_index(
                    ds, ref, tuple(shape),
                    np.arange(dst.size, dtype=np.int64))
                cells = []
                for q, pr in zip(*np.nonzero(matrix)):
                    q, pr = int(q), int(pr)
                    if q == pr:
                        continue
                    sel = (src_own == q) & (dst == pr)
                    cells.append((q, pr,
                                  frozenset(elems[sel].tolist())))
                ghosts = tuple(cells)
        refs.append(RefSchedule(
            str(ref), matrix, local, off, used, lowering,
            source=ref.name, ghosts=ghosts))

    dst.setflags(write=False)
    return CommSchedule(
        statement=str(stmt), n_processors=p,
        iteration_shape=tuple(shape), lhs_owner_flat=dst, work=work,
        refs=tuple(refs), overlap=plan,
        overlap_lowering=(classify_matrix(plan.words)
                          if plan is not None else None),
        lhs_name=stmt.lhs.name,
        lhs_key=hashlib.blake2b(dst.tobytes(),
                                digest_size=16).digest(),
        plan_key=plan_key)
