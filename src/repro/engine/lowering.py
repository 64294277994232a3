"""Pattern-classified lowering of communication schedules to collectives.

The paper argues its cost cases — §5.1 replication, the §4.2/§7 remap
arguments — in terms of *structured* communication: broadcast trees for
replicated alignees, dense exchanges for remaps, nearest-neighbour
traffic for stencils.  :mod:`repro.machine.collectives` prices those
structures, but a words matrix deposited through the raw point-to-point
model never reaches them.  This module closes that gap: it inspects the
exact (P, P) words matrix of a compiled
:class:`~repro.engine.schedule.CommSchedule` reference (or remap
event) and classifies the traffic as one of

* ``SHIFT``      — banded stencil exchange: the nonzero (src, dst) pairs
  fall into a handful of circular offsets, each offset a partial
  permutation whose messages proceed concurrently;
* ``BROADCAST``  — a single root (or concurrent per-group roots) fanning
  a uniform volume of *replicated* data out to two or more destinations
  (the §5.1 ``*``-subscript replication shape);
* ``SCATTER``    — the same one-root fan-out shape without replication:
  each destination receives a *distinct* piece, so the root's outgoing
  volume is irreducible and the tree only saves startups;
* ``ALLGATHER``  — every contributing processor sends a row-constant
  volume to all others (replication remaps: each old owner's block ends
  up everywhere);
* ``ALLTOALL``   — a dense remap: (nearly) every ordered pair exchanges
  data (BLOCK -> CYCLIC and friends);
* ``POINTWISE``  — the fallback: unstructured traffic, priced message by
  message as before.

Classification is a *pure* function of the words matrix (plus a
``replicated`` hint separating replication traffic from dense remaps —
the two are indistinguishable from the matrix alone) and never alters
the matrix: executors deposit bit-identical messages and counters either
way, and only the elapsed-time model and the per-pattern attribution
change.  :meth:`Lowering.time` prices a recognized pattern with the
alpha-beta tree formulas; the machine charges ``min(collective, p2p)`` —
layout-aware transport selection in the spirit of DASH (Idrees et al.,
arXiv:1603.01536), never worse than the point-to-point model.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.machine import collectives
from repro.machine.config import MachineConfig

__all__ = ["Pattern", "Lowering", "POINTWISE_LOWERING", "classify_matrix",
           "coalesce_deposits", "p2p_time"]

#: fraction of off-diagonal (src, dst) pairs that must be nonzero for a
#: matrix to count as a dense ALLTOALL remap
_ALLTOALL_DENSITY = 0.75
#: maximum number of distinct circular offsets a SHIFT band may span
_SHIFT_MAX_OFFSETS = 4


class Pattern(str, Enum):
    """The recognized communication shapes (values are report keys)."""

    SHIFT = "shift"
    BROADCAST = "broadcast"
    SCATTER = "scatter"
    ALLGATHER = "allgather"
    ALLTOALL = "alltoall"
    POINTWISE = "pointwise"

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return self.value


@dataclass(frozen=True)
class Lowering:
    """A classified words matrix: the pattern plus the parameters its
    collective cost formula needs.  ``words_per_unit`` is the volume one
    participant handles (the uniform fan-out volume for BROADCAST, the
    largest per-processor contribution for ALLGATHER/ALLTOALL);
    ``offset_words`` holds, per distinct SHIFT offset, the largest single
    message of that concurrent round."""

    pattern: Pattern
    words_per_unit: int = 0
    participants: int = 0
    root: int | None = None
    offset_words: tuple[int, ...] = ()
    #: receiver-disjoint rounds a group BROADCAST needs (the maximum
    #: number of roots any single destination hears from)
    rounds: int = 1

    def time(self, config: MachineConfig) -> float | None:
        """Collective-model time for this pattern, or ``None`` when the
        traffic must stay on the point-to-point model (POINTWISE, or a
        distance-sensitive machine where tree rounds are not uniform)."""
        if self.pattern is Pattern.POINTWISE or config.hop_factor:
            return None
        if self.pattern is Pattern.BROADCAST:
            return self.rounds * collectives.broadcast(
                config, self.words_per_unit, self.participants)[0]
        if self.pattern is Pattern.SCATTER:
            return collectives.scatter(config, self.words_per_unit,
                                       self.participants)[0]
        if self.pattern is Pattern.ALLGATHER:
            return collectives.allgather(config, self.words_per_unit,
                                         self.participants)[0]
        if self.pattern is Pattern.ALLTOALL:
            return collectives.alltoall(config, self.words_per_unit,
                                        self.participants)[0]
        return collectives.shift(config, self.offset_words)[0]


#: the shared fallback sentinel (schedules default to it)
POINTWISE_LOWERING = Lowering(Pattern.POINTWISE)


def classify_matrix(words: np.ndarray, *,
                    replicated: bool = False) -> Lowering:
    """Classify one exact (P, P) words matrix.

    ``replicated`` says the traffic serves a replicated mapping (a ``*``
    base subscript, a REPLICATED format, a scalar-arrangement placement):
    a full uniform matrix then reads as ALLGATHER (everyone ends up with
    everything) rather than ALLTOALL (everyone trades distinct pieces).
    The matrix is never modified.
    """
    w = np.asarray(words)
    p = int(w.shape[0])
    if w.shape != (p, p) or p == 0:
        raise ValueError(f"expected a square words matrix, got {w.shape}")
    off = w.copy()
    np.fill_diagonal(off, 0)
    src, dst = np.nonzero(off)
    if src.size == 0:
        return POINTWISE_LOWERING
    vals = off[src, dst]
    senders = np.unique(src)

    # One root, >= 2 destinations, uniform volume: a BROADCAST when the
    # data is replicated (every destination receives the same piece, so
    # a binomial tree shrinks the volume too), a SCATTER otherwise (the
    # pieces are distinct — the root's outgoing volume is irreducible
    # and the tree only amortizes startups)
    if senders.size == 1 and src.size >= 2 and np.all(vals == vals[0]):
        pattern = Pattern.BROADCAST if replicated else Pattern.SCATTER
        return Lowering(pattern, words_per_unit=int(vals[0]),
                        participants=int(src.size) + 1,
                        root=int(senders[0]))

    row_nnz = np.count_nonzero(off, axis=1)
    full_rows = bool(np.all(row_nnz[senders] == p - 1))
    row_constant = full_rows and all(
        int(off[q].max()) == int(np.min(off[q][off[q] > 0]))
        for q in senders.tolist())
    if senders.size >= 2 and row_constant:
        per_proc = int(off.max())
        if replicated:
            return Lowering(Pattern.ALLGATHER, words_per_unit=per_proc,
                            participants=p)
        return Lowering(Pattern.ALLTOALL, words_per_unit=per_proc,
                        participants=p)

    # group-wise replication (a ``*`` base subscript onto one dimension
    # of a processor grid): every source fans a uniform volume out to its
    # own replication group.  Overlapping groups (a destination hearing
    # from R roots) are decomposed into R receiver-disjoint rounds —
    # schedule each receiver's k-th incoming message in round k — so one
    # concurrent tree per round covers every receiver's ingest volume
    if replicated and np.all(vals == vals[0]):
        rounds = int(np.count_nonzero(off, axis=0).max())
        fan = int(row_nnz[senders].max())
        return Lowering(Pattern.BROADCAST, words_per_unit=int(vals[0]),
                        participants=fan + 1, rounds=rounds)

    density = src.size / float(p * (p - 1)) if p > 1 else 0.0
    if density >= _ALLTOALL_DENSITY:
        return Lowering(Pattern.ALLTOALL, words_per_unit=int(vals.max()),
                        participants=p)

    # SHIFT: few distinct circular offsets; each offset group is a
    # partial permutation by construction (an (src, offset) pair fixes
    # its dst), so its messages proceed concurrently in one round.
    offsets = (dst - src) % p
    distinct = np.unique(offsets)
    if distinct.size <= _SHIFT_MAX_OFFSETS:
        round_words = tuple(int(vals[offsets == d].max())
                            for d in distinct.tolist())
        return Lowering(Pattern.SHIFT, words_per_unit=max(round_words),
                        participants=p, offset_words=round_words)
    return POINTWISE_LOWERING


def coalesce_deposits(deposits) -> tuple[np.ndarray, Lowering]:
    """Merge a fusion window of ``(words_matrix, lowering)`` deposits
    into one matrix and its classification.

    Matrices add elementwise, so messages between the same (src, dst)
    pair collapse into one with summed words — the word total is exact
    by construction, only startups drop.  The merged matrix is
    re-classified; the replicated hint survives only when *every* member
    carried replicated traffic (a merged window of distinct pieces must
    not claim the broadcast discount).
    """
    if not deposits:
        raise ValueError("cannot coalesce an empty deposit window")
    merged = np.zeros_like(np.asarray(deposits[0][0]))
    replicated = True
    for matrix, lowering in deposits:
        merged = merged + np.asarray(matrix)
        replicated = replicated and lowering.pattern in (
            Pattern.BROADCAST, Pattern.ALLGATHER)
    return merged, classify_matrix(merged, replicated=replicated)


def p2p_time(config: MachineConfig, words: np.ndarray) -> float:
    """The point-to-point model's time for a words matrix — the baseline
    the lowered patterns are selected against (and the number reports
    quote as ``time_p2p``).  Delegates to the single
    :func:`repro.machine.collectives.pointwise` formula the machine
    ledger charges with."""
    off = np.asarray(words).copy()
    np.fill_diagonal(off, 0)
    src, dst = np.nonzero(off)
    return collectives.pointwise(config, src, dst, off[src, dst])
