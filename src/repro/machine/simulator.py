"""The ledgered distributed machine.

:class:`DistributedMachine` is what the execution engine charges traffic
to: every point-to-point transfer becomes a :class:`Message` in the
ledger and is accumulated into a :class:`CommStats`.  Bulk charging APIs
accept dense (P x P) word matrices so vectorized comm-set computations can
be deposited in one call; two time models sit on top of one deposit path:

* :meth:`exchange` — the raw point-to-point model: ``alpha`` per message
  plus ``beta`` per word, serialized;
* :meth:`charge_collective` — pattern-lowered accounting: the ledger and
  counters are bit-identical to :meth:`exchange`, but elapsed time is the
  *cheaper* of the point-to-point model and the collective-tree formula
  of the recognized pattern (:mod:`repro.engine.lowering` /
  :mod:`repro.machine.collectives`), and the traffic is attributed to
  the pattern in :class:`CommStats`.

The machine also hosts per-processor :class:`LocalMemory` bookkeeping so
experiments can report footprints and per-processor extents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.distributions.distribution import Distribution
from repro.errors import MachineError
from repro.machine import collectives
from repro.machine.config import MachineConfig
from repro.machine.memory import LocalMemory
from repro.machine.message import Message
from repro.machine.metrics import CommStats

if TYPE_CHECKING:  # layering: the machine never imports the engine at runtime
    from repro.engine.lowering import Lowering

__all__ = ["DistributedMachine"]


@dataclass
class DistributedMachine:
    """A deterministic machine with a message ledger."""

    config: MachineConfig
    ledger: list[Message] = field(default_factory=list)
    stats: CommStats = field(init=False)
    memories: list[LocalMemory] = field(init=False)
    #: accumulated bulk-synchronous time estimate
    elapsed: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        p = self.config.n_processors
        self.stats = CommStats(p)
        self.memories = [LocalMemory(u) for u in range(p)]

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, words: int, tag: str = "") -> None:
        p = self.config.n_processors
        if not (0 <= src < p and 0 <= dst < p):
            raise MachineError(
                f"message {src}->{dst} outside machine of {p} processors")
        if src == dst or words <= 0:
            return
        msg = Message(src, dst, int(words), tag)
        self.ledger.append(msg)
        self.stats.record_message(msg, self.config)
        self.elapsed += self.config.message_cost(src, dst, int(words))

    def _deposit(self, words_matrix: np.ndarray, tag: str
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Record a dense (P x P) transfer matrix (entry [q, p] = words
        moving q -> p) in the ledger and counters; the diagonal is
        ignored.  One message per nonzero pair, materialized from the
        nonzero index arrays (no per-element sends), statistics updated
        with bincounts.  Returns the ``(src, dst, words)`` index arrays
        for the caller's time accounting.
        """
        w = np.asarray(words_matrix)
        p = self.config.n_processors
        if w.shape != (p, p):
            raise MachineError(
                f"exchange matrix shape {w.shape} != ({p}, {p})")
        off_diag = w.copy()
        np.fill_diagonal(off_diag, 0)
        src_idx, dst_idx = np.nonzero(off_diag)
        words = off_diag[src_idx, dst_idx].astype(np.int64)
        if src_idx.size:
            self.ledger.extend(
                Message(s, d, int(n), tag)
                for s, d, n in zip(src_idx.tolist(), dst_idx.tolist(),
                                   words.tolist()))
            self.stats.record_messages_bulk(src_idx, dst_idx, words,
                                            self.config)
        return src_idx, dst_idx, words

    def _p2p_time(self, src_idx: np.ndarray, dst_idx: np.ndarray,
                  words: np.ndarray) -> float:
        """Point-to-point model time of a deposited message set."""
        return collectives.pointwise(self.config, src_idx, dst_idx, words)

    def exchange(self, words_matrix: np.ndarray, tag: str = "") -> None:
        """Charge a dense (P x P) transfer matrix under the raw
        point-to-point time model (one ``alpha + beta*w`` per message,
        serialized)."""
        src_idx, dst_idx, words = self._deposit(words_matrix, tag)
        self.elapsed += self._p2p_time(src_idx, dst_idx, words)

    def charge_collective(self, words_matrix: np.ndarray,
                          lowering: "Lowering", tag: str = "") -> float:
        """Charge a dense transfer matrix under pattern-lowered
        accounting.

        The ledger records and the per-processor counters are
        bit-identical to :meth:`exchange` — lowering never changes *what*
        moves.  Elapsed time is the cheaper of the point-to-point model
        and the classified pattern's collective formula (transport
        selection), and the deposit is attributed to the pattern in
        ``stats.pattern_msgs`` / ``pattern_words`` / ``pattern_time``.
        Returns the charged time.
        """
        src_idx, dst_idx, words = self._deposit(words_matrix, tag)
        if src_idx.size == 0:
            # nothing moved: no charge, no pattern attribution (keeps
            # both executors' pattern stats identical for local refs)
            return 0.0
        p2p = self._p2p_time(src_idx, dst_idx, words)
        collective = lowering.time(self.config)
        charged = p2p if collective is None else min(collective, p2p)
        self.elapsed += charged
        self.stats.record_pattern(lowering.pattern.value,
                                  int(src_idx.size), int(words.sum()),
                                  charged)
        return charged

    def note_savings(self, opt: str, words: int, msgs: int) -> None:
        """Record traffic the program-level optimizer elided (the machine
        was *not* charged it); rides :class:`CommStats` so savings merge
        and snapshot with the rest of the counters."""
        self.stats.record_optimization(opt, words, msgs)

    # ------------------------------------------------------------------
    # Work accounting
    # ------------------------------------------------------------------
    def compute(self, per_proc_elements: np.ndarray) -> None:
        """Charge local elementwise work (length-P vector)."""
        v = np.asarray(per_proc_elements, dtype=np.int64)
        p = self.config.n_processors
        if v.shape != (p,):
            raise MachineError(
                f"work vector shape {v.shape} != ({p},)")
        self.stats.local_ops += v
        self.elapsed += self.config.flop * float(v.max(initial=0))

    # ------------------------------------------------------------------
    # Hosting
    # ------------------------------------------------------------------
    def host_array(self, name: str, dist: Distribution) -> None:
        """Record ownership of an array on every processor's memory."""
        for mem in self.memories:
            mem.host(name, dist)

    def drop_array(self, name: str) -> None:
        for mem in self.memories:
            mem.drop(name)

    def footprints(self) -> np.ndarray:
        return np.array([m.footprint for m in self.memories],
                        dtype=np.int64)

    # ------------------------------------------------------------------
    # Ledger attribution
    # ------------------------------------------------------------------
    def words_by_tag(self) -> dict[str, int]:
        """Total words moved per message tag (experiments attribute
        traffic to the operations that caused it)."""
        out: dict[str, int] = {}
        for msg in self.ledger:
            out[msg.tag] = out.get(msg.tag, 0) + msg.words
        return out

    def messages_between(self, src: int, dst: int) -> list[Message]:
        return [m for m in self.ledger if m.src == src and m.dst == dst]

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear ledger and statistics (memories kept)."""
        self.ledger.clear()
        self.stats = CommStats(self.config.n_processors)
        self.elapsed = 0.0
