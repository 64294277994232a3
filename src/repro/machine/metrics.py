"""Communication and load statistics (the quantities the paper argues in).

:class:`CommStats` aggregates, per processor, the messages and words sent
and received and the local elementwise work, and derives the metrics the
experiments report:

* ``off_processor_refs`` / ``local_refs`` — the locality split the §8.1.1
  staggered-grid argument is about;
* ``load_imbalance`` — max/mean local work, the GENERAL_BLOCK experiment's
  (E3) figure of merit;
* ``estimated_time(config)`` — a bulk-synchronous step estimate:
  ``max_p [flop*ops(p) + alpha*msgs(p) + beta*words(p)]``;
* ``pattern_msgs`` / ``pattern_words`` / ``pattern_time`` — traffic and
  charged time attributed per recognized communication pattern
  (:mod:`repro.engine.lowering`), recorded by
  :meth:`~repro.machine.simulator.DistributedMachine.charge_collective`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.machine.config import MachineConfig
from repro.machine.message import Message

__all__ = ["CommStats"]


@dataclass
class CommStats:
    """Per-processor traffic/work counters for one or more operations."""

    n_processors: int
    local_refs: int = 0
    off_processor_refs: int = 0
    hop_weighted_words: float = 0.0
    #: per-processor counters, sized to the machine in ``__post_init__``
    msgs_sent: np.ndarray = field(init=False)
    msgs_recv: np.ndarray = field(init=False)
    words_sent: np.ndarray = field(init=False)
    words_recv: np.ndarray = field(init=False)
    local_ops: np.ndarray = field(init=False)
    #: traffic attributed per communication pattern (lowered collectives)
    pattern_msgs: dict[str, int] = field(default_factory=dict)
    pattern_words: dict[str, int] = field(default_factory=dict)
    pattern_time: dict[str, float] = field(default_factory=dict)
    #: traffic the program-level optimizer elided, per pass
    #: ('halo' | 'cse' | 'coalesce' | 'hoist') — words and messages the
    #: machine was *not* charged relative to per-statement execution
    opt_words_saved: dict[str, int] = field(default_factory=dict)
    opt_msgs_saved: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        p = self.n_processors
        for name in ("msgs_sent", "msgs_recv", "words_sent", "words_recv",
                     "local_ops"):
            setattr(self, name, np.zeros(p, dtype=np.int64))

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_message(self, msg: Message,
                       config: MachineConfig | None = None) -> None:
        if msg.src == msg.dst or msg.words == 0:
            return
        self.msgs_sent[msg.src] += 1
        self.msgs_recv[msg.dst] += 1
        self.words_sent[msg.src] += msg.words
        self.words_recv[msg.dst] += msg.words
        if config is not None and config.hop_factor:
            hops = config.topology.hops(msg.src, msg.dst)
            self.hop_weighted_words += msg.words * max(hops, 1)
        else:
            self.hop_weighted_words += msg.words

    def record_messages_bulk(self, src: np.ndarray, dst: np.ndarray,
                             words: np.ndarray,
                             config: MachineConfig | None = None) -> None:
        """Vectorized :meth:`record_message` over parallel (src, dst,
        words) arrays — one bincount per counter instead of a Python loop
        per message.  Self-messages and empty messages must already be
        filtered out by the caller."""
        p = self.n_processors
        if src.size == 0:
            return
        self.msgs_sent += np.bincount(src, minlength=p)
        self.msgs_recv += np.bincount(dst, minlength=p)
        self.words_sent += np.bincount(src, weights=words,
                                       minlength=p).astype(np.int64)
        self.words_recv += np.bincount(dst, weights=words,
                                       minlength=p).astype(np.int64)
        if config is not None and config.hop_factor:
            hops = np.fromiter(
                (config.topology.hops(int(s), int(d))
                 for s, d in zip(src, dst)),
                dtype=np.int64, count=src.size)
            self.hop_weighted_words += float(
                (words * np.maximum(hops, 1)).sum())
        else:
            self.hop_weighted_words += float(words.sum())

    def record_pattern(self, pattern: str, msgs: int, words: int,
                       time: float) -> None:
        """Attribute one lowered deposit to a communication pattern."""
        self.pattern_msgs[pattern] = \
            self.pattern_msgs.get(pattern, 0) + int(msgs)
        self.pattern_words[pattern] = \
            self.pattern_words.get(pattern, 0) + int(words)
        self.pattern_time[pattern] = \
            self.pattern_time.get(pattern, 0.0) + float(time)

    def record_optimization(self, opt: str, words: int,
                            msgs: int) -> None:
        """Attribute traffic elided by one optimizer pass (words/messages
        the machine would have been charged at ``-O0``)."""
        self.opt_words_saved[opt] = \
            self.opt_words_saved.get(opt, 0) + int(words)
        self.opt_msgs_saved[opt] = \
            self.opt_msgs_saved.get(opt, 0) + int(msgs)

    @property
    def total_words_saved(self) -> int:
        return sum(self.opt_words_saved.values())

    @property
    def total_msgs_saved(self) -> int:
        return sum(self.opt_msgs_saved.values())

    def record_refs(self, local: int, off: int) -> None:
        self.local_refs += int(local)
        self.off_processor_refs += int(off)

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def total_messages(self) -> int:
        return int(self.msgs_sent.sum())

    @property
    def total_words(self) -> int:
        return int(self.words_sent.sum())

    @property
    def total_refs(self) -> int:
        return self.local_refs + self.off_processor_refs

    @property
    def locality(self) -> float:
        """Fraction of references satisfied on-processor (1.0 = perfect)."""
        total = self.total_refs
        return self.local_refs / total if total else 1.0

    @property
    def load_imbalance(self) -> float:
        """max/mean local work (1.0 = perfectly balanced)."""
        mean = self.local_ops.mean()
        if mean == 0:
            return 1.0
        return float(self.local_ops.max() / mean)

    def estimated_time(self, config: MachineConfig) -> float:
        """Bulk-synchronous step time: the slowest processor's cost."""
        per_proc = (config.flop * self.local_ops
                    + config.alpha * (self.msgs_sent + self.msgs_recv)
                    + config.beta * (self.words_sent + self.words_recv))
        return float(per_proc.max()) if len(per_proc) else 0.0

    # ------------------------------------------------------------------
    # Combination
    # ------------------------------------------------------------------
    def merge(self, other: "CommStats") -> "CommStats":
        """Accumulate another stats object into this one (in place)."""
        if other.n_processors != self.n_processors:
            raise ValueError("cannot merge stats of different machines")
        self.msgs_sent += other.msgs_sent
        self.msgs_recv += other.msgs_recv
        self.words_sent += other.words_sent
        self.words_recv += other.words_recv
        self.local_ops += other.local_ops
        self.local_refs += other.local_refs
        self.off_processor_refs += other.off_processor_refs
        self.hop_weighted_words += other.hop_weighted_words
        for pattern, n in other.pattern_msgs.items():
            self.pattern_msgs[pattern] = \
                self.pattern_msgs.get(pattern, 0) + n
        for pattern, n in other.pattern_words.items():
            self.pattern_words[pattern] = \
                self.pattern_words.get(pattern, 0) + n
        for pattern, t in other.pattern_time.items():
            self.pattern_time[pattern] = \
                self.pattern_time.get(pattern, 0.0) + t
        for opt, n in other.opt_words_saved.items():
            self.opt_words_saved[opt] = \
                self.opt_words_saved.get(opt, 0) + n
        for opt, n in other.opt_msgs_saved.items():
            self.opt_msgs_saved[opt] = \
                self.opt_msgs_saved.get(opt, 0) + n
        return self

    def copy(self) -> "CommStats":
        out = CommStats(self.n_processors)
        out.merge(self)
        return out

    def summary(self) -> str:
        return (f"msgs={self.total_messages} words={self.total_words} "
                f"locality={self.locality:.3f} "
                f"imbalance={self.load_imbalance:.2f}")

    def __repr__(self) -> str:
        return f"<CommStats {self.summary()}>"
