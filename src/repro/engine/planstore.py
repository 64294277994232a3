"""The process-wide, content-addressed store of compiled plans.

The per-scope :class:`~repro.core.dataspace.ScheduleCache` memoizes
compiled :class:`~repro.engine.schedule.CommSchedule` objects *within*
one :class:`~repro.core.dataspace.DataSpace`; this module adds the
serving-stack layer above it: one thread-safe store shared by every
session in the process, addressing plans by **content** instead of by
scope.  Two independent sessions running the same Jacobi over the same
layout produce identical content keys, so the second session adopts the
first one's compiled schedules (and the SPMD backend's fused
:class:`~repro.engine.spmd.WindowTask` splits) without compiling
anything — the cross-tenant cache the ``repro serve`` service exists
to exploit.

A content key has three ingredients:

* the **statement structure** — the frozen :class:`Assignment` itself
  (structural equality), plus the compile options ``(p, strategy,
  use_overlap)`` the per-scope cache already keys on;
* one **per-array layout key** for every array the statement touches:
  ``(name, dtype, distribution class, describe(), domain bounds,
  blake2b digest of the memoized primary owner map, replication)`` —
  the digest ties the key to the actual ownership function, the
  describe string and replication fields are belt-and-braces for
  distributions whose full owner *sets* exceed the primary map;
* the abstract-processor width of the scope.

Adoption never shares mutable state: a compiled schedule is frozen, its
arrays are read-only and it carries no scope-local field, so the adopter
installs the stored object itself (window plans likewise).  A remap in
the adopting scope drops the entry from that scope's cache through the
by-array index; the store's copy is untouched.

The store is bounded (LRU) and always on; tests swap in a private
store with :func:`swapped_plan_store` to get isolated counters.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
from dataclasses import dataclass, field

__all__ = ["PlanStore", "active_plan_store", "set_active_plan_store",
           "swapped_plan_store", "distribution_key",
           "statement_content_key"]


@dataclass
class PlanStore:
    """A bounded, thread-safe, content-addressed plan table.

    Values are compiled plan objects (schedules, window-task splits);
    keys are the content tuples built by :func:`statement_content_key`.
    ``hits``/``misses`` count lookups, so ``hit_rate`` is the fraction
    of plan requests that crossed session boundaries instead of
    compiling — the serving metric the bench harness gates.
    """

    maxsize: int = 256
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    _entries: dict = field(default_factory=dict)
    _lock: threading.RLock = field(default_factory=threading.RLock,
                                   repr=False, compare=False)

    def get(self, key):
        with self._lock:
            hit = self._entries.get(key)
            if hit is None:
                self.misses += 1
                return None
            self.hits += 1
            # LRU refresh: move to the most-recent end of the dict
            self._entries[key] = self._entries.pop(key)
            return hit

    def put(self, key, value) -> None:
        with self._lock:
            if key in self._entries:
                return      # a concurrent compiler won the race
            while len(self._entries) >= self.maxsize:
                self._entries.pop(next(iter(self._entries)))
                self.evictions += 1
            self._entries[key] = value

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        with self._lock:
            return {"entries": len(self._entries), "hits": self.hits,
                    "misses": self.misses, "evictions": self.evictions,
                    "hit_rate": self.hit_rate}

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: the one store every session in the process shares by default
GLOBAL_PLAN_STORE = PlanStore()

_active: PlanStore | None = GLOBAL_PLAN_STORE
_active_lock = threading.Lock()


def active_plan_store() -> PlanStore | None:
    """The store :func:`~repro.engine.schedule.schedule_for` consults
    (``None`` disables cross-session sharing)."""
    return _active


def set_active_plan_store(store: PlanStore | None) -> PlanStore | None:
    """Replace the active store; returns the previous one."""
    global _active
    with _active_lock:
        previous = _active
        _active = store
    return previous


@contextlib.contextmanager
def swapped_plan_store(store: PlanStore | None):
    """``with swapped_plan_store(PlanStore()):`` — scoped replacement,
    for tests that need isolated counters (or no sharing at all)."""
    previous = set_active_plan_store(store)
    try:
        yield store
    finally:
        set_active_plan_store(previous)


# ----------------------------------------------------------------------
# Content keys
# ----------------------------------------------------------------------
def _dist_digest(dist) -> bytes:
    """blake2b digest of the distribution's dense primary owner map,
    memoized on the (immutable) distribution instance — dynamic
    directives build new distribution objects, never mutate old ones."""
    digest = getattr(dist, "_plan_digest", None)
    if digest is None:
        amap = dist.primary_owner_map()
        digest = hashlib.blake2b(amap.tobytes(),
                                 digest_size=16).digest()
        dist._plan_digest = digest
    return digest


def distribution_key(name: str, dtype, dist) -> tuple:
    """The content key of one array's layout (see the module doc)."""
    replicated = bool(dist.is_replicated)
    return (name, str(dtype), type(dist).__name__, dist.describe(),
            tuple((t.lower, t.last) for t in dist.domain.dims),
            _dist_digest(dist), replicated,
            dist.processors() if replicated else None)


def statement_content_key(ds, stmt, n_processors: int, strategy: str,
                          use_overlap: bool) -> tuple:
    """The scope-independent content key of one compiled schedule."""
    names = sorted({stmt.lhs.name, *(r.name for r in stmt.rhs.refs())})
    return ("sched", stmt, n_processors, strategy, use_overlap, ds.ap.size,
            tuple(distribution_key(name, ds.arrays[name].dtype,
                                   ds.distribution_of(name))
                  for name in names))
