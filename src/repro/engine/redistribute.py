"""Data-movement pricing for dynamic remapping.

REDISTRIBUTE, REALIGN and procedure-boundary remaps (§4.2, §5.2, §7) move
every element whose owner set changes.  :func:`price_remap` computes the
exact (P, P) transfer matrix for a :class:`~repro.core.dataspace.RemapEvent`
without walking the elements:

* non-replicated old/new mappings: one bincount of (old, new) owners;
* replication involved: each *new* owner missing an element receives one
  copy from the element's smallest old owner — one pass of the bulk
  :meth:`~repro.distributions.distribution.Distribution.owner_mask`
  kernel per new owning unit, at any array size.

:func:`charge_remap` classifies the resulting matrix
(:mod:`repro.engine.lowering`) before depositing it: a replication remap
(the §5.1 ``*`` base subscript, a REPLICATED format) is priced as
broadcast/allgather trees, a dense remap (BLOCK -> CYCLIC, §4.2) as an
alltoall — instead of the per-element point-to-point fan-out — while the
transfer matrix itself stays bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataspace import RemapEvent
from repro.engine.lowering import Lowering, classify_matrix
from repro.errors import MachineError
from repro.machine.simulator import DistributedMachine

__all__ = ["price_remap", "charge_remap", "remap_lowering"]


def price_remap(event: RemapEvent,
                n_processors: int) -> tuple[np.ndarray, int]:
    """Exact transfer matrix and moved-element count for a remap event.

    A fresh mapping (``event.old is None`` — e.g. first distribution at
    ALLOCATE) moves nothing.
    """
    p = n_processors
    matrix = np.zeros((p, p), dtype=np.int64)
    if event.old is None:
        return matrix, 0
    old, new = event.old, event.new
    if old.domain != new.domain:
        raise MachineError(
            f"remap of {event.array!r} changes the index domain "
            f"({old.domain} -> {new.domain})")
    src = old.smallest_owner_map().reshape(-1, order="F")
    if not old.is_replicated and not new.is_replicated:
        nm = new.primary_owner_map().reshape(-1, order="F")
        matrix = np.bincount(src * p + nm, minlength=p * p).reshape(p, p)
        moved = src.size - int(np.trace(matrix))
        np.fill_diagonal(matrix, 0)
        return matrix, moved
    moved = 0
    for dst in new.processors():
        gained = (new.owner_mask(dst) & ~old.owner_mask(dst)).reshape(
            -1, order="F")
        matrix[:, dst] += np.bincount(src[gained], minlength=p)
        moved += int(gained.sum())
    return matrix, moved


def remap_lowering(event: RemapEvent, matrix: np.ndarray) -> Lowering:
    """The pattern classification :func:`charge_remap` prices ``event``
    with — the single place the remap's replication hint is derived, so
    reports quoting a remap's pattern cannot drift from what is charged."""
    replicated = event.new.is_replicated or (
        event.old is not None and event.old.is_replicated)
    return classify_matrix(matrix, replicated=replicated)


def charge_remap(machine: DistributedMachine, event: RemapEvent
                 ) -> tuple[np.ndarray, int]:
    """Price a remap and charge it to the machine ledger.

    The transfer matrix is deposited unchanged; elapsed time routes
    through the matrix's pattern classification, so replication remaps
    are charged as broadcast/allgather trees and dense remaps as
    alltoall exchanges rather than serialized point-to-point fan-out.
    """
    matrix, moved = price_remap(event, machine.config.n_processors)
    machine.charge_collective(matrix, remap_lowering(event, matrix),
                              tag=f"remap:{event.array}:{event.reason}")
    return matrix, moved
