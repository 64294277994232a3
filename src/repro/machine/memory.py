"""Per-processor local memory bookkeeping.

Each processor's local memory records, per array, which global elements it
owns and the local storage footprint.  The execution engine computes with
vectorized global arrays (the numerics are validated against a sequential
reference), so local memories carry *ownership bookkeeping*, not duplicate
numeric payloads — the quantities the paper's arguments need (who owns
what, local extents, memory high-water marks) are all here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.distributions.distribution import Distribution
from repro.errors import MachineError

__all__ = ["LocalMemory"]


@dataclass
class LocalMemory:
    """Ownership bookkeeping for one processor."""

    unit: int
    #: array name -> number of owned elements
    extents: dict[str, int] = field(default_factory=dict)
    #: array name -> flat local index -> owned (linearized) global position
    owned_positions: dict[str, np.ndarray] = field(default_factory=dict)

    def host(self, name: str, dist: Distribution) -> None:
        """Register (or refresh) the locally owned piece of ``name``."""
        # every owner of a replicated element stores its own copy
        owned = dist.owner_mask(self.unit).reshape(-1, order="F")
        positions = np.flatnonzero(owned).astype(np.int64)
        self.owned_positions[name] = positions
        self.extents[name] = int(positions.size)

    def drop(self, name: str) -> None:
        self.extents.pop(name, None)
        self.owned_positions.pop(name, None)

    def owns_position(self, name: str, linear_position: int) -> bool:
        positions = self.owned_positions.get(name)
        if positions is None:
            raise MachineError(
                f"processor {self.unit} does not host array {name!r}")
        i = np.searchsorted(positions, linear_position)
        return bool(i < positions.size and positions[i] == linear_position)

    @property
    def footprint(self) -> int:
        """Total locally stored elements across arrays."""
        return sum(self.extents.values())
