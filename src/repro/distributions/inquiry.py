"""Distribution inquiry intrinsics.

§8 argues that "inquiry functions must be used to determine the properties
of alignments and/or distributions passed into the subroutine" — when a
dummy argument inherits a mapping that cannot be named statically, the
program can still interrogate it.  These free functions are the library's
rendering of that inquiry interface (HPF later standardized a similar set
as ``HPF_DISTRIBUTION`` / ``HPF_ALIGNMENT``).
"""

from __future__ import annotations

from typing import Sequence

from repro.distributions.distribution import Distribution, FormatDistribution

__all__ = [
    "distribution_rank",
    "distribution_format",
    "distribution_target_name",
    "number_of_processors",
    "owners_of",
    "is_replicated",
]


def distribution_rank(dist: Distribution) -> int:
    """Rank of the distributed index domain."""
    return dist.domain.rank


def distribution_format(dist: Distribution, dim: int) -> str:
    """Printable distribution format of 0-based dimension ``dim``
    (``"BLOCK"``, ``"CYCLIC(3)"``, ``":"``, or ``"DERIVED"`` for
    constructed/replicated distributions without a per-dim format)."""
    if isinstance(dist, FormatDistribution):
        return str(dist.formats[dim])
    return "DERIVED"


def distribution_target_name(dist: Distribution) -> str | None:
    """Name of the distribution target, if the distribution has one."""
    if isinstance(dist, FormatDistribution):
        return dist.target.name
    return None


def number_of_processors(dist: Distribution) -> int:
    """Number of AP units owning at least one element."""
    return len(dist.processors())


def owners_of(dist: Distribution, index: Sequence[int]) -> tuple[int, ...]:
    """Sorted AP units owning the given element."""
    return tuple(sorted(dist.owners(index)))


def is_replicated(dist: Distribution) -> bool:
    """True iff some element of the array has more than one owner."""
    return dist.is_replicated
