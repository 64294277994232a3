"""CONSTRUCT — deriving a secondary array's distribution (Definition 4).

If ``A`` is aligned to ``B`` by alignment function ``alpha`` and ``B`` is
distributed by ``delta^B``, then the distribution of ``A`` is::

    delta^A = CONSTRUCT(alpha, delta^B)
    delta^A(i) = union of delta^B(j) for j in alpha(i)

so that "if i is an index of A which is mapped to an index j of B via the
alignment function alpha, then A(i) and B(j) are guaranteed to reside in
the same processor under any given distribution for B" (§2.3).  (The
displayed formula in the scanned paper is OCR-damaged; the verbal
description above pins it down — DESIGN.md §4 item 2.)

The alignment argument is duck-typed: anything exposing ``image(index)``
(returning the set of base indices), the bulk ``pullback`` kernel,
``is_replicating`` and the two domains works, which keeps this package
free of dependencies on :mod:`repro.align`.

Nothing here walks the domain.  Replication is decided from the
alignment's structure (which base axes are ``*``) and the base's per-axis
owner coordinates, exactly and at any size; owner sets of replicated
elements come from the bulk :meth:`ConstructedDistribution.owner_mask`
kernel, which pulls the base's owner mask back through the alignment.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.distributions.distribution import Distribution, FormatDistribution
from repro.errors import MappingError
from repro.fortran.domain import IndexDomain

__all__ = ["construct", "ConstructedDistribution", "IndexMapping"]


@runtime_checkable
class IndexMapping(Protocol):
    """Protocol for alignment functions (Definition 3): a total function
    from the alignee domain into non-empty sets of base indices."""

    alignee_domain: IndexDomain
    base_domain: IndexDomain

    @property
    def is_replicating(self) -> bool:
        """Whether some image may hold more than one base index."""
        ...

    def image(self, index: Sequence[int]) -> frozenset[tuple[int, ...]]:
        """alpha(index): the base indices the alignee element maps to."""
        ...

    def pullback(self, base_mask: np.ndarray) -> np.ndarray:
        """For every alignee element, whether the boolean ``base_mask``
        over the base domain holds anywhere in its image."""
        ...


class ConstructedDistribution(Distribution):
    """``CONSTRUCT(alpha, delta^B)``: the induced secondary distribution.

    Owner queries are delegated through the alignment; results are memoized
    since alignment images are deterministic.  The base distribution and
    alignment are kept so that REDISTRIBUTE of the base can rebuild the
    secondary mapping cheaply (§4.2: "the relationship expressed by the
    alignment function ... is kept invariant").
    """

    def __init__(self, alignment: IndexMapping, base: Distribution) -> None:
        if alignment.base_domain != base.domain:
            raise MappingError(
                f"alignment maps into {alignment.base_domain} but the base "
                f"distribution is over {base.domain}")
        super().__init__(alignment.alignee_domain)
        self.alignment = alignment
        self.base = base
        self._cache: dict[tuple[int, ...], frozenset[int]] = {}
        self._replicated: bool | None = None
        self._processors: tuple[int, ...] | None = None

    def owners(self, index: Sequence[int]) -> frozenset[int]:
        index = tuple(index)
        hit = self._cache.get(index)
        if hit is not None:
            return hit
        image = self.alignment.image(index)
        if not image:
            raise MappingError(
                f"alignment image of {index} is empty; alignment functions "
                "must be total into non-empty sets (Definition 1)")
        units: set[int] = set()
        for j in image:
            units |= self.base.owners(j)
        result = frozenset(units)
        self._cache[index] = result
        return result

    @property
    def is_replicated(self) -> bool:
        """Exact at every size and memoized.  Without a ``*`` base axis
        every image is one base index, so only a replicated base
        replicates.  Over a format base, each alignee element's owners
        vary exactly along the ``*`` axes, so it is replicated iff some
        ``*`` axis spans a base dimension owned by more than one target
        coordinate (a ``*`` into a ``:`` dimension fans out to one owner).
        Other bases and alignment chains count owners with the bulk
        kernel."""
        if self._replicated is None:
            self._replicated = self._replication()
        return self._replicated

    def _replication(self) -> bool:
        if self.base.is_replicated:
            return True
        if not self.alignment.is_replicating:
            return False
        star = getattr(self.alignment, "replicated_axes", None)
        if star is not None and isinstance(self.base, FormatDistribution):
            return any(self.base.axis_owner_count(j) > 1 for j in star)
        counts = np.zeros(self.domain.shape, dtype=np.int64)
        for unit in self.base.processors():
            counts += self.owner_mask(unit)
        return bool((counts > 1).any())

    def owner_mask(self, unit: int) -> np.ndarray:
        """The base's owner mask, OR-reduced over each image
        (Definition 4's union) by the alignment's pullback kernel."""
        return self.alignment.pullback(self.base.owner_mask(unit))

    def processors(self) -> tuple[int, ...]:
        if self._processors is None:
            self._processors = (
                tuple(u for u in self.base.processors()
                      if self.owner_mask(u).any())
                if self.is_replicated else super().processors())
        return self._processors

    def _compute_owner_map(self) -> np.ndarray:
        """Vectorized when the alignment offers the ``map_linear`` bulk
        composition kernel (or the older ``image_arrays``); falls back to
        enumeration otherwise."""
        map_linear = getattr(self.alignment, "map_linear", None)
        if map_linear is not None:
            try:
                lin = map_linear(np.arange(self.domain.size,
                                           dtype=np.int64))
            except NotImplementedError:
                lin = None
            if lin is not None:
                flat = self.base.primary_owner_map().reshape(-1, order="F")
                return flat[lin].reshape(self.domain.shape, order="F")
        image_arrays = getattr(self.alignment, "image_arrays", None)
        if image_arrays is None:
            return super()._compute_owner_map()
        try:
            base_positions = image_arrays()   # (m, base_rank) positions
        except NotImplementedError:
            return super()._compute_owner_map()
        base_map = self.base.primary_owner_map()
        flat = base_map.reshape(-1, order="F")
        lin = self.base.domain.linear_indices(base_positions)
        owners = flat[lin]
        return owners.reshape(self.domain.shape, order="F")

    def owners_of(self, indices: np.ndarray) -> np.ndarray:
        """Bulk primary owners through the alignment composition: map the
        alignee index tuples to representative base indices in one
        vectorized pass, then look the owners up in the base's bulk
        kernel."""
        map_indices = getattr(self.alignment, "map_indices", None)
        if map_indices is None:
            return super().owners_of(indices)
        base_positions = map_indices(np.asarray(indices, dtype=np.int64))
        return self.base.owners_of(base_positions)

    def describe(self) -> str:
        return (f"CONSTRUCT({self.alignment!r}, {self.base.describe()}) "
                f"on {self.domain}")


def construct(alignment: IndexMapping, base: Distribution
              ) -> ConstructedDistribution:
    """``delta^A = CONSTRUCT(alpha, delta^B)`` (Definition 4)."""
    return ConstructedDistribution(alignment, base)
