"""The draft-HPF template data space: alignment chains + templates (§8).

This is the baseline model the paper argues against.  Its differences from
:class:`repro.core.dataspace.DataSpace` are exactly the ones §1 lists:

* templates exist, and only here;
* alignment *chains* are allowed — an alignment base may itself be aligned
  (HPF's "ultimate alignment"), so alignment trees have unbounded height;
  ownership resolution composes the chain (cost measured by E11);
* the §8.2 restrictions hold: a template's shape is fixed at unit entry
  (aligning a run-time-shaped allocatable to one is an error) and
  templates cannot cross procedure boundaries.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.align.function import AlignmentFunction, ClampMode
from repro.align.reduce import reduce_alignment
from repro.align.spec import AlignSpec
from repro.core.array import HpfArray
from repro.core.dataspace import _factorize
from repro.distributions.base import DistributionFormat
from repro.distributions.construct import ConstructedDistribution
from repro.distributions.distribution import Distribution, FormatDistribution
from repro.errors import MappingError, TemplateError
from repro.fortran.domain import IndexDomain
from repro.fortran.triplet import Triplet
from repro.processors.abstract import AbstractProcessors
from repro.processors.arrangement import ProcessorArrangement
from repro.processors.section import ProcessorSection
from repro.templates.template import Template

__all__ = ["TemplateDataSpace", "ChainedAlignment"]

Mappee = Union[Template, HpfArray]


class ChainedAlignment:
    """Composition of alignment functions along a chain A -> ... -> base.

    Implements the :class:`repro.distributions.construct.IndexMapping`
    protocol so CONSTRUCT works transparently; images compose as
    ``f2 o f1 (i) = union over j in f1(i) of f2(j)``.
    """

    def __init__(self, links: Sequence[AlignmentFunction]) -> None:
        if not links:
            raise MappingError("empty alignment chain")
        for f, g in zip(links, links[1:]):
            if f.base_domain != g.alignee_domain:
                raise MappingError(
                    f"alignment chain mismatch: {f.base_domain} vs "
                    f"{g.alignee_domain}")
        self.links = tuple(links)
        self.alignee_domain = links[0].alignee_domain
        self.base_domain = links[-1].base_domain

    @property
    def depth(self) -> int:
        return len(self.links)

    def image(self, index: Sequence[int]) -> frozenset[tuple[int, ...]]:
        current: set[tuple[int, ...]] = {tuple(int(v) for v in index)}
        for link in self.links:
            nxt: set[tuple[int, ...]] = set()
            for j in current:
                nxt |= link.image(j)
            current = nxt
        return frozenset(current)

    @property
    def is_replicating(self) -> bool:
        return any(link.is_replicating for link in self.links)

    def map_indices(self, indices: np.ndarray) -> np.ndarray:
        out = np.asarray(indices, dtype=np.int64)
        for link in self.links:
            out = link.map_indices(out)
        return out

    def pullback(self, base_mask: np.ndarray) -> np.ndarray:
        """OR of ``base_mask`` over each image: the links' pullbacks,
        last link first."""
        for link in reversed(self.links):
            base_mask = link.pullback(base_mask)
        return base_mask

    def image_arrays(self) -> np.ndarray:
        first = self.links[0].image_arrays()
        out = first
        for link in self.links[1:]:
            out = link.map_indices(out)
        return out

    def __repr__(self) -> str:
        return f"<ChainedAlignment depth={self.depth}>"


class TemplateDataSpace:
    """A scope under the draft-HPF template model."""

    def __init__(self, n_processors: int = 4, *,
                 ap: AbstractProcessors | None = None,
                 clamp: ClampMode = ClampMode.CLAMP) -> None:
        self.ap = ap if ap is not None else AbstractProcessors(n_processors)
        self.clamp = clamp
        self.env: dict[str, int] = {}
        self.templates: dict[str, Template] = {}
        self.arrays: dict[str, HpfArray] = {}
        #: child name -> (base name, alignment function)
        self._aligned_to: dict[str, tuple[str, AlignmentFunction]] = {}
        self._dist: dict[str, FormatDistribution] = {}
        #: arrays whose shape only became known at run time (ALLOCATE)
        self._runtime_shaped: set[str] = set()

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def processors(self, name: str, *bounds,
                   origin: int = 0) -> ProcessorArrangement:
        dims = []
        for b in bounds:
            if isinstance(b, tuple):
                dims.append(Triplet(b[0], b[1], 1))
            else:
                dims.append(Triplet.of_extent(int(b)))
        arr = ProcessorArrangement(name, IndexDomain(dims))
        self.ap.declare(arr, origin=origin)
        return arr

    def template(self, name: str, *bounds) -> Template:
        """TEMPLATE directive (specification part only)."""
        if name in self.templates or name in self.arrays:
            raise TemplateError(f"name {name!r} already declared")
        dims = []
        for b in bounds:
            if isinstance(b, tuple):
                dims.append(Triplet(b[0], b[1], 1))
            else:
                dims.append(Triplet.of_extent(int(b)))
        t = Template(name, IndexDomain(dims))
        self.templates[name] = t
        return t

    def declare(self, name: str, *bounds, dtype=np.float64,
                runtime_shape: bool = False) -> HpfArray:
        """Declare (and create) a data array.

        ``runtime_shape=True`` marks an allocatable instance whose extents
        were only known at ALLOCATE time — the case templates cannot
        serve (§8.2 problem 1).
        """
        if name in self.templates or name in self.arrays:
            raise TemplateError(f"name {name!r} already declared")
        dims = []
        for b in bounds:
            if isinstance(b, tuple):
                dims.append(Triplet(b[0], b[1], 1))
            else:
                dims.append(Triplet.of_extent(int(b)))
        arr = HpfArray(name, IndexDomain(dims), dtype=dtype)
        self.arrays[name] = arr
        if runtime_shape:
            self._runtime_shaped.add(name)
        return arr

    def _mappee(self, name: str) -> Mappee:
        if name in self.templates:
            return self.templates[name]
        if name in self.arrays:
            return self.arrays[name]
        raise MappingError(f"unknown array or template {name!r}")

    def _domain_of(self, name: str) -> IndexDomain:
        return self._mappee(name).domain

    # ------------------------------------------------------------------
    # ALIGN (chains allowed; templates allowed as bases)
    # ------------------------------------------------------------------
    def align(self, spec: AlignSpec) -> None:
        alignee = self._mappee(spec.alignee)
        base = self._mappee(spec.base)
        if isinstance(alignee, Template):
            raise TemplateError(
                f"ALIGN {spec.alignee}: a template cannot be an alignee")
        if spec.alignee in self._aligned_to:
            raise MappingError(
                f"{spec.alignee!r} is already aligned")
        if spec.alignee in self._dist:
            raise MappingError(
                f"{spec.alignee!r} already has an explicit distribution")
        if isinstance(base, Template) and \
                spec.alignee in self._runtime_shaped:
            raise TemplateError(
                f"ALIGN {spec.alignee} WITH template {spec.base}: the "
                "alignee's shape is a run-time value, but the shape of a "
                "template is fixed at entry to the program unit — HPF "
                "cannot establish a direct relationship between them "
                "(§8.2 problem 1)")
        fn = AlignmentFunction(
            reduce_alignment(spec, alignee.domain, base.domain, self.env),
            clamp=self.clamp)
        # cycle check along the prospective chain
        cursor = spec.base
        while cursor in self._aligned_to:
            if cursor == spec.alignee:
                raise MappingError(
                    f"ALIGN {spec.alignee} WITH {spec.base} creates an "
                    "alignment cycle")
            cursor = self._aligned_to[cursor][0]
        if cursor == spec.alignee:
            raise MappingError(
                f"ALIGN {spec.alignee} WITH {spec.base} creates an "
                "alignment cycle")
        self._aligned_to[spec.alignee] = (spec.base, fn)

    # ------------------------------------------------------------------
    # DISTRIBUTE (arrays or templates)
    # ------------------------------------------------------------------
    def distribute(self, name: str,
                   formats: Sequence[DistributionFormat],
                   to=None) -> None:
        obj = self._mappee(name)
        if name in self._aligned_to:
            raise MappingError(
                f"{name!r} is aligned; it cannot also be distributed")
        if isinstance(to, ProcessorSection):
            target = to
        elif isinstance(to, ProcessorArrangement):
            target = ProcessorSection(to)
        elif isinstance(to, str):
            target = ProcessorSection(self.ap.arrangement(to))
        elif to is None:
            n = sum(f.consumes_target_dim for f in formats)
            shape = _factorize(self.ap.size, max(n, 1))
            aname = f"_TAP{max(n, 1)}"
            try:
                arr = self.ap.arrangement(aname)
            except MappingError:
                arr = self.ap.declare(ProcessorArrangement(
                    aname, IndexDomain.standard(*shape)))
            target = ProcessorSection(arr)
        else:
            raise MappingError(f"bad distribution target {to!r}")
        self._dist[name] = FormatDistribution(
            obj.domain, tuple(formats), target, self.ap)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def ultimate_base(self, name: str) -> tuple[str, ChainedAlignment | None]:
        """Resolve the alignment chain of ``name``; returns the ultimate
        base name and the composed alignment (None if not aligned)."""
        links: list[AlignmentFunction] = []
        cursor = name
        guard = 0
        while cursor in self._aligned_to:
            base, fn = self._aligned_to[cursor]
            links.append(fn)
            cursor = base
            guard += 1
            if guard > len(self._aligned_to) + 1:
                raise MappingError("alignment cycle detected at resolution")
        return cursor, (ChainedAlignment(links) if links else None)

    def resolution_depth(self, name: str) -> int:
        """Chain length from ``name`` to its ultimate base (E11)."""
        _, chain = self.ultimate_base(name)
        return chain.depth if chain else 0

    def distribution_of(self, name: str) -> Distribution:
        base, chain = self.ultimate_base(name)
        base_dist = self._dist.get(base)
        if base_dist is None:
            raise MappingError(
                f"{name!r}: ultimate alignment base {base!r} has no "
                "distribution (templates must be distributed explicitly)")
        if chain is None:
            return base_dist
        return ConstructedDistribution(chain, base_dist)

    def owners(self, name: str, index: Sequence[int]) -> frozenset[int]:
        return self.distribution_of(name).owners(index)

    def owner_map(self, name: str) -> np.ndarray:
        return self.distribution_of(name).primary_owner_map()

    # ------------------------------------------------------------------
    # Procedure boundary (§8.2 problem 2)
    # ------------------------------------------------------------------
    def pass_template(self, name: str) -> None:
        """Attempt to pass a template as a procedure argument — always an
        error; the INHERIT workaround lives in
        :mod:`repro.templates.inherit`."""
        t = self.templates.get(name)
        if t is None:
            raise MappingError(f"{name!r} is not a template")
        t.pass_to_procedure()

    def describe(self) -> str:
        lines = [f"TemplateDataSpace over AP({self.ap.size})"]
        for name, t in self.templates.items():
            dist = self._dist.get(name)
            suffix = f" {dist.describe()}" if dist else " (undistributed)"
            lines.append(f"  {t!r}{suffix}")
        for name in self.arrays:
            base, chain = self.ultimate_base(name)
            if chain:
                lines.append(
                    f"  {name}: aligned, depth {chain.depth}, ultimate "
                    f"base {base}")
            elif name in self._dist:
                lines.append(f"  {name}: {self._dist[name].describe()}")
            else:
                lines.append(f"  {name}: unmapped")
        return "\n".join(lines)

