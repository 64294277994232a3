"""Executable alignment functions (Definition 3 + §5.1 evaluation rules).

An :class:`AlignmentFunction` wraps a :class:`ReducedAlignment` and
evaluates it: for an alignee index tuple, substitute each component for its
align-dummy, evaluate every base-axis expression, apply the extent rule,
and expand replicated axes — yielding the set of base indices the element
is aligned with.

Evaluation modes for out-of-range expression values (§5.1 rule 2; see
DESIGN.md item 3):

* ``ClampMode.CLAMP`` (default) — two-sided clamp to ``[Lj, Uj]``;
* ``ClampMode.PAPER`` — the paper's verbatim ``y_hat = MIN(Uj, y)``
  (values below the lower bound are an error);
* ``ClampMode.EXACT`` — no clamping; any out-of-range value is an error.

The vectorized fast path :meth:`AlignmentFunction.image_arrays` produces a
representative base index for *every* alignee element in column-major order
with O(N) NumPy work, which is what CONSTRUCTed owner maps and the
benchmarks use.
"""

from __future__ import annotations

import enum
import itertools
from typing import Sequence

import numpy as np

from repro.align.ast import Dummy, affine_coefficients, fold_constants
from repro.align.reduce import ExprAxis, ReducedAlignment, ReplicatedAxis
from repro.errors import AlignmentError
from repro.fortran.domain import IndexDomain
from repro.fortran.triplet import Triplet

__all__ = ["ClampMode", "AlignmentFunction", "identity_alignment"]


class ClampMode(enum.Enum):
    CLAMP = "clamp"    #: two-sided MAX(Lj, MIN(Uj, y))
    PAPER = "paper"    #: MIN(Uj, y) only, as printed in §5.1
    EXACT = "exact"    #: no clamping; out-of-range is an error


class AlignmentFunction:
    """A total index mapping ``I^A -> P(I^B) - {{}}`` (Definition 3)."""

    def __init__(self, reduced: ReducedAlignment,
                 clamp: ClampMode = ClampMode.CLAMP) -> None:
        self.reduced = reduced
        self.clamp = clamp
        self.alignee_domain = reduced.alignee_domain
        self.base_domain = reduced.base_domain

    # ------------------------------------------------------------------
    @property
    def is_replicating(self) -> bool:
        """True iff some base axis is ``*`` (every image has > 1 element,
        provided the replicated base dimension has extent > 1)."""
        return bool(self.replicated_axes)

    @property
    def replicated_axes(self) -> tuple[int, ...]:
        """The 0-based base axes that are ``*``: every image spans them
        entirely."""
        return tuple(j for j, ax in enumerate(self.reduced.base_axes)
                     if isinstance(ax, ReplicatedAxis))

    @property
    def collapsed_axes(self) -> frozenset[int]:
        """Alignee axes that do not influence the base position."""
        return self.reduced.collapsed_axes

    def _apply_clamp(self, y, bdim: Triplet):
        """Apply the configured §5.1 rule-2 clamp (scalar or array)."""
        lo, hi = bdim.lower, bdim.last
        if self.clamp is ClampMode.CLAMP:
            return np.clip(y, lo, hi) if isinstance(y, np.ndarray) \
                else min(max(y, lo), hi)
        if self.clamp is ClampMode.PAPER:
            y2 = np.minimum(y, hi) if isinstance(y, np.ndarray) else min(y, hi)
            bad = (y2 < lo).any() if isinstance(y2, np.ndarray) else y2 < lo
            if bad:
                raise AlignmentError(
                    f"alignment value below base lower bound {lo} under "
                    "PAPER clamp mode (the paper clamps only at the upper "
                    "bound)")
            return y2
        bad = ((np.asarray(y) < lo) | (np.asarray(y) > hi)).any() \
            if isinstance(y, np.ndarray) else not lo <= y <= hi
        if bad:
            raise AlignmentError(
                f"alignment value {y} outside base dimension {bdim} "
                "(EXACT mode)")
        return y

    # ------------------------------------------------------------------
    # Point images
    # ------------------------------------------------------------------
    def image(self, index: Sequence[int]) -> frozenset[tuple[int, ...]]:
        """``alpha(index)``: all base indices aligned with the element."""
        index = tuple(int(v) for v in index)
        if index not in self.alignee_domain:
            raise AlignmentError(
                f"index {index} outside alignee domain "
                f"{self.alignee_domain}")
        env = dict(zip(self.reduced.dummy_names, index))
        per_axis: list[tuple[int, ...]] = []
        for j, ax in enumerate(self.reduced.base_axes):
            bdim = self.base_domain.dims[j]
            if isinstance(ax, ReplicatedAxis):
                per_axis.append(tuple(bdim))
            else:
                y = int(ax.expr.evaluate(env))
                per_axis.append((int(self._apply_clamp(y, bdim)),))
        return frozenset(itertools.product(*per_axis)) if per_axis \
            else frozenset({()})

    def representative(self, index: Sequence[int]) -> tuple[int, ...]:
        """One canonical element of ``image(index)`` (replicated axes take
        the base dimension's lower bound)."""
        index = tuple(int(v) for v in index)
        env = dict(zip(self.reduced.dummy_names, index))
        out = []
        for j, ax in enumerate(self.reduced.base_axes):
            bdim = self.base_domain.dims[j]
            if isinstance(ax, ReplicatedAxis):
                out.append(bdim.lower)
            else:
                out.append(int(self._apply_clamp(
                    int(ax.expr.evaluate(env)), bdim)))
        return tuple(out)

    # ------------------------------------------------------------------
    # Vectorized whole-domain images
    # ------------------------------------------------------------------
    def map_indices(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`representative` over an ``(m, rank)`` array
        of alignee indices; returns an ``(m, base_rank)`` array."""
        indices = np.asarray(indices, dtype=np.int64)
        m = indices.shape[0]
        out = np.empty((m, self.base_domain.rank), dtype=np.int64)
        for j, ax in enumerate(self.reduced.base_axes):
            bdim = self.base_domain.dims[j]
            if isinstance(ax, ReplicatedAxis):
                out[:, j] = bdim.lower
                continue
            if ax.dummy is None:
                y = int(ax.expr.evaluate({}))
                out[:, j] = self._apply_clamp(y, bdim)
                continue
            k = self.reduced.axis_of_dummy(ax.dummy)
            y = ax.expr.evaluate({ax.dummy: indices[:, k]})
            out[:, j] = self._apply_clamp(np.asarray(y, dtype=np.int64),
                                          bdim)
        return out

    def map_linear(self, positions: np.ndarray) -> np.ndarray:
        """Bulk composition kernel: map linear column-major positions in
        the *alignee* domain to linear column-major positions of the
        representative image in the *base* domain, all in vectorized NumPy
        (no per-element Python).  CONSTRUCTed owner maps — which the
        compiled schedules ride on — are gathered through this kernel."""
        dom = self.alignee_domain
        positions = np.asarray(positions, dtype=np.int64)
        shape = dom.shape
        rank = dom.rank
        indices = np.empty((positions.size, rank), dtype=np.int64)
        stride = 1
        for k in range(rank):
            vals = dom.dims[k].values()
            indices[:, k] = vals[(positions // stride) % shape[k]]
            stride *= shape[k]
        return self.base_domain.linear_indices(self.map_indices(indices))

    def image_arrays(self) -> np.ndarray:
        """Representative base index of every alignee element.

        Returns an ``(alignee_domain.size, base_rank)`` int64 array in
        Fortran column-major element order (first axis fastest) — the
        contract consumed by
        :meth:`repro.distributions.construct.ConstructedDistribution.primary_owner_map`.
        """
        dom = self.alignee_domain
        size = dom.size
        shape = dom.shape
        rank = dom.rank
        # per alignee axis: the vector of axis values repeated in
        # column-major order
        pos = np.arange(size, dtype=np.int64)
        indices = np.empty((size, rank), dtype=np.int64)
        stride = 1
        for k in range(rank):
            vals = dom.dims[k].values()
            indices[:, k] = vals[(pos // stride) % shape[k]]
            stride *= shape[k]
        return self.map_indices(indices)

    def pullback(self, base_mask: np.ndarray) -> np.ndarray:
        """For every alignee element, whether the boolean ``base_mask``
        (shaped like the base domain) holds anywhere in its image.

        An image is the representative base index with every ``*`` axis
        widened to the whole dimension, so the ``*`` axes are OR-reduced
        first and the representative gathers the answer: one vectorized
        pass, no per-element :meth:`image`."""
        dom = self.alignee_domain
        if self.base_domain.rank == 0:
            return np.full(dom.shape, bool(base_mask))
        reduced = base_mask.any(axis=self.replicated_axes, keepdims=True)
        lin = self.map_linear(np.arange(dom.size, dtype=np.int64))
        # a representative sits at the lower bound (position 0) of every
        # ``*`` axis, which the reduction kept as an axis of extent 1
        pos = np.unravel_index(lin, self.base_domain.shape, order="F")
        return reduced[pos].reshape(dom.shape, order="F")

    def axis_triplet_image(self, base_axis: int,
                           alignee_triplet: Triplet) -> Triplet | None:
        """Exact image of an alignee triplet through an *affine* base axis.

        Returns ``None`` when the axis is not affine in a dummy (MAX/MIN
        truncation etc.) or when clamping would distort the image; callers
        then fall back to elementwise evaluation.  Used by the analytic
        communication-set engine.
        """
        ax = self.reduced.base_axes[base_axis]
        if isinstance(ax, ReplicatedAxis) or ax.affine is None:
            return None
        a, b = ax.affine
        img = alignee_triplet.affine_image(a, b)
        bdim = self.base_domain.dims[base_axis]
        if img.is_empty:
            return img
        if img.first < bdim.lower or img.last > bdim.last:
            return None   # clamping would fold values; no exact triplet
        return img

    def __repr__(self) -> str:
        return f"<AlignmentFunction {self.reduced}>"


def identity_alignment(domain: IndexDomain,
                       base_domain: IndexDomain | None = None
                       ) -> AlignmentFunction:
    """The identity alignment of a domain with itself (or with an equal-
    shape base), used for whole-array alignment bookkeeping."""
    base = base_domain if base_domain is not None else domain
    if base.shape != domain.shape:
        raise AlignmentError(
            f"identity alignment requires equal shapes, got {domain} "
            f"and {base}")
    names = tuple(f"_I{k + 1}" for k in range(domain.rank))
    axes = []
    for j, (ad, bd) in enumerate(zip(domain.dims, base.dims)):
        # J ranges over [La:Ua]; base position is J - La + Lb
        expr = Dummy(names[j]) + (bd.lower - ad.lower)
        expr = fold_constants(expr, {})
        axes.append(ExprAxis(expr, names[j],
                             affine_coefficients(expr, names[j])))
    reduced = ReducedAlignment(
        alignee_domain=domain, base_domain=base,
        dummy_names=names, base_axes=tuple(axes))
    return AlignmentFunction(reduced)
