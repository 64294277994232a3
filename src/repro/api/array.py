"""Distributed array handles: the data type of the lazy Session API.

A :class:`DistributedArray` is a named handle into a session's
:class:`~repro.core.dataspace.DataSpace`.  It carries the paper's
mapping directives as *fluent methods* — specification-part
``.distribute()`` / ``.align()`` apply immediately (they place data,
they move none), execution-part ``.redistribute()`` / ``.realign()`` /
``.allocate()`` / ``.deallocate()`` record IR nodes for the lazy
program — and NumPy-flavored indexing that **records** array
assignments instead of executing them::

    u[1:-1] = 0.25 * (u[:-2] + u[2:]) + f[1:-1]

Subscripts are zero-based positions into the array's index domain
(negative indices and open slices follow NumPy), lowered to the exact
Fortran subscript triplets of :mod:`repro.fortran.triplet` — so a
``U(0:N, 1:N)`` staggered-grid array slices the way a NumPy view of the
same shape would, whatever its declared bounds.
"""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING

import numpy as np

from repro.align.ast import Const, Dummy, Expr as IndexExpr
from repro.align.spec import AlignSpec, AxisDummy, BaseExpr, BaseStar
from repro.engine.expr import ArrayRef, Expr, ScalarLit
from repro.engine.assignment import Assignment
from repro.errors import DirectiveError
from repro.fortran.triplet import Triplet

if TYPE_CHECKING:
    from repro.api.session import Session

__all__ = ["DistributedArray"]


def _normalize_formats(formats: tuple) -> list:
    """Accept both ``.distribute(Block(), Block())`` and the list form
    ``.distribute([Block(), Block()])``."""
    if len(formats) == 1 and isinstance(formats[0], (list, tuple)):
        return list(formats[0])
    return list(formats)


class DistributedArray:
    """A handle to one array of a :class:`~repro.api.session.Session`."""

    def __init__(self, session: "Session", name: str) -> None:
        self._session = session
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def _ds(self):
        return self._session.ds

    @property
    def domain(self):
        """The index domain at this point of the recorded program."""
        return self._session.builder.domain_of(self.name)

    @property
    def rank(self) -> int:
        return len(self.domain.dims)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.domain.shape

    @property
    def data(self) -> np.ndarray:
        """The array's global storage (for initialisation and reading
        results).  Valid once the instance exists — run the pending
        program first if its ALLOCATE is still recorded."""
        arr = self._ds.arrays[self.name]
        if not arr.is_allocated:
            raise DirectiveError(
                f"array {self.name!r} is not allocated yet; its ALLOCATE "
                "is still recorded — call session.run() first")
        return arr.data

    def owners(self, index) -> frozenset[int]:
        return self._ds.owners(self.name, index)

    def distribution(self):
        return self._ds.distribution_of(self.name)

    def __repr__(self) -> str:
        arr = self._ds.arrays.get(self.name)
        shape = arr.domain.shape if arr is not None and arr.is_allocated \
            else "?"
        return f"DistributedArray({self.name!r}, shape={shape})"

    # ------------------------------------------------------------------
    # Specification-part directives (eager: they place, they never move)
    # ------------------------------------------------------------------
    def distribute(self, *formats, to=None) -> "DistributedArray":
        """``DISTRIBUTE name(formats) [TO to]`` — applies immediately."""
        self._ds.distribute(self.name, _normalize_formats(formats), to=to)
        return self

    def cost_profile(self, costs) -> "DistributedArray":
        """Declare per-index work weights along the first dimension.

        Advisory input for ``Session(opt="auto")`` and ``repro tune``:
        the autotune advisor balances these weights when pricing a
        GENERAL_BLOCK re-partition.  Numerics, schedules and charging
        never read the profile.
        """
        self._ds.set_cost_profile(self.name, costs)
        return self

    def align(self, base, mapping=None) -> "DistributedArray":
        """``ALIGN name(dummies) WITH base(mapping(dummies))``.

        ``mapping`` is a callable taking one align dummy per axis of
        this array and returning the base subscript expression(s)::

            b.align(a, lambda I: 2 * I)            # B(I) with A(2*I)
            w.align(grid, lambda I: (I, "*"))      # W(I) with GRID(I,*)

        Dummies support ``+ - *`` arithmetic; a returned ``"*"`` is a
        replicated base axis.  ``mapping=None`` is the identity.
        """
        self._ds.align(self._align_spec(base, mapping))
        return self

    # ------------------------------------------------------------------
    # Execution-part directives (lazy: recorded into the program IR)
    # ------------------------------------------------------------------
    def redistribute(self, *formats, to=None) -> "DistributedArray":
        """Record ``REDISTRIBUTE name(formats) [TO to]``."""
        self._session.builder.redistribute(
            self.name, _normalize_formats(formats), to=to)
        return self

    def realign(self, base, mapping=None) -> "DistributedArray":
        """Record ``REALIGN name(dummies) WITH base(...)``."""
        self._session.builder.realign(self._align_spec(base, mapping))
        return self

    def allocate(self, *bounds) -> "DistributedArray":
        """Record ``ALLOCATE(name(bounds))`` for an allocatable array."""
        norm = []
        for b in bounds:
            norm.append(tuple(int(x) for x in b)
                        if isinstance(b, (tuple, list)) else (1, int(b)))
        self._session.builder.allocate(self.name, *norm)
        return self

    def deallocate(self) -> "DistributedArray":
        """Record ``DEALLOCATE(name)``."""
        self._session.builder.deallocate(self.name)
        return self

    def _align_spec(self, base, mapping) -> AlignSpec:
        base_name = base.name if isinstance(base, DistributedArray) \
            else str(base)
        rank = self.rank
        if mapping is None:
            names = [f"I{k + 1}" for k in range(rank)]
            images: tuple = tuple(Dummy(n) for n in names)
        else:
            params = [p for p in
                      inspect.signature(mapping).parameters.values()
                      if p.default is inspect.Parameter.empty]
            if len(params) != rank:
                raise DirectiveError(
                    f"align mapping for {self.name!r} must take {rank} "
                    f"dummy argument(s), got {len(params)}")
            names = [p.name.upper() for p in params]
            images = mapping(*(Dummy(n) for n in names))
        if not isinstance(images, tuple):
            images = (images,)
        subs = []
        for image in images:
            if image == "*":
                subs.append(BaseStar())
            elif isinstance(image, IndexExpr):
                subs.append(BaseExpr(image))
            elif isinstance(image, (int, np.integer)):
                subs.append(BaseExpr(Const(int(image))))
            else:
                raise DirectiveError(
                    f"bad align image {image!r}: use dummy expressions, "
                    "integers or '*'")
        return AlignSpec(self.name, [AxisDummy(n) for n in names],
                         base_name, subs)

    # ------------------------------------------------------------------
    # NumPy-flavored indexing -> lazy statements
    # ------------------------------------------------------------------
    def _subscripts(self, key) -> tuple:
        if key is Ellipsis:
            key = ()
        if not isinstance(key, tuple):
            key = (key,)
        dims = self.domain.dims
        if len(key) > len(dims):
            raise DirectiveError(
                f"{self.name} has rank {len(dims)}; got {len(key)} "
                "subscripts")
        subs = []
        for k, dim in enumerate(dims):
            item = key[k] if k < len(key) else slice(None)
            extent = len(dim)
            if isinstance(item, slice):
                step = 1 if item.step is None else int(item.step)
                if step <= 0:
                    raise DirectiveError(
                        f"{self.name}: only positive slice steps are "
                        "supported in recorded statements")
                start, stop, step = item.indices(extent)
                if stop <= start:
                    raise DirectiveError(
                        f"{self.name}: empty section in dimension "
                        f"{k + 1}")
                last = start + ((stop - start - 1) // step) * step
                subs.append(Triplet(dim.lower + start, dim.lower + last,
                                    step))
            elif isinstance(item, (int, np.integer)):
                pos = int(item)
                if pos < 0:
                    pos += extent
                if not 0 <= pos < extent:
                    raise DirectiveError(
                        f"{self.name}: index {int(item)} out of range "
                        f"for extent {extent} in dimension {k + 1}")
                subs.append(dim.lower + pos)
            else:
                raise DirectiveError(
                    f"{self.name}: unsupported subscript {item!r}")
        return tuple(subs)

    def ref(self, *subscripts) -> ArrayRef:
        """An explicit reference; Fortran-style :class:`Triplet`/int
        subscripts, or none for the whole array."""
        return ArrayRef(self.name, subscripts or None)

    def __getitem__(self, key) -> ArrayRef:
        return ArrayRef(self.name, self._subscripts(key))

    def __setitem__(self, key, value) -> None:
        lhs = ArrayRef(self.name, self._subscripts(key))
        self._session.builder.assign(Assignment(lhs, _as_expr(value)))

    # arithmetic on the bare handle means "the whole array"
    def __add__(self, other):  return self.ref() + _as_expr(other)
    def __radd__(self, other): return _as_expr(other) + self.ref()
    def __sub__(self, other):  return self.ref() - _as_expr(other)
    def __rsub__(self, other): return _as_expr(other) - self.ref()
    def __mul__(self, other):  return self.ref() * _as_expr(other)
    def __rmul__(self, other): return _as_expr(other) * self.ref()
    def __truediv__(self, other):  return self.ref() / _as_expr(other)
    def __rtruediv__(self, other): return _as_expr(other) / self.ref()


def _as_expr(value) -> Expr:
    if isinstance(value, DistributedArray):
        return value.ref()
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, np.integer, np.floating)):
        return ScalarLit(float(value))
    raise DirectiveError(
        f"cannot use {value!r} in a recorded array statement")
