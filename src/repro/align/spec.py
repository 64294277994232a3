"""Parsed form of an ALIGN/REALIGN directive (§5).

::

    ALIGN A(s1, ..., sn) WITH B(t1, ..., tm)

Every alignee axis ``si`` is ``:``, ``*`` or an align-dummy; every base
subscript ``tj`` is a dummyless expression, a dummy-use expression, a
subscript triplet, or ``*`` (replication).  The spec is purely syntactic;
:func:`repro.align.reduce.reduce_alignment` gives it meaning against
concrete index domains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from repro.align.ast import Expr, dummies_in
from repro.errors import AlignmentError

__all__ = [
    "AxisColon", "AxisStar", "AxisDummy", "AligneeAxis",
    "BaseExpr", "BaseTriplet", "BaseStar", "BaseSubscript",
    "AlignSpec",
]


@dataclass(frozen=True)
class AxisColon:
    """Alignee axis ``:`` — spread across the matching base triplet axis."""

    def __str__(self) -> str:
        return ":"


@dataclass(frozen=True)
class AxisStar:
    """Alignee axis ``*`` — collapsed: positions along the axis make no
    difference in determining the base position."""

    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True)
class AxisDummy:
    """Alignee axis bound to an align-dummy (a scalar integer variable)."""

    name: str

    def __str__(self) -> str:
        return self.name


AligneeAxis = Union[AxisColon, AxisStar, AxisDummy]


@dataclass(frozen=True)
class BaseExpr:
    """Base subscript that is a scalar integer expression (dummyless or
    using exactly one align-dummy).  Plain ints coerce to constants."""

    expr: Expr

    def __post_init__(self) -> None:
        if isinstance(self.expr, int):
            from repro.align.ast import Const
            object.__setattr__(self, "expr", Const(self.expr))

    def __str__(self) -> str:
        return str(self.expr)


@dataclass(frozen=True)
class BaseTriplet:
    """Base subscript that is a subscript triplet ``[LT : UT : ST]``.

    Any of the parts may be ``None`` meaning "take the bound of the base
    dimension" (for LT/UT) or stride 1 (for ST); parts may be expressions
    resolved at reduction time.
    """

    lower: Expr | None = None
    upper: Expr | None = None
    stride: Expr | None = None

    def __str__(self) -> str:
        lo = "" if self.lower is None else str(self.lower)
        up = "" if self.upper is None else str(self.upper)
        st = "" if self.stride is None else f":{self.stride}"
        return f"{lo}:{up}{st}"


@dataclass(frozen=True)
class BaseStar:
    """Base subscript ``*`` — replication across that base axis."""

    def __str__(self) -> str:
        return "*"


BaseSubscript = Union[BaseExpr, BaseTriplet, BaseStar]


@dataclass(frozen=True)
class AlignSpec:
    """The parsed directive ``ALIGN <alignee>(axes) WITH <base>(subs)``."""

    alignee: str
    axes: tuple[AligneeAxis, ...]
    base: str
    subscripts: tuple[BaseSubscript, ...]

    def __init__(self, alignee: str, axes: Sequence[AligneeAxis],
                 base: str, subscripts: Sequence[BaseSubscript]) -> None:
        object.__setattr__(self, "alignee", alignee)
        object.__setattr__(self, "axes", tuple(axes))
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "subscripts", tuple(subscripts))
        self._validate()

    def _validate(self) -> None:
        seen: set[str] = set()
        for a in self.axes:
            if isinstance(a, AxisDummy):
                if a.name in seen:
                    raise AlignmentError(
                        f"align-dummy {a.name!r} bound to more than one "
                        f"alignee axis in ALIGN {self.alignee}")
                seen.add(a.name)
        # every dummy used in the base must be declared on the alignee side
        for t in self.subscripts:
            if isinstance(t, BaseExpr):
                for d in dummies_in(t.expr):
                    if d not in seen:
                        raise AlignmentError(
                            f"align-dummy {d!r} used in base subscript "
                            f"{t} but not bound by an alignee axis")
        n_colon = sum(isinstance(a, AxisColon) for a in self.axes)
        n_triplet = sum(isinstance(t, BaseTriplet) for t in self.subscripts)
        if n_colon != n_triplet:
            raise AlignmentError(
                f"ALIGN {self.alignee}: {n_colon} ':' alignee axes must "
                f"match {n_triplet} base subscript-triplets one-to-one "
                "(analogous to array assignment, §5.1)")

    def __str__(self) -> str:
        axes = ", ".join(str(a) for a in self.axes)
        subs = ", ".join(str(t) for t in self.subscripts)
        return f"ALIGN {self.alignee}({axes}) WITH {self.base}({subs})"
