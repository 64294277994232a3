"""The implicit abstract processor arrangement AP (§3).

Each implementation of the language determines uniquely an implicit abstract
processor arrangement **AP**, which specifies a linear numbering scheme for
the physical processors.  Every declared arrangement is mapped to AP the way
Fortran EQUIVALENCE defines storage association, with abstract processors
playing the role of the storage units: element ``(i1, ..., ik)`` of an
arrangement occupies AP unit ``origin + column_major_offset(i1, ..., ik)``.

Two arrangements whose unit ranges overlap *share* abstract processors, and
"the sharing of an abstract processor implies the sharing of the associated
physical processor" — :meth:`AbstractProcessors.shared_units` exposes this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

from repro.errors import MappingError
from repro.fortran.storage import StorageAssociation
from repro.processors.arrangement import (
    ProcessorArrangement,
    ScalarArrangement,
    ScalarPolicy,
)

__all__ = ["AbstractProcessors"]

Arrangement = Union[ProcessorArrangement, ScalarArrangement]


@dataclass
class AbstractProcessors:
    """The implicit abstract processor arrangement of a program execution.

    Parameters
    ----------
    size:
        Number of abstract processors, i.e. the length of the linear
        numbering of physical processors (units ``0 .. size-1``).
    """

    size: int
    _associations: dict[str, StorageAssociation] = field(
        default_factory=dict, repr=False)
    _arrangements: dict[str, Arrangement] = field(
        default_factory=dict, repr=False)
    _unit_tables: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise MappingError(f"AP must have at least one processor, "
                               f"got size {self.size}")

    # ------------------------------------------------------------------
    # Declaration
    # ------------------------------------------------------------------
    def declare(self, arrangement: Arrangement, *, origin: int = 0
                ) -> Arrangement:
        """Declare an arrangement and sequence-associate it onto AP.

        ``origin`` is the AP unit at which the arrangement's element
        ``(L1, ..., Lk)`` is placed; by default all arrangements are
        associated at the start of AP (so same-shape arrangements name the
        same processors, the natural EQUIVALENCE reading of §3).
        """
        name = arrangement.name
        if name in self._arrangements:
            raise MappingError(f"processor arrangement {name!r} already "
                               "declared")
        extent = arrangement.size
        if origin < 0 or origin + extent > self.size:
            raise MappingError(
                f"arrangement {name!r} of {extent} processors at origin "
                f"{origin} does not fit in AP of size {self.size}")
        self._arrangements[name] = arrangement
        self._associations[name] = StorageAssociation(
            arrangement.domain, origin)
        return arrangement

    def view(self, base: Arrangement | str, name: str,
             *extents: int) -> "ProcessorArrangement":
        """Declare a reshaped *view* of an existing arrangement (§9:
        Vienna Fortran's processor reshaping / the HPF VIEW attribute).

        The view is sequence-associated at the same AP origin as its
        base, so ``view(i1,...,ik)`` and the base element with the same
        column-major rank denote the *same* abstract (hence physical)
        processor.  The total size must match the base's.
        """
        from repro.fortran.domain import IndexDomain
        base_arr = self.arrangement(base) if isinstance(base, str) else base
        assoc = self._associations.get(base_arr.name)
        if assoc is None:
            raise MappingError(
                f"view base {base_arr.name!r} is not declared on this AP")
        size = 1
        for e in extents:
            size *= e
        if size != base_arr.size:
            raise MappingError(
                f"view {name!r} with shape {extents} has {size} "
                f"processors; base {base_arr.name!r} has {base_arr.size}")
        view_arr = ProcessorArrangement(
            name, IndexDomain.standard(*extents))
        return self.declare(view_arr, origin=assoc.origin)

    def arrangement(self, name: str) -> Arrangement:
        try:
            return self._arrangements[name]
        except KeyError:
            raise MappingError(
                f"unknown processor arrangement {name!r}") from None

    # ------------------------------------------------------------------
    # AP numbering
    # ------------------------------------------------------------------
    def ap_unit(self, arrangement: Arrangement,
                index: Sequence[int] = ()) -> int:
        """AP unit of ``arrangement(index)`` (0-based linear number)."""
        if isinstance(arrangement, ScalarArrangement):
            assoc = self._associations.get(arrangement.name)
            origin = assoc.origin if assoc is not None else 0
            if arrangement.policy is ScalarPolicy.CONTROL:
                return 0
            if arrangement.policy is ScalarPolicy.ARBITRARY:
                # deterministic "arbitrary" choice: the association origin
                return origin
            raise MappingError(
                f"scalar arrangement {arrangement.name!r} is replicated; "
                "it has no single AP unit — use ap_units()")
        assoc = self._associations.get(arrangement.name)
        if assoc is None:
            raise MappingError(
                f"arrangement {arrangement.name!r} was not declared on "
                "this AP")
        return assoc.unit_of(index)

    def target_units(self, target) -> dict[int, tuple[int, ...]]:
        """AP unit -> target index of every processor of ``target``, in
        ``I^R`` order.  Memoized, as arrangements are never re-declared;
        the shared table is read-only."""
        table = self._unit_tables.get(target)
        if table is None:
            table = self._unit_tables[target] = dict(
                zip(target.ap_units_all(self), target.domain()))
        return table

    def ap_units(self, arrangement: Arrangement,
                 index: Sequence[int] = ()) -> tuple[int, ...]:
        """All AP units holding ``arrangement(index)`` (handles replication
        of scalar arrangements)."""
        if (isinstance(arrangement, ScalarArrangement)
                and arrangement.policy is ScalarPolicy.REPLICATED):
            return tuple(range(self.size))
        return (self.ap_unit(arrangement, index),)

    def index_of_unit(self, arrangement: Arrangement,
                      unit: int) -> tuple[int, ...]:
        """Arrangement index occupying AP ``unit`` (inverse of
        :meth:`ap_unit` for array arrangements)."""
        if isinstance(arrangement, ScalarArrangement):
            return ()
        assoc = self._associations[arrangement.name]
        return assoc.index_of_unit(unit)

    # ------------------------------------------------------------------
    # Sharing (§3 sharing rule)
    # ------------------------------------------------------------------
    def shared_units(self, a: Arrangement, b: Arrangement) -> range:
        """AP units shared by two declared array arrangements."""
        sa = self._associations[a.name]
        sb = self._associations[b.name]
        return sa.shared_units(sb)

    def share_processors(self, a: Arrangement, b: Arrangement) -> bool:
        return len(self.shared_units(a, b)) > 0
