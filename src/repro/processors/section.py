"""Distribution targets: processor arrangements and sections thereof (§4).

The TO-clause of a DISTRIBUTE directive names a *distribution target*: a
processor array arrangement or a section of one (``TO Q(1:NOP:2)``).  A
target exposes a standard index domain ``I^R`` (what the distribution
functions of §4.1 map into) together with the translation from target
indices to arrangement indices and AP units.

:class:`ProcessorSection` supports scalar subscripts and triplets exactly
like array sections; a full arrangement is the degenerate all-``:`` section.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from repro.errors import MappingError
from repro.fortran.domain import IndexDomain
from repro.fortran.section import ArraySection, full_section
from repro.fortran.triplet import Triplet
from repro.processors.abstract import AbstractProcessors
from repro.processors.arrangement import ProcessorArrangement

__all__ = ["ProcessorSection"]


@dataclass(frozen=True)
class ProcessorSection:
    """A section of a processor array arrangement, usable as a TO-target."""

    arrangement: ProcessorArrangement
    section: ArraySection

    def __init__(self, arrangement: ProcessorArrangement,
                 subscripts: Sequence[Union[int, Triplet]] | None = None
                 ) -> None:
        if subscripts is None:
            sec = full_section(arrangement.domain)
        else:
            sec = ArraySection(arrangement.domain, subscripts)
        if sec.is_empty:
            raise MappingError(
                f"processor section of {arrangement.name} is empty")
        object.__setattr__(self, "arrangement", arrangement)
        object.__setattr__(self, "section", sec)

    # -- the target interface the distributions map into ---------------
    @property
    def name(self) -> str:
        return self.arrangement.name

    @property
    def rank(self) -> int:
        return self.section.rank

    @property
    def shape(self) -> tuple[int, ...]:
        return self.section.shape

    @property
    def size(self) -> int:
        return self.section.size

    def domain(self) -> IndexDomain:
        """Standard index domain ``I^R`` of the target."""
        return self.section.domain()

    def arrangement_index(self, index: Sequence[int]) -> tuple[int, ...]:
        """Translate a target index (in ``I^R``) to an arrangement index."""
        return self.section.to_parent(index)

    def ap_unit(self, ap: AbstractProcessors, index: Sequence[int]) -> int:
        """AP unit owning target element ``index``."""
        return ap.ap_unit(self.arrangement, self.arrangement_index(index))

    def ap_units_all(self, ap: AbstractProcessors) -> list[int]:
        """AP units of every processor in the target, in ``I^R`` order."""
        return [self.ap_unit(ap, idx) for idx in self.domain()]

    def __str__(self) -> str:
        subs = ", ".join(str(s) for s in self.section.subscripts)
        return f"{self.arrangement.name}({subs})"

