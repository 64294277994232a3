"""Processor model (substrate S2, §3 of the paper).

The PROCESSORS directive declares *processor arrangements* — either processor
array arrangements (with a non-empty index domain) or conceptually scalar
arrangements.  Each implementation determines an implicit **abstract
processor arrangement** (AP), a linear numbering of the physical processors;
every declared arrangement is mapped onto AP by Fortran storage association
(column-major sequence association, with abstract processors playing the
role of storage units).  Sharing an abstract processor implies sharing the
associated physical processor.

Arrays may be distributed to whole arrangements or to *sections* of them
(``DISTRIBUTE B(CYCLIC) TO Q(1:NOP:2)``) — one of the paper's
generalizations over draft HPF.
"""

from repro.processors.arrangement import (
    ProcessorArrangement,
    ScalarArrangement,
    ScalarPolicy,
)
from repro.processors.abstract import AbstractProcessors
from repro.processors.section import ProcessorSection
from repro.processors.topology import (
    Topology,
    FullyConnected,
    Line,
    Mesh2D,
    Hypercube,
)

__all__ = [
    "ProcessorArrangement",
    "ScalarArrangement",
    "ScalarPolicy",
    "AbstractProcessors",
    "ProcessorSection",
    "Topology",
    "FullyConnected",
    "Line",
    "Mesh2D",
    "Hypercube",
]
