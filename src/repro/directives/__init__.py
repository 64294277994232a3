"""Directive front end (substrate S7).

A lexer/parser/analyzer for the concrete syntax the paper writes its
examples in: Fortran-style declarations, ``!HPF$`` directives
(PROCESSORS, TEMPLATE, DISTRIBUTE, REDISTRIBUTE, ALIGN, REALIGN,
DYNAMIC), ALLOCATE/DEALLOCATE statements, ``READ`` input binding and
array assignments.  Every code fragment in the paper parses verbatim;
the analyzer executes programs against either the paper's template-free
model (:class:`~repro.core.dataspace.DataSpace`) or the draft-HPF
template baseline (:class:`~repro.templates.model.TemplateDataSpace`),
optionally running assignments on the simulated machine.

Typical use::

    from repro.directives import run_program
    result = run_program('''
        REAL U(0:N,1:N), V(1:N,0:N), P(1:N,1:N)
    !HPF$ PROCESSORS PR(4,4)
    !HPF$ DISTRIBUTE (BLOCK,BLOCK) TO PR :: U, V, P
        P = U(0:N-1,:) + U(1:N,:) + V(:,0:N-1) + V(:,1:N)
    ''', n_processors=16, inputs={"N": 64}, machine=True)
    print(result.reports[-1].summary())
"""

from repro.directives.lexer import Lexer, Token, TokenKind
from repro.directives.parser import Parser, parse_program
from repro.directives import nodes
from repro.directives.analyzer import Analyzer, ProgramResult, run_program

__all__ = [
    "Lexer", "Token", "TokenKind",
    "Parser", "parse_program",
    "nodes",
    "Analyzer", "ProgramResult", "run_program",
]
