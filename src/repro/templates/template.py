"""TEMPLATE objects — tagged abstract index spaces (§8).

"Although the language definition states that 'templates are just abstract
index spaces', it postulates in other places that distinct definitions of
templates in the same or different scopes are to be considered as
different, independent of their associated index domain.  As a
consequence, each template created in a program execution must be
interpreted as a tagged index domain."

Hence :class:`Template` equality is *identity*: two templates with the same
name and domain are still different templates.  Templates occupy no
storage, may only appear in directives, are not first-class (cannot be
ALLOCATABLE, cannot be passed to procedures), and their shape is fixed at
unit entry — the restrictions §8.2 builds its argument on, enforced here.
"""

from __future__ import annotations

import itertools

from repro.errors import TemplateError
from repro.fortran.domain import IndexDomain

__all__ = ["Template"]

_tag_counter = itertools.count(1)


class Template:
    """A tagged abstract index space.

    Parameters
    ----------
    name:
        Directive-level name of the template.
    domain:
        The index domain; must be a specification-time (static) shape.
    """

    __slots__ = ("name", "domain", "tag")

    def __init__(self, name: str, domain: IndexDomain) -> None:
        if domain.rank == 0 or domain.is_empty:
            raise TemplateError(
                f"TEMPLATE {name} must have a non-empty index domain")
        if not domain.is_standard:
            raise TemplateError(
                f"TEMPLATE {name} must have a standard (stride-1) index "
                f"domain, got {domain}")
        self.name = name
        self.domain = domain
        #: distinguishes same-shaped templates (tagged index domains)
        self.tag = next(_tag_counter)

    # Identity semantics: no __eq__/__hash__ overrides (object identity).

    # The §8.2 impossibilities, as loud failures -----------------------
    def allocate(self, *_args, **_kwargs) -> None:
        raise TemplateError(
            f"TEMPLATE {self.name} cannot be ALLOCATABLE: the shape of a "
            "template is determined at entry to a program unit and cannot "
            "be changed afterwards (§8.2 problem 1)")

    def pass_to_procedure(self) -> None:
        raise TemplateError(
            f"TEMPLATE {self.name} cannot be passed across a procedure "
            "boundary: templates are not first-class objects and cannot "
            "be used as arguments (§8.2 problem 2)")

    def __repr__(self) -> str:
        return f"<TEMPLATE {self.name}{self.domain} tag={self.tag}>"
