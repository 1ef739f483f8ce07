"""Declared domains of the numeric config fields, and the one check of them.

Each numeric field of a config dataclass declares the values it admits with
:func:`within`, and the class's ``__post_init__`` calls :func:`check_domains`.
A value outside its field's domain raises ValueError in one form,
``<Class>.<field> must be <domain>, got <value!r>``. An unset optional field
(None) passes, and every entry of a tuple field must lie in the domain.
The config is checked here, once, when it is built, so the array code that
reads it does not check it again; cross-field and enumeration rules stay
with their classes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable


@dataclass(frozen=True)
class Domain:
    """The values a field admits: ``text`` ends "must be ...", ``contains`` tests one value."""

    text: str
    contains: Callable[[float], bool]


def at_least(low) -> Domain:
    return Domain(f">= {low}", lambda v: v >= low)


def interval(low, high) -> Domain:
    return Domain(f"in [{low}, {high}]", lambda v: low <= v <= high)


POSITIVE_FINITE = Domain("> 0 and finite", lambda v: 0 < v < math.inf)
NONNEGATIVE_FINITE = Domain(">= 0 and finite", lambda v: 0 <= v < math.inf)
FINITE = Domain("finite", math.isfinite)
NONNEGATIVE_OR_INF = Domain(">= 0 (inf allowed)", lambda v: v >= 0)
NONNEGATIVE_INT = Domain("an integer >= 0", lambda v: v >= 0 and v % 1 == 0)
AT_LEAST_1 = at_least(1)


def within(domain: Domain, default=MISSING):
    """A dataclass field that admits only the values of ``domain``."""
    return field(default=default, metadata={"domain": domain})


@functools.cache
def _declared(cls) -> tuple[tuple[str, Domain], ...]:
    return tuple((f.name, f.metadata["domain"]) for f in fields(cls) if "domain" in f.metadata)


def check_domains(config) -> None:
    """Raise ValueError for the first field of ``config`` outside its declared domain."""
    for name, domain in _declared(type(config)):
        value = getattr(config, name)
        entries = value if isinstance(value, tuple) else () if value is None else (value,)
        if not all(map(domain.contains, entries)):
            raise ValueError(f"{type(config).__name__}.{name} must be {domain.text}, got {value!r}")
