"""Immutable records as tuple subclasses.

A record subclasses tuple with `__slots__ = ()`, checks its arguments in
`__new__` and names its items with `fields`, in the order `__new__` stores
them.  Equality and hashing are the tuple's, and assigning a field raises
AttributeError, as a property without a setter does.
"""

from __future__ import annotations

from operator import itemgetter


def fields(count: int) -> list[property]:
    """Read-only properties for items 0, ..., count - 1 of a record."""
    return [property(itemgetter(i)) for i in range(count)]
