"""Immutable value records without the ``dataclasses`` machinery.

A subclass names its fields in ``_fields`` and sets them once in its own
``__init__`` through ``_init``.  Two records are equal when they are of
the same class and their fields are equal, ``hash`` is the hash of the
tuple of fields, and ``repr`` reads ``Cls(a=1, b=2)``: the behaviour of a
frozen dataclass.  Assigning or deleting an attribute afterwards raises
``AttributeError``.  Attributes outside ``_fields`` take no part in
``==``, ``hash`` or ``repr``.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


def _getter(names: tuple):
    """self -> the tuple of its fields ``names``."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda self: (get(self),)
    return attrgetter(*names) if names else lambda self: ()


class Record:
    __slots__ = ()
    _fields: tuple = ()
    # the fields repr shows, when they differ from _fields
    _repr_fields: tuple | None = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = staticmethod(_getter(cls._fields))

    def _init(self, *values):
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        names = self._fields if self._repr_fields is None else self._repr_fields
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
