"""The read-only base of the package's value classes.

A plain class whose methods are written out once, in this module, costs
nothing at import; a generated one (``dataclasses``) has its methods written
and compiled each time its module is imported.
"""
from __future__ import annotations


class Record:
    """A read-only record with value equality.

    A subclass names its value fields, in constructor order, in ``_fields``,
    and sets each attribute once, in ``__init__``, with :meth:`_set`; after
    that, assigning or deleting an attribute raises ``AttributeError``.  Two
    records are equal when they are of the same class and their fields are
    equal, and a record hashes as the tuple of its fields, so one whose
    fields hold a dict has no hash (``TypeError``).  The repr names the class
    and its fields.  An attribute set but not named in ``_fields`` takes no
    part in equality, hash or repr.
    """

    _fields: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        vars(self).update(values)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {type(self).__name__}.{name} to a "
                             f"{type(value).__name__}: the record is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}: "
                             "the record is read-only")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
