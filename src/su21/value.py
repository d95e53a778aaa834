"""The protocol of the package's immutable value types, written once.

A subclass of Value lists every field in its own __slots__ and sets them in
its validating constructor through object.__setattr__.  Its instances are
then immutable (no field can be set or deleted), compare and hash by their
field values (the exact type must match), pickle through the field values
without running the constructor again, and have the positional repr
Type(v1, v2, ...).
"""

from copyreg import __newobj__


class Value:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return __newobj__, (type(self),), self._values()

    def __setstate__(self, values):
        if len(values) != len(self.__slots__):
            raise TypeError(
                "%s takes %d field values, got %d"
                % (type(self).__name__, len(self.__slots__), len(values))
            )
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(map(repr, self._values())))
