"""The one immutability and value-equality policy of the plain value classes."""


class Record:
    """Base of the plain value classes: immutable, and equal (and hashed)
    by the values of their ``__slots__``, in order, when of the same class.

    A subclass declares its ``__slots__`` and sets each field once in its
    ``__init__`` through ``object.__setattr__``.  Its ``__init__`` takes the
    fields positionally in slot order, so a copy or an unpickled object is
    rebuilt through it and its checks run again.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()
