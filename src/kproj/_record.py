"""Record, the base of the package's immutable value types.

Not dataclasses: importing them costs every kproj process about 30 ms.
"""

from operator import attrgetter


class Record:
    """Immutable value compared, hashed and shown by the fields in _fields.

    A subclass names its fields in order in _fields; its __init__
    validates and sets them with object.__setattr__.  Objects of different
    classes never compare equal.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
