"""Record, the base of the package's immutable value types; Ring, the base
of its ring elements; and the argument policy.

Not dataclasses: importing them costs every kproj process about 30 ms.
Ring is here, not in _powers, because every process that defines a ring
element runs this module and not all of them run _powers.

The policy: a size, degree, index or exponent is an int, never a bool,
within its bounds, and an integer vector holds ints only; any other
argument is a ValueError.  Every compute module checks through check_int
and exact_ints, so the rule is written once.
"""

from operator import attrgetter


def check_int(value, message: str, low: int | None = None, high: int | None = None) -> None:
    """Raise ValueError(message) unless value is an int (not a bool) with low <= value < high.

    Either bound may be None, for no bound on that side.
    """
    if (type(value) is not int or (low is not None and value < low)
            or (high is not None and value >= high)):
        raise ValueError(message)


def exact_ints(values, message: str) -> tuple[int, ...]:
    """values as a tuple, or ValueError(message) unless every one is an int (not a bool)."""
    values = tuple(values)
    if not set(map(type, values)) <= {int}:
        raise ValueError(message)
    return values


class Record:
    """Immutable value compared, hashed and shown by the fields in _fields.

    A subclass names its fields in order in _fields, and only Record sets
    them: a subclass whose arguments need checking validates in its own
    __init__ and then hands its fields to Record.__init__, and a library
    result that is valid by construction is built by _make, which runs no
    check.  Objects of different classes never compare equal.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *values):
        self.__dict__.update(zip(self._fields, values, strict=True))

    @classmethod
    def _make(cls, *values):
        """The record with these field values, for library results: no check runs.

        The caller guarantees one value per field, each what cls.__init__
        would have stored (a tuple of ints where it would convert a list).
        Not even the count is checked: zip's strict would cost a quarter of
        a construction, and _make builds most of a job's records.
        """
        self = object.__new__(cls)
        self.__dict__.update(zip(cls._fields, values))
        return self

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


class Ring:
    """The operators of a Record that is an element of a commutative ring with unit.

    A class mixes Ring in after Record and writes the primitives: _one(),
    the unit of self's ring, and __add__ and __mul__, which take an element
    of the same ring or a scalar the class names, raise ValueError for two
    elements of different sizes and return NotImplemented for any other
    operand, so that Python raises TypeError.  Every other operator is
    written here, once: -x = x * -1, x - y = -(-x + y), c + x = x + c,
    c - x = -x + c, c * x = x * c, and x ** k by repeated squaring.
    """

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        # y is handed to __add__ as it came, so a bool or a foreign operand is
        # refused there, not turned into an int by negating it first
        total = (-self).__add__(other)
        return total if total is NotImplemented else -total

    def __radd__(self, other):
        return self.__add__(other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, exponent: int):
        # from the top bit down, so x ** 1 makes no product and x ** 3 two
        check_int(exponent, "exponent must be a nonnegative integer", 0)
        if not exponent:
            return self._one()
        result = self
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result
