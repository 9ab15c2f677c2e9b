"""Truncated polynomials over exact rationals, and a small multivariate
polynomial engine.

TruncPoly models R[x]/(x^(n+1)) with Fraction coefficients; integrality
is a checkable property of a value, not a separate type, since the same
carrier has to hold integer cohomology classes and rational character
expansions.  MultiPoly is a sparse exact multivariate polynomial used as
the brute-force side of symmetric-function identities.  Both are
immutable Records, compared and hashed by value, and each writes only
its own sum, product and unit: the other operators are _record.Ring's.
The truncated product and the signed-sum renderer come from the private
_powers module, which the virtual-bundle ring of the ktheory module uses
too, so that ring N loads neither this module nor fractions.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from fractions import Fraction
from types import MappingProxyType

from . import _powers, _record, linalg
from ._record import Record

# the exact scalar types; a bool is not one, although it is an int
_SCALARS = (int, Fraction)

# TruncPoly.parse with no order takes the largest exponent as the order and
# refuses one above this, the largest order the ch subcommand accepts
PARSE_MAX_ORDER = 1000


def _exact(c) -> Fraction:
    """c as a Fraction, or ValueError unless it is an exact scalar."""
    if type(c) is Fraction:
        return c
    if type(c) is int:
        return Fraction(c)
    raise ValueError("coefficients must be exact integers or fractions")


class TruncPoly(Record, _record.Ring):
    """Element of Q[x]/(x^(order+1)); coeffs[k] is the degree-k coefficient."""

    _fields = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence):
        _record.check_int(order, "truncation order must be nonnegative", 0)
        coeffs = tuple(map(_exact, coeffs))
        if len(coeffs) != order + 1:
            raise ValueError(f"expected {order + 1} coefficients, got {len(coeffs)}")
        super().__init__(order, coeffs)

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, order: int, value) -> "TruncPoly":
        return cls.monomial(order, 0, value)

    @classmethod
    def one(cls, order: int) -> "TruncPoly":
        return cls.constant(order, 1)

    @classmethod
    def monomial(cls, order: int, degree: int, coefficient=1) -> "TruncPoly":
        _record.check_int(order, "truncation order must be nonnegative", 0)
        _record.check_int(degree, "monomial degree outside the truncation range", 0, order + 1)
        coeffs = [0] * (order + 1)
        coeffs[degree] = coefficient
        return cls(order, coeffs)

    # -- structure ------------------------------------------------------

    def coefficient(self, degree: int) -> Fraction:
        _record.check_int(degree, "degree outside the truncation range", 0, self.order + 1)
        return self.coeffs[degree]

    def is_integral(self) -> bool:
        """Whether every coefficient has denominator one."""
        return all(c.denominator == 1 for c in self.coeffs)

    def _check_order(self, other: "TruncPoly"):
        if self.order != other.order:
            raise ValueError("truncation orders do not match")

    # -- arithmetic -------------------------------------------------------

    def _one(self) -> "TruncPoly":
        return TruncPoly.one(self.order)

    def __add__(self, other):
        if type(other) in _SCALARS:
            other = TruncPoly.constant(self.order, other)
        if not isinstance(other, TruncPoly):
            return NotImplemented
        self._check_order(other)
        return TruncPoly(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        if type(other) in _SCALARS:
            return TruncPoly(self.order, tuple(c * other for c in self.coeffs))
        if not isinstance(other, TruncPoly):
            return NotImplemented
        self._check_order(other)
        return TruncPoly(self.order, _powers.truncated_product(self.coeffs, other.coeffs))

    # -- rendering --------------------------------------------------------

    def render(self) -> str:
        return _powers.render_powers(self.coeffs, "x")

    def __str__(self) -> str:
        return self.render()

    @classmethod
    def parse(cls, text: str, order: int | None = None) -> "TruncPoly":
        """Inverse of render; also accepts loose input like "1+2x+x^2".

        If order is omitted, it is taken to be the highest degree present,
        which must be at most PARSE_MAX_ORDER.
        Every sign must lead a term and every "*" stand before x: "1-+x",
        "1+x+", "-" and "2*-x" are rejected.
        """
        if not isinstance(text, str):
            raise ValueError("polynomial text must be a str")
        if order is not None:
            _record.check_int(order, "truncation order must be nonnegative", 0)
        compact = re.sub(r"\s+", "", text)
        if not compact:
            raise ValueError("empty polynomial text")
        coeffs: dict[int, Fraction] = {}
        # one piece per term: cut before every sign but a leading one
        for term in re.split(r"(?<=.)(?=[+-])", compact):
            sign = Fraction(1)
            if term[0] in "+-":
                if term[0] == "-":
                    sign = Fraction(-1)
                term = term[1:]
                if not term:
                    raise ValueError(f"sign without a term in polynomial text {text!r}")
            m = re.fullmatch(
                r"(?:(?P<c>\d+(?:/\d+)?)(?:\*(?=x))?)?(?P<v>x(?:\^(?P<e>\d+))?)?", term
            )
            if not m or (m.group("c") is None and m.group("v") is None):
                raise ValueError(f"cannot parse polynomial term {term!r}")
            try:
                coeff = Fraction(m.group("c")) if m.group("c") else Fraction(1)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in polynomial term {term!r}") from None
            if m.group("v") is None:
                degree = 0
            else:
                degree = int(m.group("e")) if m.group("e") else 1
            coeffs[degree] = coeffs.get(degree, Fraction(0)) + sign * coeff
        top = max(coeffs) if coeffs else 0
        if order is None:
            if top > PARSE_MAX_ORDER:
                raise ValueError(f"term degree exceeds {PARSE_MAX_ORDER}; pass an order")
            order = top
        if top > order:
            raise ValueError("term degree exceeds the requested truncation order")
        out = [Fraction(0)] * (order + 1)
        for k, c in coeffs.items():
            out[k] = c
        return cls(order, out)


def pairing_matrix(n: int) -> linalg.IntegerMatrix:
    """Top-coefficient multiplication pairing of the degree-n truncated ring.

    Entry (p, q) is the degree-n coefficient of x^p * x^q, extracted by an
    honest product in the ring; the matrix is antidiagonal ones and serves
    as the unimodularity witness for the cup-product pairing.
    """
    _record.check_int(n, "order must be nonnegative", 0)
    monomials = [TruncPoly.monomial(n, p) for p in range(n + 1)]
    return linalg.IntegerMatrix.from_rows(
        [int((xp * xq).coefficient(n)) for xq in monomials] for xp in monomials)


# ----------------------------------------------------------------------
# sparse multivariate polynomials
# ----------------------------------------------------------------------


class MultiPoly(Record, _record.Ring):
    """Exact multivariate polynomial; terms maps exponent tuples to nonzero Fractions.

    terms is a read-only view of a dict that no other code holds, so a
    polynomial in a set or a dict keeps its hash.
    """

    _fields = ("variable_count", "terms")

    def __init__(self, variable_count: int, terms=None):
        _record.check_int(variable_count, "variable count must be nonnegative", 0)
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for exps, c in (terms or {}).items():
            exps = _record.exact_ints(exps, "exponents must be exact integers")
            if len(exps) != variable_count:
                raise ValueError("exponent vector has the wrong length")
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative")
            c = _exact(c)
            if c:
                cleaned[exps] = cleaned.get(exps, Fraction(0)) + c
        super().__init__(variable_count,
                         MappingProxyType({e: c for e, c in cleaned.items() if c}))

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, variable_count: int) -> "MultiPoly":
        return cls(variable_count)

    @classmethod
    def constant(cls, variable_count: int, value) -> "MultiPoly":
        _record.check_int(variable_count, "variable count must be nonnegative", 0)
        return cls(variable_count, {(0,) * variable_count: value})

    # -- structure --------------------------------------------------------

    def __hash__(self) -> int:  # terms is a mapping, which does not hash
        return hash((self.variable_count, tuple(sorted(self.terms.items()))))

    def _check_vars(self, other: "MultiPoly"):
        if self.variable_count != other.variable_count:
            raise ValueError("variable counts do not match")

    # -- arithmetic -------------------------------------------------------

    def _one(self) -> "MultiPoly":
        return MultiPoly.constant(self.variable_count, 1)

    def __add__(self, other):
        if type(other) in _SCALARS:
            other = MultiPoly.constant(self.variable_count, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_vars(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
        return MultiPoly._make(self.variable_count, MappingProxyType(terms))

    def __mul__(self, other):
        if type(other) in _SCALARS:
            if not other:
                return MultiPoly._make(self.variable_count, MappingProxyType({}))
            factor = other if type(other) is Fraction else Fraction(other)
            return MultiPoly._make(self.variable_count, MappingProxyType(
                {e: c * factor for e, c in self.terms.items()}))
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_vars(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return MultiPoly._make(self.variable_count, MappingProxyType(terms))

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, values: Sequence, one):
        """Evaluate in any commutative ring given its multiplicative unit.

        values[i] replaces variable i; `one` supplies the ring so that
        constant terms and the empty product have somewhere to live.
        """
        if len(values) != self.variable_count:
            raise ValueError("need one value per variable")
        acc = 0 * one
        for exps, c in self.terms.items():
            term = one
            for i, e in enumerate(exps):
                if e:
                    term = term * (values[i] ** e)
            acc = acc + c * term
        return acc

    # -- rendering ----------------------------------------------------------

    def render(self, names: Sequence[str] | None = None) -> str:
        if names is None:
            names = [f"x{i + 1}" for i in range(self.variable_count)]
        if len(names) != self.variable_count:
            raise ValueError("need one name per variable")
        ordered = sorted(self.terms,
                         key=lambda e: (-sum(e), tuple(-x for x in e)))
        return _powers.render_sum(
            (self.terms[exps],
             "*".join(name if e == 1 else f"{name}^{e}"
                      for name, e in zip(names, exps) if e))
            for exps in ordered)

    def __str__(self) -> str:
        return self.render()
