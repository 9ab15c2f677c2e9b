"""Newton power-sum polynomials and the Chern character of formal bundles.

A formal bundle is a rank together with a total Chern class: an integer
truncated polynomial with constant term 1 whose degree-k coefficient
stands for the class in cohomological degree 2k.  That degree-halving
convention matters: the spaces served here have no odd cohomology, so one
polynomial degree per even cohomological degree keeps everything dense
and small, and a truncation order of n reaches cohomological degree 2n.

The character is rank + sum_k p_k x^k / k!, where p_k is the k-th power
sum of the Chern roots.  Newton's identities give p_k from the classes:

    p_k = c_1 p_{k-1} - c_2 p_{k-2} + ... + (-1)^k c_{k-1} p_1
          + (-1)^{k-1} k c_k

Under the degree-halving convention each c_k is a scalar times x^k, so
chern_character runs this recurrence on plain integers.  The Newton
polynomials s_k are the unique integer polynomials with
p_k = s_k(e_1, .., e_k).  newton_s builds them for the `newton`
subcommand, not by the recurrence but term by term from the partitions
of k, by Waring's formula (Macdonald, Symmetric Functions and Hall
Polynomials, ch. I).  So the tests, which certify s_k against
brute-force expansion, also use it as a route to the character that
shares no code with chern_character.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from types import MappingProxyType

from . import _record, truncpoly
from ._record import Record


class NewtonPolynomial(Record):
    """The polynomial s_k with p_k = s_k(e_1, .., e_k) identically."""

    _fields = ("k", "expression")

    def variable_names(self) -> list[str]:
        return [f"e{i + 1}" for i in range(self.expression.variable_count)]

    def render(self) -> str:
        return self.expression.render(self.variable_names())


@lru_cache(maxsize=None)
def newton_s(k: int) -> NewtonPolynomial:
    """Newton polynomial s_k in the formal variables e_1 .. e_k, by Waring's formula.

    Each partition of k gives one term: with m_i parts equal to i and
    n = m_1 + .. + m_k parts in all, the monomial e_1^m_1 .. e_k^m_k has
    coefficient (-1)^(k-n) k (n-1)! / (m_1! .. m_k!).
    """
    _record.check_int(k, "index must be at least 1", 1)
    # after step i: (what the parts below i must add up to,
    # multiplicities of the parts k, k-1, .., i); parts of 1 fill the rest
    partial = [(k, ())]
    for i in range(k, 1, -1):
        partial = [(r - m * i, ms + (m,)) for r, ms in partial for m in range(r // i + 1)]
    fact = [factorial(m) for m in range(k + 1)]
    terms = {}
    for ones, ms in partial:
        exps = (ones, *reversed(ms))
        n = sum(exps)
        c = k * fact[n - 1] // prod(fact[m] for m in exps if m > 1)
        terms[exps] = Fraction(-c if (k - n) % 2 else c)
    # distinct partitions give distinct exponent vectors, and no c is zero
    return NewtonPolynomial(k, truncpoly.MultiPoly._make(k, MappingProxyType(terms)))


class FormalBundle(Record):
    """A rank plus a total Chern class, the formal input to the character.

    The class is an integer polynomial with constant coefficient exactly 1
    and nothing above the rank: classes in degrees beyond the rank vanish
    by definition, and here they are simply not allowed in.  Where the
    classes come from geometrically is outside this module; they are taken
    as given.
    """

    _fields = ("dimension", "total_chern")

    def __init__(self, dimension: int, total_chern: truncpoly.TruncPoly):
        _record.check_int(dimension, "bundle dimension must be nonnegative", 0)
        if not total_chern.is_integral():
            raise ValueError("Chern classes must have integer coefficients")
        if total_chern.coefficient(0) != 1:
            raise ValueError("the total Chern class must have constant term 1")
        for k in range(dimension + 1, total_chern.order + 1):
            if total_chern.coefficient(k):
                raise ValueError(
                    f"class in degree {k} is nonzero beyond the bundle rank"
                )
        super().__init__(dimension, total_chern)

    @property
    def order(self) -> int:
        return self.total_chern.order

    def chern_class(self, k: int) -> int:
        _record.check_int(k, "class degree must be nonnegative", 0)
        if k > self.order:
            return 0
        return int(self.total_chern.coefficient(k))


def line_bundle(order: int, c1: int = 1) -> FormalBundle:
    """Rank-1 bundle with the given first class (1 recovers the Hopf class)."""
    _record.check_int(order, "truncation order must be nonnegative", 0)
    if order == 0:
        return FormalBundle(1, truncpoly.TruncPoly.one(0))
    total = truncpoly.TruncPoly.one(order) + truncpoly.TruncPoly.monomial(order, 1, c1)
    return FormalBundle(1, total)


def chern_character(bundle: FormalBundle, truncation: int) -> truncpoly.TruncPoly:
    """Total Chern character: rank + sum of p_k/k! x^k.

    Each class c_k is a scalar times x^k, so the power sums p_k follow
    from Newton's recurrence on plain integers, with p_0 the rank.  The
    result lives in Q[x]/(x^(truncation+1)).
    """
    _record.check_int(truncation, "bundle truncation does not match the requested order",
                      bundle.order, bundle.order + 1)
    n = truncation
    c = [bundle.chern_class(k) for k in range(n + 1)]
    p = [bundle.dimension]
    for k in range(1, n + 1):
        pk = sum((-1) ** (j - 1) * c[j] * p[k - j] for j in range(1, k))
        p.append(pk + (-1) ** (k - 1) * k * c[k])
    return truncpoly.TruncPoly(n, [Fraction(pk, factorial(k)) for k, pk in enumerate(p)])


def whitney_sum(a: FormalBundle, b: FormalBundle) -> FormalBundle:
    """Direct sum: ranks add, total classes multiply in the truncated ring."""
    if a.order != b.order:
        raise ValueError("truncation orders do not match")
    return FormalBundle(a.dimension + b.dimension, a.total_chern * b.total_chern)


def tensor_line(a: FormalBundle, b: FormalBundle) -> FormalBundle:
    """Tensor product of two line bundles: the first classes add.

    Higher-rank tensor products need the full splitting principle and are
    deliberately not provided; the character multiplicativity they would
    encode is exercised on lines, where c_1 addition is the whole story.
    """
    if a.dimension != 1 or b.dimension != 1:
        raise ValueError("tensor products are implemented for line bundles only")
    if a.order != b.order:
        raise ValueError("truncation orders do not match")
    return line_bundle(a.order, a.chern_class(1) + b.chern_class(1))
