import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kproj.chern import (
    FormalBundle,
    chern_character,
    line_bundle,
    newton_s,
    tensor_line,
    whitney_sum,
)
from kproj.truncpoly import MultiPoly, TruncPoly

from oracles import elementary_symmetric, elementary_values, exp_nilpotent, power_sum


def random_bundle(rng, order):
    rank = rng.randint(0, 4)
    coeffs = [1] + [rng.randint(-3, 3) if k <= rank else 0
                    for k in range(1, order + 1)]
    return FormalBundle(rank, TruncPoly(order, coeffs))


class TestNewtonPolynomials:
    def test_first_three_match_the_classical_formulas(self):
        assert newton_s(1).render() == "e1"
        assert newton_s(2).render() == "e1^2 - 2*e2"
        assert newton_s(3).render() == "e1^3 - 3*e1*e2 + 3*e3"

    def test_structure_of_s2(self):
        assert newton_s(2).expression == MultiPoly(2, {(2, 0): 1, (0, 1): -2})

    def test_index_validation(self):
        with pytest.raises(ValueError):
            newton_s(0)

    def test_substitution_identity_small(self):
        # p_k = s_k(e_1, .., e_k) after substituting the elementary
        # symmetric polynomials, including e_i = 0 for i > n
        for n in range(1, 5):
            for k in range(1, 7):
                values = [elementary_symmetric(i, n) for i in range(1, k + 1)]
                one = MultiPoly.constant(n, 1)
                assert newton_s(k).expression.evaluate(values, one) == power_sum(k, n)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 20).flatmap(
        lambda k: st.lists(st.integers(-9, 9), min_size=k, max_size=k)))
    @example(list(range(1, 21)))
    def test_power_sum_of_k_integer_roots(self, roots):
        # k roots make every e_1 .. e_k nonzero in general, so every term of
        # s_k counts, (-1)^(k-1) k e_k among them
        k = len(roots)
        values = elementary_values(roots)
        assert newton_s(k).expression.evaluate(values, 1) == sum(r ** k for r in roots)

    def test_weighted_homogeneity(self):
        # every monomial of s_k has weight k when e_i carries weight i
        for k in range(1, 9):
            for exps in newton_s(k).expression.terms:
                assert sum((i + 1) * e for i, e in enumerate(exps)) == k


class TestFormalBundle:
    def test_rejects_wrong_constant_term(self):
        with pytest.raises(ValueError):
            FormalBundle(1, TruncPoly(2, (0, 1, 0)))

    def test_rejects_rational_classes(self):
        with pytest.raises(ValueError):
            FormalBundle(1, TruncPoly(1, (1, Fraction(1, 2))))

    def test_rejects_classes_beyond_the_rank(self):
        with pytest.raises(ValueError):
            FormalBundle(1, TruncPoly(2, (1, 0, 1)))

    def test_line_bundle(self):
        zeta = line_bundle(3)
        assert zeta.dimension == 1
        assert zeta.chern_class(1) == 1
        assert zeta.chern_class(2) == 0


class TestChernCharacter:
    def test_trivial_line_bundle(self):
        assert chern_character(FormalBundle(1, TruncPoly.one(4)), 4) == TruncPoly.one(4)

    def test_hopf_class_gives_exponential(self):
        got = chern_character(line_bundle(3), 3)
        assert got == TruncPoly(3, (1, 1, Fraction(1, 2), Fraction(1, 6)))

    def test_exponential_through_order_twelve(self):
        got = chern_character(line_bundle(12), 12)
        expected = TruncPoly(12, [Fraction(1, factorial(k)) for k in range(13)])
        assert got == expected
        assert got == exp_nilpotent(TruncPoly.monomial(12, 1))

    def test_rank_two_sum_of_lines(self):
        c = TruncPoly(2, (1, 2, 1))  # (1 + x)^2
        got = chern_character(FormalBundle(2, c), 2)
        assert got == TruncPoly(2, (2, 2, 1))

    def test_degree_zero_is_the_rank(self):
        rng = random.Random(5)
        for _ in range(50):
            order = rng.randint(0, 6)
            b = random_bundle(rng, order)
            assert chern_character(b, order).coefficient(0) == b.dimension

    def test_truncation_mismatch_rejected(self):
        with pytest.raises(ValueError):
            chern_character(line_bundle(3), 4)


class TestWhitneySum:
    def test_sum_with_trivial_line(self):
        zeta = line_bundle(3)
        got = whitney_sum(zeta, FormalBundle(1, TruncPoly.one(3)))
        assert got.dimension == 2
        assert got.total_chern == zeta.total_chern

    def test_square_of_the_line(self):
        zeta = line_bundle(2)
        got = whitney_sum(zeta, zeta)
        assert got.total_chern == TruncPoly(2, (1, 2, 1))

    def test_character_is_additive(self):
        rng = random.Random(99)
        for _ in range(200):
            order = rng.randint(0, 6)
            a = random_bundle(rng, order)
            b = random_bundle(rng, order)
            lhs = chern_character(whitney_sum(a, b), order)
            rhs = chern_character(a, order) + chern_character(b, order)
            assert lhs == rhs

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            whitney_sum(line_bundle(2), line_bundle(3))


class TestTensorLine:
    def test_square_of_hopf_class(self):
        zeta = line_bundle(4)
        sq = tensor_line(zeta, zeta)
        assert sq.chern_class(1) == 2
        assert chern_character(sq, 4) == exp_nilpotent(2 * TruncPoly.monomial(4, 1))

    def test_trivial_is_neutral(self):
        zeta = line_bundle(3)
        assert tensor_line(zeta, FormalBundle(1, TruncPoly.one(3))) == zeta

    def test_character_is_multiplicative(self):
        rng = random.Random(17)
        for _ in range(200):
            order = rng.randint(1, 8)
            a = line_bundle(order, rng.randint(-3, 3))
            b = line_bundle(order, rng.randint(-3, 3))
            lhs = chern_character(tensor_line(a, b), order)
            rhs = chern_character(a, order) * chern_character(b, order)
            assert lhs == rhs

    def test_higher_rank_rejected(self):
        with pytest.raises(ValueError):
            tensor_line(FormalBundle(2, TruncPoly.one(3)), line_bundle(3))


class TestSplittingOracle:
    def test_character_matches_sum_of_exponentials(self):
        # with m formal roots and c = prod(1 + x_i), the character computed
        # through the Newton route must equal sum_i exp(x_i) degree by
        # degree: s_k evaluated on the elementary symmetric polynomials is
        # the k-th power sum
        for m in range(1, 5):
            for k in range(1, 9):
                values = [elementary_symmetric(i, m) for i in range(1, k + 1)]
                via_newton = newton_s(k).expression.evaluate(values, MultiPoly.constant(m, 1))
                assert via_newton == power_sum(k, m)

    def test_total_character_of_split_bundle(self):
        # rank-3 bundle splitting as three lines with first classes 1, 2, -1
        order = 5
        lines = [line_bundle(order, c) for c in (1, 2, -1)]
        bundle = whitney_sum(whitney_sum(lines[0], lines[1]), lines[2])
        lhs = chern_character(bundle, order)
        rhs = sum(
            (chern_character(l, order) for l in lines),
            TruncPoly.constant(order, 0),
        )
        assert lhs == rhs


def newton_route_character(bundle, order):
    """The character through the symbolic s_k, evaluated on TruncPoly values."""
    one = TruncPoly.one(order)
    values = [TruncPoly.monomial(order, k, bundle.chern_class(k))
              for k in range(1, order + 1)]
    result = TruncPoly.constant(order, bundle.dimension)
    for k in range(1, order + 1):
        s_k = newton_s(k).expression
        result = result + Fraction(1, factorial(k)) * s_k.evaluate(values[:k], one)
    return result


@st.composite
def integer_bundles(draw, max_order):
    order = draw(st.integers(0, max_order))
    # half the draws have every class up to the order in play
    rank = draw(st.integers(order, order + 2) | st.integers(0, order))
    classes = [draw(st.integers(-6, 6)) if k <= rank else 0
               for k in range(1, order + 1)]
    return FormalBundle(rank, TruncPoly(order, [1] + classes))


@st.composite
def split_roots(draw):
    order = draw(st.integers(0, 40))
    size = draw(st.integers(0, order + 2))
    return draw(st.lists(st.integers(-5, 5), min_size=size, max_size=size)), order


class TestIntegerRecurrence:
    @settings(max_examples=100, deadline=None)
    @given(integer_bundles(max_order=10))
    def test_matches_the_newton_polynomial_route(self, bundle):
        assert chern_character(bundle, bundle.order) == \
            newton_route_character(bundle, bundle.order)

    @settings(max_examples=100, deadline=None)
    @given(split_roots())
    @example((list(range(-9, 32)), 40))
    def test_split_bundle_is_a_sum_of_exponentials(self, case):
        roots, order = case
        # prod(1 + r_i x) has the elementary symmetric polynomials of the
        # roots as its classes; its character is sum_i exp(r_i x)
        classes = [1] + [0] * order
        for r in roots:
            classes = [c + (r * classes[k - 1] if k else 0)
                       for k, c in enumerate(classes)]
        bundle = FormalBundle(len(roots), TruncPoly(order, classes))
        expected = [Fraction(sum(r ** k for r in roots), factorial(k))
                    for k in range(order + 1)]
        assert chern_character(bundle, order) == TruncPoly(order, expected)
