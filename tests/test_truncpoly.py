import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kproj._powers as powers_module
from kproj.ktheory import KClass, k_ring_mul
from kproj.linalg import IntegerMatrix, is_isomorphism
from kproj.truncpoly import MultiPoly, TruncPoly, pairing_matrix

from oracles import elementary_symmetric, exp_nilpotent, power_sum


def poly(order, *coeffs):
    return TruncPoly(order, list(coeffs) + [0] * (order + 1 - len(coeffs)))


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def trunc_polys(max_order=8):
    return st.integers(min_value=0, max_value=max_order).flatmap(
        lambda n: st.lists(small_fractions, min_size=n + 1, max_size=n + 1).map(
            lambda cs: TruncPoly(n, cs)
        )
    )


def trunc_poly_triples(max_order=8):
    return st.integers(min_value=0, max_value=max_order).flatmap(
        lambda n: st.tuples(*[
            st.lists(small_fractions, min_size=n + 1, max_size=n + 1).map(
                lambda cs: TruncPoly(n, cs)
            )
            for _ in range(3)
        ])
    )


class TestTruncPolyArithmetic:
    def test_variable_power_truncates(self):
        for n in range(1, 7):
            x = TruncPoly.monomial(n, 1)
            assert x * x ** n == TruncPoly.constant(n, 0)

    def test_difference_of_squares(self):
        a = poly(3, 1, 1)
        b = poly(3, 1, -1)
        assert a * b == poly(3, 1, 0, -1)

    def test_square_with_fraction(self):
        p = poly(3, 0, 1, Fraction(1, 2))
        assert p * p == poly(3, 0, 0, 1, 1)

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            poly(2, 1) + poly(3, 1)
        with pytest.raises(ValueError):
            poly(2, 1) * poly(3, 1)

    def test_scalar_operations(self):
        p = poly(2, 1, 2, 3)
        assert 2 * p == poly(2, 2, 4, 6)
        assert Fraction(1, 2) * p == poly(2, Fraction(1, 2), 1, Fraction(3, 2))
        assert p + 1 == poly(2, 2, 2, 3)

    def test_power_by_squaring(self):
        p = poly(4, 1, 1)
        expected = poly(4, 1, 4, 6, 4, 1)
        assert p ** 4 == expected
        assert p ** 0 == TruncPoly.one(4)

    @pytest.mark.parametrize("exponent, products", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2),
                                                    (5, 3), (7, 4), (8, 3)])
    def test_a_power_squares_once_per_bit_below_the_top(self, monkeypatch, exponent, products):
        # and multiplies by the base once per set bit below the top
        p, expected = poly(8, 1, 1, -2), TruncPoly.one(8)
        for _ in range(exponent):
            expected = expected * p
        calls, mul = [], TruncPoly.__mul__
        monkeypatch.setattr(TruncPoly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        assert p ** exponent == expected
        assert len(calls) == products

    def test_integrality_flag(self):
        assert poly(2, 1, 2).is_integral()
        assert not poly(2, Fraction(1, 2)).is_integral()

    @settings(max_examples=80, deadline=None)
    @given(trunc_poly_triples())
    def test_ring_axioms(self, triple):
        a, b, c = triple
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(trunc_polys())
    def test_one_is_neutral(self, p):
        assert p * TruncPoly.one(p.order) == p


class TestExpNilpotent:
    def test_taylor_coefficients(self):
        got = exp_nilpotent(TruncPoly.monomial(3, 1))
        assert got == poly(3, 1, 1, Fraction(1, 2), Fraction(1, 6))

    def test_exp_of_zero(self):
        assert exp_nilpotent(TruncPoly.constant(4, 0)) == TruncPoly.one(4)

    def test_constant_term_rejected(self):
        with pytest.raises(ValueError):
            exp_nilpotent(TruncPoly.one(3))

    def test_nilpotence_of_exp_minus_one(self):
        for n in range(1, 8):
            g = exp_nilpotent(TruncPoly.monomial(n, 1)) - TruncPoly.one(n)
            assert g ** (n + 1) == TruncPoly.constant(n, 0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.data())
    def test_addition_law(self, order, data):
        coeffs = st.lists(small_fractions, min_size=order, max_size=order)
        p = TruncPoly(order, [0] + data.draw(coeffs))
        q = TruncPoly(order, [0] + data.draw(coeffs))
        assert exp_nilpotent(p) * exp_nilpotent(q) == exp_nilpotent(p + q)


@st.composite
def ring_pairs(draw):
    """Two elements of one ring: classes on CP^n, truncated or multivariate polynomials."""
    kind, size = draw(st.sampled_from([KClass, TruncPoly, MultiPoly])), draw(st.integers(0, 3))
    if kind is MultiPoly:
        terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * size), small_fractions,
                                max_size=4)
        return MultiPoly(size, draw(terms)), MultiPoly(size, draw(terms))
    entries = st.integers(-4, 4) if kind is KClass else small_fractions
    coeffs = st.lists(entries, min_size=size + 1, max_size=size + 1)
    return kind(size, draw(coeffs)), kind(size, draw(coeffs))


class TestExactScalars:
    # a float coefficient used to enter as its binary value, and a bool
    # passed as a scalar factor; both now fail
    @pytest.mark.parametrize("build, error", [
        (lambda: TruncPoly(1, [0.1, 1]), ValueError),
        (lambda: TruncPoly.constant(2, 0.5), ValueError),
        (lambda: MultiPoly(1, {(1,): 0.5}), ValueError),
        (lambda: KClass(1, (0, 1)) * True, TypeError),
        (lambda: True * KClass(1, (0, 1)), TypeError),
        (lambda: poly(2, 1, 1) * True, TypeError),
        (lambda: False * poly(2, 1, 1), TypeError),
        (lambda: MultiPoly(2, {(1, 0): 1}) * True, TypeError),
        (lambda: IntegerMatrix.identity(2) * True, TypeError),
        (lambda: True * IntegerMatrix.identity(2), TypeError),
        # an operand an operator does not take is Python's TypeError, never an
        # AttributeError from inside the class
        (lambda: KClass.gamma(2) + 3, TypeError),
        (lambda: KClass.gamma(2) - 3, TypeError),
        (lambda: KClass.gamma(2) + TruncPoly.one(2), TypeError),
        (lambda: IntegerMatrix.identity(2) + 3, TypeError),
        (lambda: IntegerMatrix.identity(2) - 3, TypeError),
        (lambda: IntegerMatrix.identity(2) @ 3, TypeError),
        (lambda: KClass.gamma(2) + "a", TypeError),
        (lambda: "a" - KClass.gamma(2), TypeError),
        (lambda: IntegerMatrix.identity(2) + MultiPoly.constant(2, 1), TypeError),
    ], ids=["truncpoly-float", "constant-float", "multipoly-float", "kclass-times-bool",
            "bool-times-kclass", "truncpoly-times-bool", "bool-times-truncpoly",
            "multipoly-times-bool", "matrix-times-bool", "bool-times-matrix",
            "kclass-plus-int", "kclass-minus-int", "kclass-plus-truncpoly", "matrix-plus-int",
            "matrix-minus-int", "matrix-at-int", "kclass-plus-str", "str-minus-kclass",
            "matrix-plus-multipoly"])
    def test_rejects_inexact_scalars(self, build, error):
        with pytest.raises(error):
            build()

    @settings(max_examples=200, deadline=None)
    @given(ring_pairs(), st.integers(-3, 3))
    def test_derived_operators_follow_the_primitives(self, pair, m):
        # every operator but +, * and the unit comes from _record.Ring
        a, b = pair
        assert a - b == a + b * -1 == -(b - a)
        assert m * a == a * m
        assert a ** 3 == a * a * a
        assert a ** 0 * b == b
        for exponent in (-1, True):
            with pytest.raises(ValueError):
                a ** exponent

    def test_an_int_still_scales_a_class(self):
        assert KClass(1, (0, 1)) * 2 == 2 * KClass(1, (0, 1)) == KClass(1, (0, 2))


class TestPairingMatrix:
    def test_order_zero(self):
        assert pairing_matrix(0).row_lists() == [[1]]

    def test_order_one(self):
        assert pairing_matrix(1).row_lists() == [[0, 1], [1, 0]]

    def test_order_four_antidiagonal(self):
        m = pairing_matrix(4)
        for p in range(5):
            for q in range(5):
                assert m[p, q] == (1 if p + q == 4 else 0)

    def test_unimodular_through_twelve(self):
        for n in range(13):
            assert is_isomorphism(pairing_matrix(n))


class TestMultiPoly:
    def test_elementary_symmetric_two_variables(self):
        e1 = elementary_symmetric(1, 2)
        assert e1 == MultiPoly(2, {(1, 0): 1, (0, 1): 1})
        assert e1.render() == "x1 + x2"

    def test_power_sum(self):
        p2 = power_sum(2, 2)
        assert p2 == MultiPoly(2, {(2, 0): 1, (0, 2): 1})

    def test_elementary_symmetric_vanishes_above_variable_count(self):
        assert elementary_symmetric(3, 2) == MultiPoly.zero(2)

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            MultiPoly(2, {(1, 0): 1}) + MultiPoly(3, {(1, 0, 0): 1})

    def test_substitute_matches_numeric_evaluation(self):
        rng = random.Random(12)
        p = MultiPoly(2, {(1, 0): 1, (0, 1): 2}) ** 3
        values = [elementary_symmetric(1, 3), power_sum(2, 3)]
        composed = p.evaluate(values, MultiPoly.constant(3, 1))
        for _ in range(20):
            point = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            direct = p.evaluate(
                [v.evaluate(point, Fraction(1)) for v in values], Fraction(1)
            )
            assert composed.evaluate(point, Fraction(1)) == direct

    def test_evaluate_in_truncated_ring(self):
        p = MultiPoly(1, {(2,): Fraction(1, 2)})
        x = TruncPoly.monomial(4, 1)
        assert p.evaluate([x], TruncPoly.one(4)) == Fraction(1, 2) * x * x


class TestRendering:
    def test_render_basic(self):
        assert poly(3, 0, 1, Fraction(1, 2), Fraction(1, 6)).render() == \
            "x + 1/2*x^2 + 1/6*x^3"
        assert poly(2, 1, -2, 1).render() == "1 - 2*x + x^2"
        assert TruncPoly.constant(3, 0).render() == "0"
        assert poly(2, 0, -1).render() == "-x"

    def test_parse_loose_input(self):
        assert TruncPoly.parse("1+2x+x^2") == poly(2, 1, 2, 1)
        assert TruncPoly.parse("1 + 2*x + x^2") == poly(2, 1, 2, 1)
        assert TruncPoly.parse("x", order=3) == poly(3, 0, 1)
        assert TruncPoly.parse("3/4") == poly(0, Fraction(3, 4))
        assert TruncPoly.parse("-x + 1/2*x^2") == poly(2, 0, -1, Fraction(1, 2))

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            TruncPoly.parse("")
        with pytest.raises(ValueError):
            TruncPoly.parse("x^3", order=2)
        with pytest.raises(ValueError):
            TruncPoly.parse("y + 1")
        with pytest.raises(ValueError):
            TruncPoly.parse("1/0")

    @pytest.mark.parametrize("text", [
        "1-+x", "1+-x", "1--x", "--x", "1+x+", "1+x-", "-", "+", "1 - + 2x",
        "2*", "2*-x", "1+2*-x", "x*",
    ])
    def test_parse_rejects_stray_signs_and_stars(self, text):
        # every sign must lead a term and every star a variable; a stray
        # one was once dropped, so "1-+x" read as 1 + x
        with pytest.raises(ValueError):
            TruncPoly.parse(text, order=2)

    def test_parse_keeps_single_signs(self):
        assert TruncPoly.parse("+x-1") == poly(1, -1, 1)
        assert TruncPoly.parse("1-2x+3*x^2") == poly(2, 1, -2, 3)

    @settings(max_examples=80, deadline=None)
    @given(trunc_polys())
    def test_roundtrip(self, p):
        assert TruncPoly.parse(p.render(), order=p.order) == p

    def test_multipoly_render_order(self):
        p = MultiPoly(3, {(3, 0, 0): 1, (1, 1, 0): -3, (0, 0, 1): 3})
        assert p.render(["e1", "e2", "e3"]) == "e1^3 - 3*e1*e2 + 3*e3"


# ----------------------------------------------------------------------
# the shared core against the per-class code it replaced
# ----------------------------------------------------------------------
# KClass, TruncPoly and MultiPoly once each had their own renderer, and
# KClass powered by repeated multiplication.  Those versions are kept
# here, verbatim in behaviour, as oracles for truncated_product, power and
# render_sum.


def oracle_kclass_render(coeffs):
    parts = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        magnitude = abs(c)
        if k == 0:
            body = str(magnitude)
        else:
            name = "γ" if k == 1 else f"γ^{k}"
            body = name if magnitude == 1 else f"{magnitude}*{name}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts) if parts else "0"


def oracle_render_term(c, k, var="x"):
    if k == 0:
        return str(c)
    v = var if k == 1 else f"{var}^{k}"
    if c == 1:
        return v
    return f"{c}*{v}"


def oracle_truncpoly_render(coeffs):
    terms = [(k, c) for k, c in enumerate(coeffs) if c != 0]
    if not terms:
        return "0"
    parts = []
    for index, (k, c) in enumerate(terms):
        if index == 0:
            sign, mag = ("-", -c) if c < 0 else ("", c)
        else:
            sign, mag = (" - ", -c) if c < 0 else (" + ", c)
        parts.append(sign + oracle_render_term(mag, k))
    return "".join(parts)


def oracle_multipoly_render(poly, names=None):
    if names is None:
        names = [f"x{i + 1}" for i in range(poly.variable_count)]
    if not poly.terms:
        return "0"
    ordered = sorted(poly.terms, key=lambda e: (-sum(e), tuple(-x for x in e)))
    parts = []
    for index, exps in enumerate(ordered):
        c = poly.terms[exps]
        if index == 0:
            sign, mag = ("-", -c) if c < 0 else ("", c)
        else:
            sign, mag = (" - ", -c) if c < 0 else (" + ", c)
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            parts.append(f"{sign}{mag}")
        elif mag == 1:
            parts.append(sign + "*".join(factors))
        else:
            parts.append(f"{sign}{mag}*" + "*".join(factors))
    return "".join(parts)


def oracle_kclass_power(a, exponent):
    result = KClass.unit(a.n)
    for _ in range(exponent):
        result = result * a
    return result


def naive_truncated_product(a, b):
    n = len(a)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            if i + j < n:
                out[i + j] += a[i] * b[j]
    return out


# 0 and +-1 are the cases the renderer treats specially, so they are drawn often
int_coefficients = st.one_of(st.sampled_from([0, 0, 1, -1]), st.integers(-40, 40))
fraction_coefficients = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(-1, 2)]),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)


def coefficient_lists(elements, max_order=8):
    return st.integers(0, max_order).flatmap(
        lambda n: st.lists(elements, min_size=n + 1, max_size=n + 1))


@st.composite
def kclass_factors(draw, n):
    """A class on CP^n that is all zero, sparse (at most two nonzeros) or dense."""
    kind = draw(st.sampled_from(["zero", "sparse", "dense"]))
    coeffs = [0] * (n + 1)
    if kind == "sparse":
        for k in draw(st.sets(st.integers(0, n), max_size=2)):
            coeffs[k] = draw(st.integers(-40, 40).filter(bool))
    elif kind == "dense":
        coeffs = draw(st.lists(st.integers(-40, 40).filter(bool),
                               min_size=n + 1, max_size=n + 1))
    return KClass(n, tuple(coeffs))


kclass_pairs = st.integers(0, 12).flatmap(lambda n: st.tuples(kclass_factors(n),
                                                             kclass_factors(n)))


@st.composite
def multipolys(draw):
    count = draw(st.integers(0, 3))
    exponents = st.tuples(*[st.integers(0, 3)] * count)
    terms = draw(st.dictionaries(exponents, fraction_coefficients, max_size=6))
    names = draw(st.one_of(
        st.none(),
        st.lists(st.sampled_from(["a", "b", "e1", "e12", "y"]),
                 min_size=count, max_size=count)))
    return MultiPoly(count, terms), names


class TestSharedCore:
    @settings(max_examples=150, deadline=None)
    @given(coefficient_lists(int_coefficients))
    def test_kclass_render_matches_oracle(self, coeffs):
        a = KClass(len(coeffs) - 1, tuple(coeffs))
        assert a.render() == oracle_kclass_render(coeffs)

    @settings(max_examples=150, deadline=None)
    @given(coefficient_lists(fraction_coefficients))
    def test_truncpoly_render_matches_oracle(self, coeffs):
        p = TruncPoly(len(coeffs) - 1, coeffs)
        assert p.render() == oracle_truncpoly_render(p.coeffs)

    @settings(max_examples=150, deadline=None)
    @given(multipolys())
    def test_multipoly_render_matches_oracle(self, poly_and_names):
        poly, names = poly_and_names
        assert poly.render(names) == oracle_multipoly_render(poly, names)

    def test_render_fixed_cases(self):
        assert KClass(3, (-1, 1, -2, 0)).render() == "-1 + γ - 2*γ^2"
        assert KClass(2, (0, 0, 0)).render() == "0"
        assert poly(3, 1, 0, Fraction(-3, 2), -1).render() == "1 - 3/2*x^2 - x^3"
        assert powers_module.render_sum([(-1, ""), (0, "x"), (5, "y")]) == "-1 + 5*y"
        assert powers_module.power_names("γ", 0) == ("",)
        assert powers_module.power_names("x", 3) == ("", "x", "x^2", "x^3")

    @settings(max_examples=200, deadline=None)
    @given(coefficient_lists(int_coefficients, max_order=6), st.integers(0, 8))
    def test_kclass_power_is_the_repeated_product(self, coeffs, exponent):
        a = KClass(len(coeffs) - 1, tuple(coeffs))
        assert a ** exponent == oracle_kclass_power(a, exponent)

    def test_negative_powers_rejected(self):
        for base in (KClass.gamma(2), TruncPoly.monomial(2, 1), MultiPoly(1, {(1,): 1})):
            with pytest.raises(ValueError):
                base ** -1

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 9).flatmap(lambda n: st.tuples(
        st.lists(st.one_of(int_coefficients, fraction_coefficients),
                 min_size=n + 1, max_size=n + 1),
        st.lists(st.one_of(int_coefficients, fraction_coefficients),
                 min_size=n + 1, max_size=n + 1))))
    def test_truncated_product_matches_double_loop(self, pair):
        a, b = pair
        assert powers_module.truncated_product(a, b) == naive_truncated_product(a, b)

    @settings(max_examples=300, deadline=None)
    @given(kclass_pairs)
    def test_k_ring_mul_matches_double_loop_and_validated_class(self, pair):
        # the product skips KClass validation, so it must equal the validated
        # class exactly: same fields, same hash, same repr
        a, b = pair
        product = k_ring_mul(a, b)
        validated = KClass(a.n, tuple(naive_truncated_product(a.coeffs, b.coeffs)))
        assert product == validated
        assert hash(product) == hash(validated)
        assert repr(product) == repr(validated)
        assert type(product.coeffs) is tuple
        assert {type(c) for c in product.coeffs} == {int}

    @pytest.mark.parametrize("other", [2, (0, 1), TruncPoly.monomial(1, 1)], ids=repr)
    def test_k_ring_mul_rejects_a_factor_that_is_not_a_class(self, other):
        # the product is not validated, so its factors must be classes
        with pytest.raises(ValueError):
            k_ring_mul(KClass.gamma(1), other)
        with pytest.raises(ValueError):
            k_ring_mul(other, KClass.gamma(1))
