"""Acceptance suite: one test per headline criterion, each exact.

Every test prints a single PASS/FAIL line (visible with pytest -s) and
enforces its runtime budget where one is stated.  All comparisons are
exact equalities of integers, rationals, or normal-form groups; there are
no tolerances to tune.
"""

import random
import time
from fractions import Fraction
from itertools import product
from math import factorial

from kproj.chern import (
    FormalBundle,
    chern_character,
    line_bundle,
    newton_s,
    tensor_line,
    whitney_sum,
)
from kproj.grothendieck import (
    FiniteCommutativeMonoid,
    FreeCommutativeMonoid,
    completion,
    pair_equivalent,
    universal_factor,
)
from kproj.homology import cohomology, cpn_complex
from kproj.ktheory import (
    KClass,
    Space,
    bott_check,
    bott_matrix,
    ch_matrix,
    chern_character_map,
    k_group_table,
    k_groups,
    reduced_sphere_k,
    replay_induction,
)
from kproj.linalg import FgAbelianGroup, IntegerMatrix, is_isomorphism, smith_normal_form
from kproj.truncpoly import MultiPoly, TruncPoly, pairing_matrix

from oracles import elementary_symmetric, minors_gcd_invariant_factors, power_sum


def report(number, description, ok, elapsed=None):
    stamp = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}{stamp}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_k_group_table_by_induction():
    start = time.perf_counter()
    ok = True
    for n in range(1, 21):
        trace = replay_induction(n)
        for step in trace.steps:
            ok = ok and all(step.exactness)
            ok = ok and step.five_lemma in (None, True)
        for q in range(-3, 4):
            expected = FgAbelianGroup.free(n + 1) if q % 2 == 0 \
                else FgAbelianGroup.trivial()
            ok = ok and k_groups(Space.cpn(n), q) == expected
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(1, "K-groups of projective spaces via the checked induction, "
              "n <= 20, q in [-3, 3]", ok, elapsed)


def test_criterion_02_ring_structure_and_character():
    start = time.perf_counter()
    rng = random.Random(20120)
    ok = True
    for n in range(0, 13):
        gamma = KClass.gamma(n)
        ok = ok and (gamma * gamma ** n) == KClass.zero(n)
        matrix = ch_matrix(n)
        for i in range(n + 1):
            ok = ok and matrix[i][i] == 1
            for k in range(i + 1, n + 1):
                ok = ok and matrix[i][k] == 0
        det = Fraction(1)
        for i in range(n + 1):
            det *= matrix[i][i]
        ok = ok and det == 1
        for _ in range(200):
            a = KClass(n, tuple(rng.randint(-9, 9) for _ in range(n + 1)))
            b = KClass(n, tuple(rng.randint(-9, 9) for _ in range(n + 1)))
            ok = ok and chern_character_map(a + b) == \
                chern_character_map(a) + chern_character_map(b)
            ok = ok and chern_character_map(a * b) == \
                chern_character_map(a) * chern_character_map(b)
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(2, "gamma-power relation, unitriangular character matrix, and the "
              "character ring homomorphism, n <= 12", ok, elapsed)


def test_criterion_03_even_cohomology_through_smith_reduction():
    start = time.perf_counter()
    ok = True
    for n in range(0, 13):
        complex_ = cpn_complex(n)
        for k in range(0, 2 * n + 4):
            expected = FgAbelianGroup.free(1) if (k % 2 == 0 and k <= 2 * n) \
                else FgAbelianGroup.trivial()
            ok = ok and cohomology(complex_, k) == expected
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 2.0
    report(3, "cohomology of projective spaces from the cell complex, n <= 12",
           ok, elapsed)


def test_criterion_04_pairing_unimodular():
    ok = all(is_isomorphism(pairing_matrix(n)) for n in range(13))
    report(4, "top-degree multiplication pairing is unimodular, n <= 12", ok)


def test_criterion_05_newton_polynomials():
    start = time.perf_counter()
    ok = newton_s(1).render() == "e1"
    ok = ok and newton_s(2).render() == "e1^2 - 2*e2"
    ok = ok and newton_s(3).render() == "e1^3 - 3*e1*e2 + 3*e3"
    for n in range(1, 6):
        elementary = {i: elementary_symmetric(i, n) for i in range(1, 11)}
        powers = {}

        def epow(i, e):
            key = (i, e)
            if key not in powers:
                powers[key] = elementary[i] if e == 1 else epow(i, e - 1) * elementary[i]
            return powers[key]

        for k in range(1, 11):
            # literal expansion of s_k at the elementary symmetric values
            total = MultiPoly.zero(n)
            for exps, c in newton_s(k).expression.terms.items():
                term = MultiPoly.constant(n, c)
                for i, e in enumerate(exps, start=1):
                    if e:
                        term = term * epow(i, e)
                total = total + term
            ok = ok and total == power_sum(k, n)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(5, "Newton polynomials match brute-force expansion, k <= 10 in up "
              "to 5 variables", ok, elapsed)


def test_criterion_06_character_calculus():
    rng = random.Random(606)
    ok = chern_character(line_bundle(12), 12) == \
        TruncPoly(12, [Fraction(1, factorial(k)) for k in range(13)])
    for _ in range(200):
        order = rng.randint(0, 6)
        def draw():
            rank = rng.randint(0, 4)
            coeffs = [1] + [rng.randint(-3, 3) if k <= rank else 0
                            for k in range(1, order + 1)]
            return FormalBundle(rank, TruncPoly(order, coeffs))
        a, b = draw(), draw()
        ok = ok and chern_character(whitney_sum(a, b), order) == \
            chern_character(a, order) + chern_character(b, order)
        if order >= 1:
            la = line_bundle(order, rng.randint(-3, 3))
            lb = line_bundle(order, rng.randint(-3, 3))
            ok = ok and chern_character(tensor_line(la, lb), order) == \
                chern_character(la, order) * chern_character(lb, order)
    # splitting-principle oracle: with formal roots x_1 .. x_m and total
    # class prod(1 + x_i), the character assembled through the Newton route
    # must equal sum_i exp(x_i), expanded literally through total degree 8
    for roots in range(1, 5):
        via_newton = MultiPoly.constant(roots, roots)
        for k in range(1, 9):
            values = [elementary_symmetric(i, roots) for i in range(1, k + 1)]
            via_newton = via_newton + Fraction(1, factorial(k)) * \
                newton_s(k).expression.evaluate(values, MultiPoly.constant(roots, 1))
        sum_of_exponentials = MultiPoly.constant(roots, roots)
        for k in range(1, 9):
            sum_of_exponentials = sum_of_exponentials + \
                Fraction(1, factorial(k)) * power_sum(k, roots)
        ok = ok and via_newton == sum_of_exponentials
    report(6, "exponential character of the tautological line, additivity and "
              "multiplicativity, splitting-principle oracle", ok)


def test_criterion_07_group_completion():
    start = time.perf_counter()
    naturals = FreeCommutativeMonoid(1)
    g = completion(naturals)
    ok = g.carrier == FgAbelianGroup.free(1)

    invariant_lists = [[2], [3], [4], [2, 2], [5], [6], [7], [8], [2, 4],
                       [2, 2, 2]]
    for invariants in invariant_lists:
        monoid = FiniteCommutativeMonoid.from_invariants(invariants)
        expected = FgAbelianGroup.trivial()
        for d in invariants:
            expected = expected.direct_sum(FgAbelianGroup.cyclic(d))
        ok = ok and completion(monoid).carrier == expected

    # factorizations into Z and Z/2 .. Z/8
    for image in range(-2, 3):
        theta = universal_factor(naturals, g, FgAbelianGroup.free(1), [(image,)])
        for x in range(5):
            ok = ok and theta(g.class_of((x,))) == (image * x,)
    for d in range(2, 9):
        target = FgAbelianGroup.cyclic(d)
        for m in (2, 3, 4):
            source = FiniteCommutativeMonoid.cyclic_group(m)
            sg = completion(source)
            for s in range(d):
                if (s * m) % d:
                    continue
                psi = [((s * x) % d,) for x in range(m)]
                theta = universal_factor(source, sg, target, psi)
                for x in range(m):
                    ok = ok and theta(sg.class_of(x)) == psi[x]

    # equivalence axioms and well-definedness, exhaustively at small sizes
    def truncated(cap):
        table = tuple(tuple(min(i + j, cap) for j in range(cap + 1))
                      for i in range(cap + 1))
        return FiniteCommutativeMonoid(table, 0)

    small = [FiniteCommutativeMonoid.cyclic_group(n) for n in (1, 2, 3, 4, 5)]
    small += [truncated(cap) for cap in (1, 2, 3, 4)]
    small.append(FiniteCommutativeMonoid.from_invariants([2, 2]))
    for monoid in small:
        pairs = list(product(range(monoid.size), repeat=2))
        related = {(p, q) for p in pairs for q in pairs
                   if pair_equivalent(monoid, *p, *q)}
        ok = ok and all((p, p) in related for p in pairs)
        ok = ok and all((q, p) in related for p, q in related)
        for p, q in related:
            for r in pairs:
                if (q, r) in related:
                    ok = ok and (p, r) in related
        for p1, p2 in related:
            for q in pairs:
                left = (monoid.add(p1[0], q[0]), monoid.add(p1[1], q[1]))
                right = (monoid.add(p2[0], q[0]), monoid.add(p2[1], q[1]))
                ok = ok and pair_equivalent(monoid, *left, *right)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(7, "group completion: integers from the naturals, groups complete "
              "to themselves, universal factorizations, exhaustive axiom "
              "checks", ok, elapsed)


def test_criterion_08_periodicity_instance():
    ok = bott_check() is True
    ok = ok and bott_matrix().row_lists() == [[1, 1], [0, 1]]
    report(8, "the basis-change matrix (1, hopf) on the 2-sphere is "
              "unimodular", ok)


def test_criterion_09_smith_engine():
    start = time.perf_counter()
    rng = random.Random(909)
    ok = True
    for _ in range(500):
        rows = rng.randrange(0, 7)
        cols = rng.randrange(0, 7)
        a = IntegerMatrix(rows, cols,
                          tuple(rng.randint(-9, 9) for _ in range(rows * cols)))
        form = smith_normal_form(a)
        ok = ok and form.u @ a @ form.v == form.diagonal_matrix()
        ok = ok and abs(form.u.det()) == 1 and abs(form.v.det()) == 1
        ok = ok and all(t % s == 0 for s, t in zip(form.d, form.d[1:]))
        ok = ok and list(form.d) == minors_gcd_invariant_factors(a.row_lists())
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(9, "500 random Smith decompositions verified against the "
              "determinant-divisor oracle", ok, elapsed)


def test_criterion_10_axiom_table_consistency():
    # the sphere values enter only through the axiom table; every table
    # built on top of them must satisfy two-periodicity by construction
    ok = reduced_sphere_k(0) == FgAbelianGroup.free(1)
    ok = ok and reduced_sphere_k(1) == FgAbelianGroup.trivial()
    spaces = [Space.point()]
    spaces += [Space.sphere(m) for m in range(1, 7)]
    spaces += [Space.cpn(n) for n in range(0, 7)]
    for space in spaces:
        table = k_group_table(space, -4, 4)
        for q in range(-4, 3):
            ok = ok and table.group(q) == table.group(q + 2)
    report(10, "sphere K-theory enters only as the axiom table and every "
               "K-group table is two-periodic", ok)
