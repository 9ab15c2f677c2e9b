import inspect
import json
import random
import sys
import tracemalloc
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kproj._certify as certify_module
import kproj._elimination as elimination_module
import kproj.homology as homology_module
import kproj.ktheory as ktheory_module
import kproj.linalg as linalg_module
from kproj._certify import stages
from kproj.cli import main
from kproj.homology import cohomology, cpn_complex
from kproj.ktheory import (
    InductionStep,
    KClass,
    KGroupTable,
    Space,
    bott_check,
    bott_matrix,
    ch_matrix,
    chern_character_map,
    k_group_table,
    k_groups,
    k_ring_mul,
    reduced_sphere_k,
    replay_induction,
)
from kproj.linalg import FgAbelianGroup
from kproj.truncpoly import TruncPoly

from oracles import exp_nilpotent, stirling_character

Z = FgAbelianGroup.free(1)
ZERO = FgAbelianGroup.trivial()


def random_class(rng, n):
    return KClass(n, tuple(rng.randint(-9, 9) for _ in range(n + 1)))


class TestSpace:
    def test_parse(self):
        assert Space.parse("cpn:3") == Space.cpn(3)
        assert Space.parse("sphere:2") == Space.sphere(2)
        assert Space.parse("point") == Space.point()

    def test_parse_errors(self):
        for bad in ("cpn", "cpn:x", "torus:2", "sphere:0"):
            with pytest.raises(ValueError):
                Space.parse(bad)

    def test_str_roundtrip(self):
        for s in (Space.cpn(0), Space.cpn(4), Space.sphere(6), Space.point()):
            assert Space.parse(str(s)) == s


class TestKClassRing:
    def test_truncation_relation(self):
        for n in range(1, 8):
            g = KClass.gamma(n)
            assert g * g ** n == KClass.zero(n)

    def test_unit_is_neutral(self):
        rng = random.Random(3)
        for n in range(0, 6):
            a = random_class(rng, n)
            assert KClass.unit(n) * a == a

    def test_hopf_square_on_the_line(self):
        h = KClass.hopf(1)
        assert h * h == KClass(1, (1, 2))

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            k_ring_mul(KClass.unit(1), KClass.unit(2))

    def test_ring_axioms_random(self):
        rng = random.Random(44)
        for _ in range(100):
            n = rng.randint(0, 6)
            a, b, c = (random_class(rng, n) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_virtual_dimension_and_reduction(self):
        # the virtual dimension, coeffs[0], is the degree-0 part of the
        # character, and a reduced class such as γ has none
        assert chern_character_map(KClass(2, (3, 1, -2))).coefficient(0) == 3
        assert chern_character_map(KClass.gamma(2)).coefficient(0) == 0

    def test_render(self):
        assert KClass(2, (1, -1, 2)).render() == "1 - \u03b3 + 2*\u03b3^2"
        assert KClass.zero(1).render() == "0"


class TestCharacterMap:
    def test_gamma_on_projective_three_space(self):
        got = chern_character_map(KClass.gamma(3))
        assert got == TruncPoly(3, (0, 1, Fraction(1, 2), Fraction(1, 6)))

    def test_gamma_on_the_projective_line(self):
        # x, the integral generator of the top cohomology of the 2-sphere
        assert chern_character_map(KClass.gamma(1)) == TruncPoly(1, (0, 1))

    def test_leading_terms_of_gamma_powers(self):
        for n in (6, 9):
            for k in range(1, n):
                got = chern_character_map(KClass.gamma(n) ** k)
                assert got.coefficient(k) == 1
                assert got.coefficient(k + 1) == Fraction(k, 2)
                for low in range(k):
                    assert got.coefficient(low) == 0

    def test_power_beyond_relation_vanishes(self):
        for n in range(1, 7):
            g = KClass.gamma(n)
            assert chern_character_map(g ** (n + 1)) == TruncPoly.constant(n, 0)

    def test_ring_homomorphism(self):
        rng = random.Random(1234)
        for n in range(0, 9):
            for _ in range(40):
                a = random_class(rng, n)
                b = random_class(rng, n)
                assert chern_character_map(a + b) == \
                    chern_character_map(a) + chern_character_map(b)
                assert chern_character_map(a * b) == \
                    chern_character_map(a) * chern_character_map(b)

    def test_gamma_powers_match_repeated_products(self):
        # column k of the character matrix against the k-th power of
        # exp(x) - 1, entry by entry and as Fractions
        for n in range(21):
            base = (exp_nilpotent(TruncPoly.monomial(n, 1)) - TruncPoly.one(n)
                    if n else TruncPoly.constant(0, 0))
            matrix = ch_matrix(n)
            power = TruncPoly.one(n)
            for k in range(n + 1):
                column = tuple(row[k] for row in matrix)
                assert column == power.coeffs
                assert all(type(e) is Fraction for e in column)
                power = power * base

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 24).flatmap(
        lambda n: st.lists(st.sampled_from([0, 0, 0, 1, -1, 7, -30]),
                           min_size=n + 1, max_size=n + 1)))
    def test_character_is_the_sum_of_powers_of_exp_minus_one(self, coeffs):
        n = len(coeffs) - 1
        base = (exp_nilpotent(TruncPoly.monomial(n, 1)) - TruncPoly.one(n)
                if n else TruncPoly.constant(0, 0))
        expected, power = TruncPoly.constant(n, 0), TruncPoly.one(n)
        for c in coeffs:
            expected = expected + power * c
            power = power * base
        assert chern_character_map(KClass(n, tuple(coeffs))) == expected

    @settings(max_examples=25, deadline=None)
    @given(st.integers(25, 200).flatmap(
        lambda n: st.lists(st.one_of(st.sampled_from([0, 0, 0, 1, -1]), st.integers(-10**6, 10**6)),
                           min_size=n + 1, max_size=n + 1)))
    def test_character_matches_the_stirling_route(self, coeffs):
        # sizes where the exp-series oracle above is too slow
        n = len(coeffs) - 1
        got = chern_character_map(KClass(n, tuple(coeffs)))
        assert list(got.coeffs) == stirling_character(coeffs)

    def test_closed_forms_at_the_order_bound(self):
        n = 1000
        # ch(γ) = exp(x) - 1
        assert chern_character_map(KClass.gamma(n)).coeffs == \
            (0,) + tuple(Fraction(1, factorial(m)) for m in range(1, n + 1))
        # (exp(x) - 1)^n = x^n + higher terms, all truncated
        top = KClass(n, (0,) * n + (1,))
        assert chern_character_map(top).coeffs == (0,) * n + (1,)

    def test_the_character_keeps_nothing_once_its_result_is_dropped(self):
        a = random_class(random.Random(400), 400)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            chern_character_map(a)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 2_000_000


class TestCharacterMatrix:
    def test_order_one(self):
        assert ch_matrix(1) == ((Fraction(1), Fraction(0)),
                                (Fraction(0), Fraction(1)))

    def test_order_two(self):
        expected = (
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1, 2), Fraction(1)),
        )
        assert ch_matrix(2) == expected

    def test_lower_unitriangular_through_twelve(self):
        for n in range(13):
            m = ch_matrix(n)
            for i in range(n + 1):
                assert m[i][i] == 1
                for k in range(i + 1, n + 1):
                    assert m[i][k] == 0

    @settings(max_examples=31, deadline=None)
    @given(st.integers(0, 30))
    def test_columns_are_characters_of_gamma_powers(self, n):
        matrix = ch_matrix(n)
        for k in range(n + 1):
            column = tuple(row[k] for row in matrix)
            assert column == chern_character_map(KClass.gamma(n) ** k).coeffs

    def test_determinant_is_one(self):
        # triangular, so the determinant is the diagonal product
        for n in range(13):
            m = ch_matrix(n)
            det = Fraction(1)
            for i in range(n + 1):
                det *= m[i][i]
            assert det == 1


class TestSphereTable:
    def test_axiom_values(self):
        assert reduced_sphere_k(2) == Z
        assert reduced_sphere_k(3) == ZERO
        assert reduced_sphere_k(0) == Z

    def test_sphere_k_groups(self):
        assert k_groups(Space.sphere(2), 0) == FgAbelianGroup.free(2)
        assert k_groups(Space.sphere(2), 1) == ZERO
        assert k_groups(Space.sphere(3), 0) == Z
        assert k_groups(Space.sphere(3), 1) == Z

    def test_point(self):
        assert k_groups(Space.point(), 0) == Z
        assert k_groups(Space.point(), 1) == ZERO
        assert k_groups(Space.cpn(0), -2) == Z

    def test_periodicity_in_q(self):
        for space in (Space.sphere(2), Space.sphere(5), Space.cpn(3)):
            for q in range(-4, 5):
                assert k_groups(space, q) == k_groups(space, q + 2)


class TestKGroupTable:
    def test_tables_are_periodic(self):
        for space in (Space.point(), Space.sphere(2), Space.sphere(3),
                      Space.cpn(1), Space.cpn(4)):
            table = k_group_table(space, -4, 4)
            degrees = [q for q, _ in table.entries]
            for q in degrees:
                if q + 2 in degrees:
                    assert table.group(q) == table.group(q + 2)

    def test_one_replay_per_table(self, monkeypatch):
        # the groups come from one certification; the old replay runs only for trace
        certified, replayed = [], []

        def counting_stages(n):
            certified.append(n)
            return stages(n)

        def counting_replay(n):
            replayed.append(n)
            return replay_induction(n)

        monkeypatch.setattr(certify_module, "stages", counting_stages)
        monkeypatch.setattr(ktheory_module, "replay_induction", counting_replay)
        table = k_group_table(Space.cpn(3), -4, 4)
        assert certified == [3]
        assert replayed == []
        assert table.group(0) == FgAbelianGroup.free(4)

    def test_corrupted_table_rejected(self):
        with pytest.raises(ValueError):
            KGroupTable(Space.sphere(2), ((0, Z), (2, ZERO)))


def trace_document(capsys, n):
    """The result of the machine document that `kproj trace N` prints."""
    assert main(["--format", "machine", "trace", str(n)]) == 0
    return json.loads(capsys.readouterr().out)["result"]


class TestReplayInduction:
    def test_base_case(self):
        trace = replay_induction(1)
        assert trace.k0 == FgAbelianGroup.free(2)
        assert trace.k1 == ZERO
        assert trace.reduced_k0 == Z

    def test_projective_three_space(self):
        trace = replay_induction(3)
        assert trace.k0 == FgAbelianGroup.free(4)
        assert trace.k1 == ZERO
        extension_steps = [s for s in trace.steps if s.kind == "k0-extension"]
        vanishing_steps = [s for s in trace.steps if s.kind == "k1-vanishing"]
        assert len(extension_steps) == 2
        assert len(vanishing_steps) == 2

    def test_every_step_passes_its_checks(self):
        for n in range(1, 7):
            trace = replay_induction(n)
            for step in trace.steps:
                assert all(step.exactness)
                assert step.five_lemma in (None, True)

    def test_closed_form(self):
        for n in range(1, 21):
            trace = replay_induction(n)
            assert trace.k0 == FgAbelianGroup.free(n + 1)
            assert trace.k1 == ZERO

    def test_axiom_uses_are_marked(self):
        trace = replay_induction(4)
        marked = [s for s in trace.steps
                  if any("sphere-axiom-table" in r for r in s.rules)]
        assert len(marked) >= 7  # the base plus both windows at each stage

    def test_replay_needs_no_deep_stack(self):
        # a recursive replay needs a frame per stage; this limit leaves
        # room for one window's checks but not for 40 stages
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 30)
        try:
            trace = replay_induction(40)
        finally:
            sys.setrecursionlimit(limit)
        assert trace.k0 == FgAbelianGroup.free(41)

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            replay_induction(0)

    def test_a_wrong_splitting_conclusion_breaks_its_window(self, monkeypatch):
        # the window is built around the middle group the step concludes, so
        # a conclusion with a spare Z summand cannot pass as Z^(k+1)
        def one_summand_too_many(sub, quot):
            return sub.direct_sum(quot).direct_sum(Z)

        monkeypatch.setattr(homology_module, "split_free_extension", one_summand_too_many)
        with pytest.raises(ValueError, match="map 1 has the wrong shape"):
            replay_induction(3)

    def test_trace_serialization_roundtrips_through_json(self, capsys):
        # each step of the document rebuilds its record, and each group its invariants
        trace = replay_induction(2)
        result = trace_document(capsys, 2)
        assert result["space"] == "cpn:2"
        steps = tuple(InductionStep(**{f: tuple(v) if type(v) is list else v
                                       for f, v in entry.items()})
                      for entry in result["steps"])
        assert steps == trace.steps
        for name in ("reduced_k0", "k0", "k1"):
            entry = result[name]
            assert FgAbelianGroup(entry["free_rank"], entry["torsion"]) == getattr(trace, name)
            assert entry["text"] == getattr(trace, name).render()

    def test_trace_matches_the_golden_file(self, capsys):
        golden = json.loads((Path(__file__).parent / "data" / "trace_cpn2.json").read_text())
        result = trace_document(capsys, 2)
        assert result.pop("kind") == "induction-trace"
        assert result == golden

    def test_trace_golden_fields(self, capsys):
        step = trace_document(capsys, 2)["steps"][1]
        assert step == {
            "index": 1,
            "kind": "k0-extension",
            "stage": 1,
            "window": ["0", "Z", "Z^2", "Z", "0"],
            "rules": [
                "inductive-hypothesis: reduced K(CP^1) = Z",
                "sphere-axiom-table: reduced K(S^4) = Z",
                "suspension-tail: K^1(CP^1) = 0",
                "split-free-extension",
            ],
            "exactness": [True, True, True],
            "five_lemma": True,
            "conclusion": "reduced K(CP^2) = Z^2",
        }


class TestKGroups:
    def test_even_degrees(self):
        assert k_groups(Space.cpn(2), 0) == FgAbelianGroup.free(3)
        assert k_groups(Space.cpn(4), 0) == FgAbelianGroup.free(5)

    def test_odd_degrees(self):
        assert k_groups(Space.cpn(5), -3) == ZERO
        assert k_groups(Space.cpn(5), 1) == ZERO

    def test_rank_matches_even_cohomology(self):
        for n in range(0, 9):
            c = cpn_complex(n)
            even_rank = sum(cohomology(c, k).free_rank
                            for k in range(0, 2 * n + 1, 2))
            assert k_groups(Space.cpn(n), 0).free_rank == even_rank


def general_elimination_must_not_run(*args):
    raise AssertionError("the general elimination ran")


def replay_from_cleared_caches(capsys):
    """replay_induction(20) and the document of `kproj kgroups cpn:12`, each computed afresh."""
    linalg_module.smith_normal_form.cache_clear()
    trace = replay_induction(20)
    linalg_module.smith_normal_form.cache_clear()
    assert main(["--format", "machine", "kgroups", "cpn:12"]) == 0
    return trace, capsys.readouterr().out


def test_the_replay_runs_in_closed_form_only(monkeypatch, capsys):
    # so a replay process never needs _elimination: see tests/test_lazy_imports.py
    expected = replay_from_cleared_caches(capsys)
    for name in ("_bareiss", "_invariant_factors", "_eliminate"):
        monkeypatch.setattr(elimination_module, name, general_elimination_must_not_run)
    try:
        assert replay_from_cleared_caches(capsys) == expected
    finally:
        linalg_module.smith_normal_form.cache_clear()


class TestBott:
    def test_matrix(self):
        assert bott_matrix().row_lists() == [[1, 1], [0, 1]]

    def test_check(self):
        assert bott_check() is True

