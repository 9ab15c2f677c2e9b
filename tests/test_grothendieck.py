import math
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kproj.linalg as linalg_module
from kproj.grothendieck import (
    FiniteCommutativeMonoid,
    FreeCommutativeMonoid,
    _associativity_failure,
    _classify_group_table,
    _generators,
    completion,
    pair_equivalent,
    universal_factor,
)
from kproj.linalg import FgAbelianGroup, IntegerMatrix, cokernel, smith_normal_form

from oracles import chain_from_diagonal, first_nonassociative_triple, full_group_presentation


def truncated_addition_monoid(cap):
    """{0, .., cap} with a + b capped at cap; cap absorbs everything."""
    table = tuple(tuple(min(i + j, cap) for j in range(cap + 1))
                  for i in range(cap + 1))
    return FiniteCommutativeMonoid(table, 0)


def max_semilattice(n):
    table = tuple(tuple(max(i, j) for j in range(n)) for i in range(n))
    return FiniteCommutativeMonoid(table, 0)


def monogenic(index, period):
    """<a | (index + period)a = index*a> with 0 adjoined: element k is ka."""
    n = index + period

    def reduce(k):
        return k if k < n else index + (k - index) % period
    table = tuple(tuple(reduce(i + j) for j in range(n)) for i in range(n))
    return FiniteCommutativeMonoid(table, 0)


def relabelled_table(table, perm):
    """The table with element x renamed perm[x]."""
    inverse = sorted(range(len(perm)), key=perm.__getitem__)
    out = [()] * len(table)
    for x, row in enumerate(table):
        out[perm[x]] = tuple(perm[row[i]] for i in inverse)
    return tuple(out)


def relabel(m, perm):
    """The same monoid with element x renamed perm[x]."""
    return FiniteCommutativeMonoid(relabelled_table(m.table, perm), perm[m.identity])


FACTORS = st.one_of(
    st.builds(monogenic, st.integers(1, 4), st.integers(1, 4)),
    st.builds(FiniteCommutativeMonoid.cyclic_group, st.integers(1, 6)),
    st.builds(truncated_addition_monoid, st.integers(1, 5)),
    st.builds(max_semilattice, st.integers(1, 6)),
)


@st.composite
def small_monoids(draw, max_size=12):
    """One factor, or the product of two if it has <= max_size elements, relabelled."""
    m = draw(FACTORS)
    other = draw(st.none() | FACTORS)
    if other is not None and m.size * other.size <= max_size:
        m = FiniteCommutativeMonoid.product(m, other)
    return relabel(m, draw(st.permutations(range(m.size))))


ABSORBING = truncated_addition_monoid(1)  # {e, a} with a + a = a

CATALOG = [
    FiniteCommutativeMonoid.cyclic_group(1),
    FiniteCommutativeMonoid.cyclic_group(2),
    FiniteCommutativeMonoid.cyclic_group(3),
    FiniteCommutativeMonoid.cyclic_group(4),
    FiniteCommutativeMonoid.from_invariants([2, 2]),
    ABSORBING,
    truncated_addition_monoid(2),
    truncated_addition_monoid(3),
    max_semilattice(3),
    max_semilattice(4),
    FiniteCommutativeMonoid.cyclic_group(6),
]


def cyclic_sum_table(orders):
    """Cayley table of Z/n1 + .. + Z/nk, with (a1, .., ak) at index ((a1 n2 + a2) n3 + ..) + ak."""
    table = [[0]]
    for m in orders:
        table = [[table[x][y] * m + (j + k) % m for y in range(len(table)) for k in range(m)]
                 for x in range(len(table)) for j in range(m)]
    return table


@st.composite
def abelian_groups(draw, max_order=288):
    """Orders n1, .., nk with product at most max_order, the table of their sum
    relabelled, and the label of its zero."""
    orders = []
    while 2 * math.prod(orders) <= max_order and draw(st.booleans()):
        room = max_order // math.prod(orders)
        orders.append(draw(st.integers(2, min(room, 4)) | st.integers(2, room)))
    perm = draw(st.permutations(range(math.prod(orders))))
    return orders, relabelled_table(cyclic_sum_table(orders), perm), perm[0]


@st.composite
def tables_off_by_one_entry(draw):
    """(table, identity): a small monoid with its (x, y) and (y, x) entries replaced.

    Neither x nor y is the identity, so the table stays commutative with
    the same identity, and only associativity can fail.
    """
    m = draw(small_monoids().filter(lambda m: m.size > 1))
    others = st.sampled_from([x for x in range(m.size) if x != m.identity])
    x, y, value = draw(others), draw(others), draw(st.integers(0, m.size - 1))
    table = [list(row) for row in m.table]
    table[x][y] = table[y][x] = value
    return tuple(map(tuple, table)), m.identity


class TestMonoidConstruction:
    def test_rejects_noncommutative(self):
        table = ((0, 1), (0, 1))
        with pytest.raises(ValueError):
            FiniteCommutativeMonoid(table, 0)

    def test_rejects_nonassociative(self):
        # commutative magma on 3 elements that fails associativity
        table = ((0, 1, 2), (1, 0, 0), (2, 0, 1))
        with pytest.raises(ValueError):
            FiniteCommutativeMonoid(table, 0)

    @settings(max_examples=200, deadline=None)
    @given(tables_off_by_one_entry())
    def test_lights_test_agrees_with_every_triple(self, case):
        table, identity = case
        failure = first_nonassociative_triple(table)
        assert (_associativity_failure(table, _generators(table)) is None) == (failure is None)
        if failure is None:
            assert FiniteCommutativeMonoid(table, identity).table == table
        else:
            with pytest.raises(ValueError) as info:
                FiniteCommutativeMonoid(table, identity)
            assert str(info.value) == f"table is not associative at {failure}"

    @settings(max_examples=30, deadline=None)
    @given(abelian_groups())
    def test_a_group_needs_at_most_log2_of_its_order_plus_one_generators(self, case):
        _, table, _ = case
        assert len(_generators(table)) <= len(table).bit_length()

    def test_rejects_bad_identity(self):
        table = ((0, 0), (0, 0))
        with pytest.raises(ValueError):
            FiniteCommutativeMonoid(table, 1)

    def test_rejects_empty_table(self):
        with pytest.raises(ValueError):
            FiniteCommutativeMonoid((), 0)

    def test_identity_need_not_be_element_zero(self):
        # the two-element group written with the identity in slot 1
        m = FiniteCommutativeMonoid(((1, 0), (0, 1)), 1)
        assert completion(m).carrier == FgAbelianGroup(0, (2,))

    def test_text_roundtrip(self):
        text = "3 0\n0 1 2\n1 2 0\n2 0 1\n"
        assert FiniteCommutativeMonoid.from_text(text) == FiniteCommutativeMonoid.cyclic_group(3)


class TestPairEquivalence:
    def test_free_monoid_cancellative(self):
        free = FreeCommutativeMonoid(1)
        assert pair_equivalent(free, (3,), (1,), (5,), (3,))
        assert not pair_equivalent(free, (3,), (1,), (5,), (4,))

    def test_diagonal_pairs_coincide(self):
        for m in CATALOG:
            for x in range(m.size):
                for y in range(m.size):
                    assert pair_equivalent(m, x, x, y, y)

    def test_absorber_identifies_swapped_pair(self):
        assert pair_equivalent(ABSORBING, 0, 1, 1, 0)

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            pair_equivalent(ABSORBING, 0, 1, 2, 0)

    def test_equivalence_axioms_exhaustively(self):
        for m in CATALOG:
            if m.size > 6:
                continue
            pairs = list(product(range(m.size), repeat=2))
            for p in pairs:
                assert pair_equivalent(m, *p, *p)
            related = {(p, q) for p in pairs for q in pairs
                       if pair_equivalent(m, *p, *q)}
            for p, q in related:
                assert (q, p) in related
            for p, q in related:
                for r in pairs:
                    if (q, r) in related:
                        assert (p, r) in related


class TestCompletion:
    def test_free_rank_one_gives_integers(self):
        g = completion(FreeCommutativeMonoid(1))
        assert g.carrier == FgAbelianGroup.free(1)
        assert g.class_of((3,)) == (3,)
        assert g.class_of_pair((1,), (4,)) == (-3,)

    def test_group_completes_to_itself(self):
        g = completion(FiniteCommutativeMonoid.cyclic_group(2))
        assert g.carrier == FgAbelianGroup(0, (2,))

    def test_a_group_is_its_own_least_ideal_and_keeps_its_table(self):
        # Z/5 with element x renamed (2x + 3) mod 5, so the identity is 3
        name = {x: (2 * x + 3) % 5 for x in range(5)}
        table = [[0] * 5 for _ in range(5)]
        for x in range(5):
            for y in range(5):
                table[name[x]][name[y]] = name[(x + y) % 5]
        for m in (FiniteCommutativeMonoid(table, 3),
                  FiniteCommutativeMonoid.from_invariants([2, 4])):
            g = completion(m)
            assert g._add_table is m.table
            assert [g.class_of_pair(x, m.identity) for x in range(m.size)] == list(range(m.size))
            assert all(g.add(g.class_of(x), g.class_of(y)) == g.class_of(m.add(x, y))
                       for x in range(m.size) for y in range(m.size))

    def test_absorbing_monoid_collapses(self):
        g = completion(ABSORBING)
        assert g.carrier == FgAbelianGroup.trivial()
        assert g.class_count == 1

    def test_semilattices_collapse(self):
        for m in (truncated_addition_monoid(3), max_semilattice(4)):
            assert completion(m).carrier == FgAbelianGroup.trivial()

    def test_every_abelian_group_up_to_order_eight(self):
        invariant_lists = [[2], [3], [4], [2, 2], [5], [6], [7], [8], [2, 4],
                           [2, 2, 2]]
        for invariants in invariant_lists:
            m = FiniteCommutativeMonoid.from_invariants(invariants)
            expected = FgAbelianGroup.trivial()
            for d in invariants:
                expected = expected.direct_sum(FgAbelianGroup.cyclic(d))
            assert completion(m).carrier == expected

    def test_difference_law(self):
        # class_of(x) - class_of(y) is the class of the pair (x, y)
        for m in CATALOG:
            if m.size > 4:
                continue
            g = completion(m)
            for x in range(m.size):
                for y in range(m.size):
                    assert g.add(g.class_of_pair(x, y), g.class_of(y)) == g.class_of(x)

    def test_inverse_law(self):
        for m in CATALOG:
            if m.size > 4:
                continue
            g = completion(m)
            zero = g.class_of(m.identity)
            for x in range(m.size):
                for y in range(m.size):
                    assert g.add(g.class_of_pair(x, y), g.class_of_pair(y, x)) == zero

    def test_addition_well_defined_exhaustively(self):
        for m in CATALOG:
            if m.size > 5:
                continue
            g = completion(m)
            pairs = list(product(range(m.size), repeat=2))
            for p1 in pairs:
                for p2 in pairs:
                    if not pair_equivalent(m, *p1, *p2):
                        continue
                    for q in pairs:
                        left = (m.add(p1[0], q[0]), m.add(p1[1], q[1]))
                        right = (m.add(p2[0], q[0]), m.add(p2[1], q[1]))
                        assert pair_equivalent(m, *left, *right)


class TestCompletionClasses:
    """The class numbering against the defining relation pair_equivalent."""

    @settings(max_examples=60, deadline=None)
    @given(small_monoids())
    def test_classes_are_the_relation(self, m):
        g = completion(m)
        pairs = list(product(range(m.size), repeat=2))
        for i, p in enumerate(pairs):
            for q in pairs[i:]:
                same = g.class_of_pair(*p) == g.class_of_pair(*q)
                assert same == pair_equivalent(m, *p, *q), (p, q)
        assert {g.class_of_pair(*p) for p in pairs} == set(range(g.class_count))
        assert g.carrier.free_rank == 0
        assert math.prod(g.carrier.torsion) == g.class_count

    @settings(max_examples=100, deadline=None)
    @given(small_monoids(max_size=8))
    def test_arithmetic_follows_pairs(self, m):
        g = completion(m)
        pairs = list(product(range(m.size), repeat=2))
        for x, y in pairs:
            for u, v in pairs:
                assert (g.add(g.class_of_pair(x, y), g.class_of_pair(u, v))
                        == g.class_of_pair(m.add(x, u), m.add(y, v)))

    @settings(max_examples=60, deadline=None)
    @given(small_monoids(), st.data())
    def test_bad_indices_raise_value_error(self, m, data):
        # class and element indices are ints in range; a negative one must
        # not wrap and a float, bool or string must not reach the tables
        g = completion(m)
        theta = universal_factor(m, g, FgAbelianGroup.free(1), [(0,)] * m.size)

        def bad(size):
            return data.draw(st.one_of(
                st.integers(max_value=-1), st.integers(min_value=size),
                st.integers(0, size - 1).map(float), st.booleans(), st.none(),
                st.just("0")))

        for call in (lambda i: g.add(i, 0), lambda i: g.add(0, i), theta):
            with pytest.raises(ValueError, match="invalid class index"):
                call(bad(g.class_count))
        for call in (lambda i: g.class_of_pair(i, 0), lambda i: g.class_of_pair(0, i)):
            with pytest.raises(ValueError, match="invalid element index"):
                call(bad(m.size))

    @pytest.mark.parametrize("index, period, invariants", [
        (3, 4, [4]), (2, 6, [6]), (4, 1, []), (1, 4, [4]), (2, 2, [2]),
    ])
    def test_monogenic_completes_to_its_cycle(self, index, period, invariants):
        # the least ideal is the cycle {index*a, .., (index + period - 1)a},
        # whose identity is neither element 0 nor the monoid's identity
        g = completion(monogenic(index, period))
        assert g.class_count == period
        assert g.carrier == FgAbelianGroup(0, tuple(invariants))

    def test_relabelled_product_with_nontrivial_kernel(self):
        m = FiniteCommutativeMonoid.product(monogenic(3, 4),
                                            FiniteCommutativeMonoid.cyclic_group(3))
        m = relabel(m, [(5 * x + 3) % m.size for x in range(m.size)])
        g = completion(m)
        assert m.identity == 3
        assert g.class_count == 12
        assert g.carrier == FgAbelianGroup(0, (12,))

    def test_large_truncated_addition_collapses(self):
        g = completion(truncated_addition_monoid(40))
        assert g.class_count == 1
        assert g.carrier == FgAbelianGroup.trivial()
        assert {g.class_of_pair(x, y) for x in range(41) for y in range(41)} == {0}


@st.composite
def cyclic_products(draw):
    """Cayley table of Z/n1 + .. + Z/nk (k <= 3, order <= 64), labels shuffled.

    Returns the orders, the table and, for each label, its element.
    """
    orders = draw(st.lists(st.integers(1, 8), max_size=3)
                  .filter(lambda ns: math.prod(ns) <= 64))
    elements = list(product(*(range(n) for n in orders)))
    perm = draw(st.permutations(range(len(elements))))
    index = {e: perm[k] for k, e in enumerate(elements)}
    table = [[0] * len(elements) for _ in elements]
    for x in elements:
        for y in elements:
            s = tuple((a + b) % n for a, b, n in zip(x, y, orders))
            table[index[x]][index[y]] = index[s]
    return orders, tuple(map(tuple, table)), sorted(elements, key=index.get)


class TestUniversalFactor:
    def test_inclusion_of_naturals(self):
        free = FreeCommutativeMonoid(1)
        g = completion(free)
        target = FgAbelianGroup.free(1)
        theta = universal_factor(free, g, target, [(1,)])
        assert theta(g.class_of((5,))) == (5,)
        assert theta(g.class_of_pair((2,), (7,))) == (-5,)

    def test_sum_of_coordinates(self):
        free = FreeCommutativeMonoid(2)
        g = completion(free)
        target = FgAbelianGroup.free(1)
        theta = universal_factor(free, g, target, [(1,), (1,)])
        assert theta(g.class_of((1, 0))) == (1,)
        assert theta(g.class_of((0, 1))) == (1,)
        assert theta((3, -2)) == (1,)
        with pytest.raises(ValueError, match="every generator"):
            universal_factor(free, g, target, [(1,)])

    def test_absorbing_monoid_only_zero_map(self):
        g = completion(ABSORBING)
        target = FgAbelianGroup(0, (2,))
        theta = universal_factor(ABSORBING, g, target, [(0,), (0,)])
        assert theta(g.class_of(ABSORBING.identity)) == (0,)
        with pytest.raises(ValueError, match=r"\(1, 1\)"):
            universal_factor(ABSORBING, g, target, [(0,), (1,)])
        with pytest.raises(ValueError, match="every monoid element"):
            universal_factor(ABSORBING, g, target, [(0,)])

    def test_non_homomorphism_rejected(self):
        m = FiniteCommutativeMonoid.cyclic_group(2)
        g = completion(m)
        target = FgAbelianGroup.free(1)
        with pytest.raises(ValueError, match="not a homomorphism"):
            universal_factor(m, g, target, [(0,), (1,)])

    def test_factorization_into_small_cyclic_targets(self):
        m = FiniteCommutativeMonoid.cyclic_group(4)
        g = completion(m)
        for order in range(2, 9):
            if order % 4 and 4 % order:
                continue
            target = FgAbelianGroup.cyclic(order)
            scale = order // 4 if order % 4 == 0 else 1
            psi = [((x * scale) % order,) for x in range(4)]
            theta = universal_factor(m, g, target, psi)
            for x in range(4):
                assert theta(g.class_of(x)) == psi[x]

    def test_uniqueness_on_classes(self):
        # theta is pinned on the phi-image, which generates: any pair in a
        # class must give the same value.  K = {3a, .., 6a} has identity 4a,
        # neither element 0 nor the monoid's identity, and psi(ka) = k mod 4.
        m = monogenic(3, 4)
        g = completion(m)
        theta = universal_factor(m, g, FgAbelianGroup.cyclic(4),
                                 [(k % 4,) for k in range(m.size)])
        values = {}
        for x, y in product(range(m.size), repeat=2):
            values.setdefault(g.class_of_pair(x, y), set()).add(((x - y) % 4,))
        assert values == {c: {theta(c)} for c in range(g.class_count)}

    @settings(max_examples=60, deadline=None)
    @given(cyclic_products(), st.integers(2, 12), st.data())
    def test_theta_is_the_difference_of_psi(self, case, d, data):
        # psi(x) = s . x mod d is a homomorphism when each s_i n_i is 0 mod d
        orders, table, labels = case
        s = [data.draw(st.integers(0, d)) * (d // math.gcd(d, n)) for n in orders]
        psi = [(sum(map(mul, s, x)) % d,) for x in labels]
        m = FiniteCommutativeMonoid(table, labels.index((0,) * len(orders)))
        g = completion(m)
        theta = universal_factor(m, g, FgAbelianGroup.cyclic(d), psi)
        for x, y in product(range(m.size), repeat=2):
            assert theta(g.class_of_pair(x, y)) == ((psi[x][0] - psi[y][0]) % d,)


class TestGroupTablePresentation:
    @settings(max_examples=60, deadline=None)
    @given(cyclic_products())
    def test_generating_set_presents_the_same_group(self, case):
        orders, table, _ = case
        got = _classify_group_table(table)
        full = IntegerMatrix.from_rows(full_group_presentation(table), cols=len(table))
        assert got == cokernel(full)
        assert got == FgAbelianGroup(0, tuple(chain_from_diagonal(orders)))

    def test_trivial_group_is_zero(self):
        # no prime divides the order 1, so there is no invariant factor
        assert _classify_group_table(((0,),)) == FgAbelianGroup.trivial()

    @settings(max_examples=40, deadline=None)
    @given(abelian_groups())
    def test_torsion_counts_classify_every_group_up_to_order_288(self, case):
        orders, table, _ = case
        assert _classify_group_table(table) == FgAbelianGroup(0, tuple(chain_from_diagonal(orders)))

    @settings(max_examples=30, deadline=None)
    @given(abelian_groups(max_order=144), st.booleans())
    def test_completion_of_a_group_with_an_absorbing_or_idempotent_element(self, case, absorbing):
        orders, table, zero = case
        n = len(table)
        if absorbing:  # G with z adjoined, z + x = z: the least ideal is {z}
            table = [row + (n,) for row in table] + [(n,) * (n + 1)]
            expected = FgAbelianGroup.trivial()
        else:  # G x {0, e} with e + e = e, (g, b) at index 2g + b: the least ideal is G x {e}
            table = [tuple(2 * table[g][h] + (b | c) for h in range(n) for c in (0, 1))
                     for g in range(n) for b in (0, 1)]
            zero, expected = 2 * zero, FgAbelianGroup(0, tuple(chain_from_diagonal(orders)))
        g = completion(FiniteCommutativeMonoid(table, zero))
        assert g.carrier == expected
        assert g.class_count == (1 if absorbing else n)

    def test_completion_makes_no_smith_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(linalg_module, "smith_normal_form",
                            lambda a: calls.append(a) or smith_normal_form(a))
        for chain in ([64], [4, 16], [4, 4, 4], [2] * 6, [2, 12, 12]):
            g = completion(FiniteCommutativeMonoid.from_invariants(chain))
            assert g.carrier == FgAbelianGroup(0, tuple(chain))
        assert calls == []
