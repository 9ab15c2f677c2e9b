import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kproj._elimination as elimination_module
import kproj.ktheory as ktheory_module
import kproj.linalg as linalg_module
from kproj.grothendieck import FreeCommutativeMonoid
from kproj.ktheory import KClass
from kproj.linalg import (
    SMITH_CACHE_SIZE,
    FgAbelianGroup,
    IntegerMatrix,
    SmithForm,
    cokernel,
    is_isomorphism,
    kernel_basis,
    smith_normal_form,
    solve_integer,
)
from kproj.truncpoly import MultiPoly

from oracles import (
    EnumeratedQuotient,
    chain_from_diagonal,
    content,
    det_cofactor,
    enumerated_cyclic_order,
    in_row_lattice,
    list_difference,
    list_hstack,
    list_negation,
    list_product,
    list_scalar_multiple,
    list_sum,
    list_transpose,
    minors_gcd_invariant_factors,
    naive_diagonalize,
)


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntegerMatrix(rows, cols,
                         tuple(rng.randint(lo, hi) for _ in range(rows * cols)))


def random_unimodular(n, rng, steps=12):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        op = rng.randrange(3)
        if op == 0:
            c = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                m[i][k] += c * m[j][k]
        elif op == 1:
            m[i], m[j] = m[j], m[i]
        else:
            for k in range(n):
                m[i][k] = -m[i][k]
    return IntegerMatrix.from_rows(m, cols=n)


def check_smith_form(a):
    form = smith_normal_form(a)
    assert form.u @ a @ form.v == form.diagonal_matrix()
    assert abs(form.u.det()) == 1
    assert abs(form.v.det()) == 1
    assert all(d > 0 for d in form.d)
    for s, t in zip(form.d, form.d[1:]):
        assert t % s == 0
    return form


class TestSmithNormalForm:
    def test_identity(self):
        form = check_smith_form(IntegerMatrix.identity(2))
        assert form.d == (1, 1)
        assert form.u == IntegerMatrix.identity(2)
        assert form.v == IntegerMatrix.identity(2)

    def test_zero_matrix(self):
        form = check_smith_form(IntegerMatrix.zero(2, 3))
        assert form.d == ()
        assert form.u == IntegerMatrix.identity(2)
        assert form.v == IntegerMatrix.identity(3)

    def test_two_by_two(self):
        a = IntegerMatrix.from_rows([[2, 4], [6, 8]])
        form = check_smith_form(a)
        assert form.d == (2, 4)
        # frozen from the minors-gcd oracle and plain row/column reduction
        assert minors_gcd_invariant_factors([[2, 4], [6, 8]]) == [2, 4]
        assert chain_from_diagonal(naive_diagonalize([[2, 4], [6, 8]])) == [2, 4]

    def test_empty_shapes(self):
        for rows, cols in ((0, 0), (0, 3), (3, 0)):
            form = check_smith_form(IntegerMatrix.zero(rows, cols))
            assert form.d == ()

    def test_random_matrices_against_minors_oracle(self):
        rng = random.Random(421)
        for _ in range(500):
            rows = rng.randrange(0, 7)
            cols = rng.randrange(0, 7)
            a = random_matrix(rng, rows, cols)
            form = check_smith_form(a)
            chain = [d for d in minors_gcd_invariant_factors(a.row_lists())]
            assert list(form.d) == chain

    def test_invariant_under_unimodular_multiplication(self):
        rng = random.Random(91)
        for _ in range(50):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 6)
            a = random_matrix(rng, rows, cols, -5, 5)
            u = random_unimodular(rows, rng)
            w = random_unimodular(cols, rng)
            assert smith_normal_form(u @ a @ w).d == smith_normal_form(a).d

    def test_reduction_agrees_with_naive_elementary_ops(self):
        rng = random.Random(7)
        for _ in range(60):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            a = random_matrix(rng, rows, cols, -6, 6)
            expected = chain_from_diagonal(naive_diagonalize(a.row_lists()))
            got = [d for d in smith_normal_form(a).d if d > 1]
            assert got == expected


class TestCokernel:
    def test_single_relation(self):
        g = cokernel(IntegerMatrix.from_rows([[2]]))
        assert g == FgAbelianGroup(0, (2,))

    def test_no_relations(self):
        g = cokernel(IntegerMatrix.zero(0, 3))
        assert g == FgAbelianGroup(3, ())

    def test_crt_merge(self):
        g = cokernel(IntegerMatrix.from_rows([[2, 0], [0, 3]]))
        assert g == FgAbelianGroup(0, (6,))
        # the enumeration oracle sees a cyclic group of order 6
        assert enumerated_cyclic_order([[2, 0], [0, 3]], 2) == 6

    def test_groups_equal_on_cokernel(self):
        g = cokernel(IntegerMatrix.from_rows([[2, 0], [0, 3]]))
        assert g == FgAbelianGroup(0, (6,))

    def test_order_matches_enumeration(self):
        rng = random.Random(5150)
        tested = 0
        while tested < 40:
            n = rng.randrange(1, 4)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            d = det_cofactor(rows)
            if d == 0 or abs(d) > 1000:
                continue
            tested += 1
            quotient = EnumeratedQuotient(rows, n)
            g = cokernel(IntegerMatrix.from_rows(rows, cols=n))
            assert g.free_rank == 0 and prod(g.torsion) == quotient.size()


class TestKernelBasis:
    def test_identity_has_no_kernel(self):
        k = kernel_basis(IntegerMatrix.identity(3))
        assert k.cols == 0

    def test_zero_matrix_kernel_is_everything(self):
        k = kernel_basis(IntegerMatrix.zero(2, 2))
        assert k.cols == 2
        assert abs(k.det()) == 1

    def test_primitive_kernel_vector(self):
        a = IntegerMatrix.from_rows([[1, 1]])
        k = kernel_basis(a)
        assert k.cols == 1
        assert (a @ k).is_zero()
        assert k.entries in ((1, -1), (-1, 1))

    def test_random_kernels(self):
        rng = random.Random(33)
        for _ in range(100):
            rows = rng.randrange(0, 6)
            cols = rng.randrange(0, 6)
            a = random_matrix(rng, rows, cols, -6, 6)
            k = kernel_basis(a)
            assert (a @ k).is_zero()
            # full column rank and primitive columns
            assert len(smith_normal_form(k).d) == k.cols
            for j in range(k.cols):
                assert content(k.entries[j::k.cols]) == 1


class TestIsIsomorphism:
    def test_identity(self):
        assert is_isomorphism(IntegerMatrix.identity(4))

    def test_shear(self):
        assert is_isomorphism(IntegerMatrix.from_rows([[1, 1], [0, 1]]))

    def test_doubling_is_not(self):
        assert not is_isomorphism(IntegerMatrix.from_rows([[2]]))

    def test_rectangular_is_not(self):
        assert not is_isomorphism(IntegerMatrix.zero(2, 3))

    def test_det_against_cofactor_oracle(self):
        rng = random.Random(8)
        for _ in range(80):
            n = rng.randrange(0, 5)
            a = random_matrix(rng, n, n, -7, 7)
            assert a.det() == det_cofactor(a.row_lists())


class TestSolveInteger:
    def test_solvable_system(self):
        a = IntegerMatrix.from_rows([[2, 0], [0, 3]])
        b = IntegerMatrix(2, 1, (4, 9))
        x = solve_integer(a, b)
        assert x is not None
        assert a @ x == b

    def test_unsolvable_by_divisibility(self):
        a = IntegerMatrix.from_rows([[2]])
        assert solve_integer(a, IntegerMatrix(1, 1, (3,))) is None

    def test_unsolvable_by_rank(self):
        a = IntegerMatrix.from_rows([[1, 1], [1, 1]])
        assert solve_integer(a, IntegerMatrix(2, 1, (0, 1))) is None

    def test_column_span_membership(self):
        gens = IntegerMatrix.from_rows([[2, 0], [0, 3]])
        assert solve_integer(gens, IntegerMatrix(2, 1, (2, 3))) is not None
        assert solve_integer(gens, IntegerMatrix(2, 1, (1, 0))) is None

    def test_random_roundtrip(self):
        rng = random.Random(77)
        for _ in range(60):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            a = random_matrix(rng, rows, cols, -5, 5)
            x = random_matrix(rng, cols, 2, -4, 4)
            b = a @ x
            got = solve_integer(a, b)
            assert got is not None
            assert a @ got == b


class TestFgAbelianGroup:
    def test_validation(self):
        with pytest.raises(ValueError):
            FgAbelianGroup(-1, ())
        with pytest.raises(ValueError):
            FgAbelianGroup(0, (1,))
        with pytest.raises(ValueError):
            FgAbelianGroup(0, (4, 2))

    def test_structural_equality(self):
        assert FgAbelianGroup(2, ()) == FgAbelianGroup(2, ())
        assert FgAbelianGroup(0, (2, 4)) != FgAbelianGroup(0, (8,))

    def test_direct_sum_renormalizes(self):
        a = FgAbelianGroup(1, (4,))
        b = FgAbelianGroup(0, (2, 6))
        s = a.direct_sum(b)
        assert s.free_rank == 1
        assert s.torsion == (2, 2, 12)

    def test_render(self):
        assert FgAbelianGroup.trivial().render() == "0"
        assert FgAbelianGroup(1, ()).render() == "Z"
        assert FgAbelianGroup(3, ()).render() == "Z^3"
        assert FgAbelianGroup(2, (2, 4)).render() == "Z^2 ⊕ Z/2 ⊕ Z/4"

    def test_element_arithmetic(self):
        g = FgAbelianGroup(1, (2, 4))
        a = g.normalize_element((3, 1, 5))
        assert a == (3, 1, 1)
        assert g.add_elements(a, (1, 1, 3)) == (4, 0, 0)
        assert g.scale_element((1, 1, 1), 2) == (2, 0, 2)


class TestMatrixTextFormat:
    def test_roundtrip(self):
        a = IntegerMatrix.from_rows([[1, -2, 3], [0, 5, -6]])
        assert IntegerMatrix.from_text("2 3\n1 -2 3\n0 5 -6\n") == a

    def test_zero_dimensions(self):
        assert IntegerMatrix.from_text("0 3\n") == IntegerMatrix.zero(0, 3)

    def test_malformed(self):
        with pytest.raises(ValueError):
            IntegerMatrix.from_text("2 2\n1 2 3")


class TestConstructorValidation:
    @pytest.mark.parametrize("entries", [(True, False), (1, 2.0)])
    def test_rejects_entries_not_of_type_int(self, entries):
        with pytest.raises(ValueError):
            IntegerMatrix(1, 2, entries)

    @pytest.mark.parametrize("entry", [True, 1.0], ids=["bool", "float"])
    def test_rejects_a_single_entry_not_of_type_int(self, entry):
        with pytest.raises(ValueError, match="exact integers"):
            IntegerMatrix(1, 1, (entry,))

    # each of these used to be truncated by int() and accepted
    @pytest.mark.parametrize("build", [
        lambda: IntegerMatrix.from_rows([[1.5, 2]]),
        lambda: IntegerMatrix.from_rows([[True, 2]]),
        lambda: IntegerMatrix.diagonal([2.7], 1, 1),
        lambda: IntegerMatrix(1, 1, (0.9,)),
        lambda: KClass(1, (0.5, 1.9)),
        lambda: KClass(1, (True, 0)),
        lambda: FgAbelianGroup(0, (2.5,)),
        lambda: FgAbelianGroup(True, ()),
    ], ids=["from_rows-float", "from_rows-bool", "diagonal-float", "column-float",
            "kclass-float", "kclass-bool", "group-float-torsion", "group-bool-rank"])
    def test_builders_reject_non_integers(self, build):
        with pytest.raises(ValueError):
            build()

    # elements and exponent vectors that int() used to truncate silently
    @pytest.mark.parametrize("build", [
        lambda: FgAbelianGroup(1, (4,)).normalize_element((1.5, 2.7)),
        lambda: FgAbelianGroup(1, (4,)).normalize_element((True, 1)),
        lambda: FgAbelianGroup(1, (4,)).add_elements((1, 2), (0, 0.5)),
        lambda: FgAbelianGroup(1, (4,)).scale_element((1, False), 3),
        lambda: FreeCommutativeMonoid(2).element((1.5, 2.9)),
        lambda: FreeCommutativeMonoid(2).element((True, 0)),
        lambda: MultiPoly(1, {(1.9,): 1}),
        lambda: MultiPoly(2, {(1, True): 1}),
    ], ids=["normalize-float", "normalize-bool", "add-float",
            "scale-bool", "monoid-float", "monoid-bool", "multipoly-float",
            "multipoly-bool"])
    def test_elements_reject_non_integers(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("key", [(True, True), (1.0, 0), (0, 0.0), (2, 0), (0, -1)],
                             ids=["bool", "float-row", "float-col", "row-past-end", "negative"])
    def test_an_index_that_is_not_an_int_in_range_is_an_index_error(self, key):
        with pytest.raises(IndexError):
            IntegerMatrix.identity(2)[key]

    def test_list_entries_are_stored_as_a_tuple(self):
        # a list used to reach the Smith memo cache and fail as unhashable
        from_list = IntegerMatrix(1, 1, [2])
        from_tuple = IntegerMatrix(1, 1, (2,))
        assert cokernel(from_list) == FgAbelianGroup.cyclic(2)
        assert type(from_list.entries) is tuple
        assert from_list == from_tuple
        assert hash(from_list) == hash(from_tuple)


@st.composite
def small_matrices(draw, rows=st.integers(0, 5), cols=st.integers(0, 5)):
    """Small matrices shaped like the replay's inputs, and a few that are not.

    Shapes include 0 x k and k x 0.  "block" draws a scaled identity,
    inclusion or projection block (unit pivots at scale +-1, non-unit
    ones otherwise); "sign" draws 0/+-1 entries; "dense" draws entries
    whose pivots are mostly non-units.
    """
    rows = draw(rows)
    cols = draw(cols)
    kind = draw(st.sampled_from(["block", "sign", "dense"]))
    if kind == "block":
        scale = draw(st.sampled_from([1, -1, 2, 6]))
        entries = [scale if i == j else 0 for i in range(rows) for j in range(cols)]
    else:
        values = st.integers(-1, 1) if kind == "sign" else st.integers(-9, 9)
        entries = draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
    return IntegerMatrix(rows, cols, tuple(entries))


# entries the replay uses, and entries far beyond a machine word
ALGEBRA_ENTRIES = st.one_of(st.sampled_from((-1, 0, 1)), st.integers(-2 ** 70, 2 ** 70))


@st.composite
def nested_lists(draw, rows, cols):
    """A rows x cols matrix as a list of rows: a partial identity or drawn entries.

    A partial identity has ones on one diagonal, i - j == shift, as the
    replay's inclusions, projections and identities have.
    """
    if draw(st.booleans()):
        shift = draw(st.integers(-cols, rows))
        return [[int(i - j == shift) for j in range(cols)] for i in range(rows)]
    return [draw(st.lists(ALGEBRA_ENTRIES, min_size=cols, max_size=cols)) for _ in range(rows)]


def from_lists(rows, cols, lists):
    return IntegerMatrix(rows, cols, tuple(x for row in lists for x in row))


def transpose(m):
    return from_lists(m.cols, m.rows, list_transpose(m.row_lists(), m.cols))


def assert_matches(m, shape, lists):
    assert (m.rows, m.cols) == shape
    assert m.entries == tuple(x for row in lists for x in row)
    assert_well_formed(m)


class TestAlgebraAgainstListOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
    def test_operations(self, n, k, m, data):
        al, bl, cl, el = (data.draw(nested_lists(r, c)) for r, c in ((n, k), (k, m), (n, m), (n, m)))
        a, b, c, e = (from_lists(n, k, al), from_lists(k, m, bl),
                      from_lists(n, m, cl), from_lists(n, m, el))
        s = data.draw(ALGEBRA_ENTRIES)
        assert_matches(a @ b, (n, m), list_product(al, bl, m))
        assert_matches(a.hstack(c), (n, k + m), list_hstack(al, cl))
        assert_matches(c + e, (n, m), list_sum(cl, el))
        assert_matches(c - e, (n, m), list_difference(cl, el))
        assert_matches(-c, (n, m), list_negation(cl))
        assert_matches(c * s, (n, m), list_scalar_multiple(s, cl))
        assert_matches(s * c, (n, m), list_scalar_multiple(s, cl))


def assert_well_formed(m):
    """What the validating constructor would have checked on an internal result."""
    assert len(m.entries) == m.rows * m.cols
    assert all(type(e) is int for e in m.entries)


class TestUncheckedResults:
    @settings(max_examples=200, deadline=None)
    @given(small_matrices())
    def test_smith_against_the_minors_oracle(self, a):
        form = smith_normal_form(a)
        assert form.u @ a @ form.v == IntegerMatrix.diagonal(form.d, a.rows, a.cols)
        assert abs(form.u.det()) == 1
        assert abs(form.v.det()) == 1
        assert list(form.d) == minors_gcd_invariant_factors(a.row_lists())
        assert all(type(e) is int for e in form.d)
        assert_well_formed(form.u)
        assert_well_formed(form.v)

    @settings(max_examples=200, deadline=None)
    @given(small_matrices(), st.data())
    def test_internal_results_are_well_formed(self, a, data):
        assert_well_formed(-a)
        assert_well_formed(a - a)
        assert_well_formed(a + a)
        assert_well_formed(a @ transpose(a))
        assert_well_formed(a.hstack(a))
        kb = kernel_basis(a)
        assert_well_formed(kb)
        assert (kb.rows, kb.cols) == (a.cols, a.cols - smith_normal_form(a).rank)
        assert (a @ kb).is_zero()
        x = data.draw(small_matrices(rows=st.just(a.cols)))
        b = a @ x
        y = solve_integer(a, b)
        assert y is not None
        assert_well_formed(y)
        assert a @ y == b


class TestSmithCache:
    @settings(max_examples=200, deadline=None)
    @given(small_matrices())
    def test_cached_result_equals_a_fresh_decomposition(self, a):
        # a zero or empty matrix and its transpose have equal entries in
        # different shapes, so the cache key must include the shape
        for m in (a, transpose(a)):
            cached = smith_normal_form(m)
            fresh = smith_normal_form.__wrapped__(m)
            assert cached.d == fresh.d
            assert cached.u == fresh.u
            assert cached.v == fresh.v
            assert (cached.u.rows, cached.v.rows) == (m.rows, m.cols)

    def test_an_equal_matrix_shares_the_result(self):
        a = IntegerMatrix(3, 3, (2, 4, 4, -6, 6, 12, 10, -4, -16))
        b = IntegerMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
        assert a is not b and a == b
        assert smith_normal_form(a) is smith_normal_form(b)

    def test_the_replay_hits_a_bounded_cache(self):
        smith_normal_form.cache_clear()
        ktheory_module.replay_induction(20)
        info = smith_normal_form.cache_info()
        assert info.hits > 0
        assert info.maxsize == SMITH_CACHE_SIZE
        assert info.currsize <= info.maxsize


@st.composite
def signed_partial_permutations(draw):
    """Matrices with at most one nonzero entry, +-1, in each row and column.

    Every matrix of the induction replay has this shape: identities,
    inclusions, projections and zero maps, stacked.
    """
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    targets = draw(st.permutations(range(max(rows, cols))))
    entries = [0] * (rows * cols)
    for i in range(rows):
        if targets[i] < cols and draw(st.booleans()):
            entries[i * cols + targets[i]] = draw(st.sampled_from((1, -1)))
    return IntegerMatrix(rows, cols, tuple(entries))


def columns(m):
    return [m.entries[j::m.cols] for j in range(m.cols)]


def assert_decomposes(a, form):
    """u a v == diagonal(d) with u, v unimodular and d the minors' invariant factors."""
    rows = a.row_lists()
    u, v = form.u.row_lists(), form.v.row_lists()
    assert list_product(list_product(u, rows, a.cols), v, a.cols) == \
        IntegerMatrix.diagonal(form.d, a.rows, a.cols).row_lists()
    assert abs(det_cofactor(u)) == abs(det_cofactor(v)) == 1
    assert list(form.d) == minors_gcd_invariant_factors(rows)


class TestTransformsAgainstOracles:
    """Transforms, kernels and solutions checked with list arithmetic only.

    A transform that the elimination never writes to is an identity, and
    a product with it skips the arithmetic; list_product does not, so
    these checks do not rest on that shortcut.
    """

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(signed_partial_permutations(),
                     small_matrices(rows=st.integers(0, 4), cols=st.integers(0, 4)),
                     st.builds(IntegerMatrix.identity, st.integers(0, 5))), st.data())
    def test_decomposition_kernel_and_solutions(self, a, data):
        rows = a.row_lists()
        form = SmithForm(a)
        assert_decomposes(a, form)

        kb = kernel_basis(a)
        assert kb.rows == a.cols and kb.cols == a.cols - len(form.d)
        assert not any(map(any, list_product(rows, kb.row_lists(), kb.cols)))
        # the columns extend to a basis of Z^cols, so they span the whole kernel
        assert minors_gcd_invariant_factors(list_transpose(kb.row_lists(), kb.cols)) == [1] * kb.cols

        k = data.draw(st.integers(1, 2))
        image = list_product(rows, data.draw(nested_lists(a.cols, k)), k)
        target = data.draw(st.one_of(st.just(image), nested_lists(a.rows, k)))
        b = from_lists(a.rows, k, target)
        x = solve_integer(a, b)
        generators = columns(a)
        solvable = all(in_row_lattice(generators, a.rows, c) for c in columns(b))
        assert (x is not None) == solvable
        if solvable:
            assert list_product(rows, x.row_lists(), k) == target

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (3, 2)])
    def test_products_with_an_identity(self, shape):
        rows, cols = shape
        b = IntegerMatrix(rows, cols, tuple(range(2, 2 + rows * cols)))
        for left, right in ((IntegerMatrix.identity(rows), b), (b, IntegerMatrix.identity(cols))):
            assert left @ right == b
            # an identity built entry by entry takes the arithmetic path
            unmarked = [IntegerMatrix(m.rows, m.cols, m.entries) for m in (left, right)]
            assert unmarked[0] @ unmarked[1] == b

    def test_untouched_transforms_are_identities(self):
        a = IntegerMatrix.diagonal((1, 2, 6), 3, 3)
        form = SmithForm(a)
        assert form.u == form.v == IntegerMatrix.identity(3)
        assert solve_integer(a, IntegerMatrix(3, 1, (5, 6, 12))) == IntegerMatrix(3, 1, (5, 3, 2))

    def test_identities_are_shared_per_size_in_a_bounded_cache(self):
        eye = IntegerMatrix.identity(3)
        assert IntegerMatrix.identity(3) is eye and eye._is_identity
        assert eye.entries == (1, 0, 0, 0, 1, 0, 0, 0, 1)
        assert linalg_module._identity.cache_info().maxsize == linalg_module.IDENTITY_CACHE_SIZE


def general_loop_must_not_run(*args):
    raise AssertionError("the general elimination loop ran")


class TestSignedPartialPermutationsInClosedForm:
    """A signed partial permutation is decomposed without the elimination loop."""

    @settings(max_examples=300, deadline=None)
    @given(signed_partial_permutations())
    def test_closed_form_against_oracles(self, a):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(elimination_module, "_min_abs_entry", general_loop_must_not_run)
            form = SmithForm(a)
            u, v = form.u, form.v  # transforms first: d comes from the closed form
        assert form.d == (1,) * (a.rows * a.cols - a.entries.count(0))
        assert_decomposes(a, form)
        # u is the identity when the nonzero rows lead, v when the columns lead with +1
        nonzero = [(i, j, x) for i, row in enumerate(a.row_lists())
                   for j, x in enumerate(row) if x]
        leading = list(range(len(nonzero)))
        assert u._is_identity == ([i for i, _, _ in nonzero] == leading)
        assert v._is_identity == ([j for _, j, x in nonzero if x == 1] == leading)
        if a.rows == a.cols and u._is_identity and v._is_identity:
            assert u is v

    @pytest.mark.parametrize("rows", [
        [[0, 2, 0], [1, 0, 0]],  # an entry 2
        [[1, 0, 0], [0, 0, -2]],  # an entry -2
        [[1, 0, -1], [0, 1, 0]],  # two nonzeros in one row
        [[1, 0], [0, 1], [-1, 0]],  # two nonzeros in one column
        [[0, 1], [1, 1]],
    ])
    def test_near_misses_take_the_general_path(self, rows, monkeypatch):
        searches, original = [], elimination_module._min_abs_entry

        def counted(*args):
            searches.append(args)
            return original(*args)
        monkeypatch.setattr(elimination_module, "_min_abs_entry", counted)
        a = IntegerMatrix.from_rows(rows)
        assert_decomposes(a, SmithForm(a))
        assert searches

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 4), st.data())
    def test_a_gathered_product_matches_the_list_product(self, n, m, data):
        src = data.draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n))
        signs = data.draw(st.lists(st.sampled_from((1, -1, 0)), min_size=n, max_size=n))
        left = linalg_module._signed_permutation(src, signs)
        assert left.row_lists() == [[s * (j == k) for k in range(n)] for j, s in zip(src, signs)]
        bl = data.draw(nested_lists(n, m))
        assert_matches(left @ from_lists(n, m, bl), (n, m), list_product(left.row_lists(), bl, m))

    # every product of the replay has a marked identity for a factor or an empty
    # dimension, so the dense loop of @ never runs there; a change that makes it
    # run fails here before it shows in the replay's timings
    @pytest.mark.parametrize("n", [1, 2, 20, 64])
    def test_the_replay_forms_no_dense_product(self, n, monkeypatch):
        products, matmul = [], IntegerMatrix.__matmul__

        def counted(a, b):
            products.append(a._is_identity or b._is_identity or not a.rows * a.cols * b.cols)
            return matmul(a, b)
        monkeypatch.setattr(IntegerMatrix, "__matmul__", counted)
        smith_normal_form.cache_clear()
        ktheory_module.replay_induction(n)
        assert all(products)
        assert products or n == 1  # cpn:1's one stage forms no product

    def test_a_cache_hit_returns_the_same_kernel_basis(self):
        smith_normal_form.cache_clear()
        a = IntegerMatrix(3, 4, (0, 0, -1, 0, 1, 0, 0, 0, 0, 0, 0, 0))
        basis = kernel_basis(a)
        assert basis == IntegerMatrix(4, 2, (0, 0, 1, 0, 0, 0, 0, 1))
        assert kernel_basis(IntegerMatrix(3, 4, a.entries)) is basis
        assert smith_normal_form.cache_info().hits == 1


@pytest.fixture
def eliminations(monkeypatch):
    """Which routine ran for every Smith computation, from a cleared cache on.

    "d" is _invariant_factors, which builds no transforms; "transforms" is
    the general _eliminate, which builds u and v.
    """
    calls = []
    for name, label in (("_invariant_factors", "d"), ("_eliminate", "transforms")):
        def counted(a, original=getattr(elimination_module, name), label=label):
            calls.append(label)
            return original(a)
        monkeypatch.setattr(elimination_module, name, counted)
    smith_normal_form.cache_clear()
    yield calls
    smith_normal_form.cache_clear()


@st.composite
def elimination_inputs(draw):
    """Tall, wide, square and rank-deficient matrices, entries to 9 or 1000."""
    kind = draw(st.sampled_from(["tall", "wide", "square", "deficient"]))
    bound = draw(st.sampled_from([9, 1000]))
    values = st.integers(-bound, bound)
    long = draw(st.integers(2, 7))
    short = draw(st.integers(1, long - 1))
    rows, cols = {"tall": (long, short), "wide": (short, long)}.get(kind, (long, long))

    def matrix(r, c, entries=values):
        return IntegerMatrix(r, c, tuple(draw(st.lists(entries, min_size=r * c,
                                                       max_size=r * c))))
    if kind == "deficient":
        return matrix(rows, short) @ matrix(short, cols, st.integers(-3, 3))
    return matrix(rows, cols)


class TestLazyTransforms:
    A = IntegerMatrix(3, 4, (2, 4, 4, 6, -6, 6, 12, 0, 10, -4, -16, 2))
    B = IntegerMatrix(3, 1, (2, -6, 10))  # the first column of A

    def test_invariant_factors_build_no_transforms(self, eliminations):
        form = smith_normal_form(self.A)
        assert form.d == (2, 2, 12)
        assert form.rank == 3
        assert cokernel(self.A) == FgAbelianGroup(1, (2, 2, 12))
        assert form.diagonal_matrix() == IntegerMatrix.diagonal((2, 2, 12), 3, 4)
        assert eliminations == ["d"]
        assert "_transforms" not in vars(form)

    @pytest.mark.parametrize("first", [lambda a, b: kernel_basis(a),
                                       lambda a, b: solve_integer(a, b)],
                             ids=["kernel_basis", "solve_integer"])
    def test_a_transform_reader_runs_one_elimination(self, eliminations, first):
        first(self.A, self.B)
        form = smith_normal_form(self.A)
        for _ in range(2):
            assert form.u @ self.A @ form.v == form.diagonal_matrix()
            assert form.rank == 3
            assert kernel_basis(self.A).cols == 1
            assert solve_integer(self.A, self.B) is not None
            assert cokernel(self.A).free_rank == 1
        assert eliminations == ["transforms"]

    def test_the_membership_decision_runs_one_elimination(self, eliminations):
        # it reads u before d, so the elimination that builds u also gives d
        assert linalg_module._spans(self.A, self.B)
        assert not linalg_module._spans(self.A, IntegerMatrix(3, 1, (1, 0, 0)))  # A is even
        assert eliminations == ["transforms"]

    @settings(max_examples=150, deadline=None)
    @given(elimination_inputs())
    def test_lazily_filled_transforms_decompose_the_matrix(self, a):
        lazy = SmithForm(a)
        d = lazy.d
        u, v = lazy.u, lazy.v
        assert lazy.d is d
        assert u @ a @ v == IntegerMatrix.diagonal(d, a.rows, a.cols)
        assert abs(u.det()) == 1
        assert abs(v.det()) == 1
        # reading a transform first gives the same d from the one elimination
        eager = SmithForm(a)
        assert eager.v == v and eager.d == d
        assert d == linalg_module._eliminate(a)[0]


@pytest.fixture
def modular_steps(monkeypatch):
    """The moduli of _diagonal_mod and the (pivot, entry) pairs of its gcd steps."""
    steps = {"moduli": [], "gcd": []}
    original_mod, original_step = elimination_module._diagonal_mod, elimination_module._gcd_step

    def diagonal_mod(a, modulus, k):
        steps["moduli"].append(modulus)
        return original_mod(a, modulus, k)

    def gcd_step(a, b):
        steps["gcd"].append((a, b))
        return original_step(a, b)
    monkeypatch.setattr(elimination_module, "_diagonal_mod", diagonal_mod)
    monkeypatch.setattr(elimination_module, "_gcd_step", gcd_step)
    return steps


@st.composite
def modular_inputs(draw):
    """Tall, wide, square, rank-deficient, 0 x n and n x 0 matrices.

    The entries share small factors, so that the modulus is often above 1.
    """
    kind = draw(st.sampled_from(["tall", "wide", "square", "deficient", "no rows", "no cols"]))
    long = draw(st.integers(2, 5))
    short = draw(st.integers(1, long - 1))
    rows, cols = {"tall": (long, short), "wide": (short, long), "no rows": (0, long),
                  "no cols": (long, 0)}.get(kind, (long, long))
    values = st.sampled_from([0, 0, 1, -1, 2, -2, 3, 4, -4, 6, 8, 9, 12, -12, 30])

    def matrix(r, c):
        return IntegerMatrix(r, c, tuple(draw(st.lists(values, min_size=r * c,
                                                       max_size=r * c))))
    if kind == "deficient":
        return matrix(rows, short) @ matrix(short, cols)
    return matrix(rows, cols)


def unimodular(rows):
    m = IntegerMatrix.from_rows(rows)
    assert abs(m.det()) == 1
    return m


class TestModularInvariantFactors:
    @settings(max_examples=300, deadline=None)
    @given(modular_inputs())
    def test_invariant_factors_read_first_match_the_minors_oracle(self, a):
        form = SmithForm(a)
        assert list(form.d) == minors_gcd_invariant_factors(a.row_lists())
        assert form.rank == len(form.d)
        assert "_transforms" not in vars(form)

    def test_nonsingular_square_with_a_modulus_above_one(self, modular_steps):
        u = unimodular([[1, 2, 0], [0, 1, 3], [0, 0, 1]])
        v = unimodular([[1, 0, 0], [2, 1, 0], [1, -1, 1]])
        a = u @ IntegerMatrix.diagonal((2, 4, 8), 3, 3) @ v
        assert SmithForm(a).d == (2, 4, 8)
        # the modulus covers d_1 d_2 = 8; d_3 = |det| / 8
        assert len(modular_steps["moduli"]) == 1
        assert modular_steps["moduli"][0] % 8 == 0

    def test_tall_matrix_with_a_modulus_above_one(self, modular_steps):
        u = unimodular([[1, 0, 0, 0], [3, 1, 0, 0], [0, -2, 1, 0], [1, 0, 1, 1]])
        v = unimodular([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        a = u @ IntegerMatrix.diagonal((2, 4, 8), 4, 3) @ v
        assert SmithForm(a).d == (2, 4, 8)
        assert len(modular_steps["moduli"]) == 1
        assert modular_steps["moduli"][0] % 64 == 0

    @pytest.mark.parametrize("rows, d", [
        ([[6], [12]], (6,)),  # zero modulo the modulus 6
        ([[1 << 23, 0, 1 << 23], [0, 1 << 23, 3 << 23]], (1 << 23, 1 << 23)),
        ([[1, 0], [0, 6 << 40], [0, 0]], (1, 6 << 40)),
    ])
    def test_large_or_repeated_factors(self, modular_steps, rows, d):
        assert SmithForm(IntegerMatrix.from_rows(rows)).d == d
        assert len(modular_steps["moduli"]) == 1

    @pytest.mark.parametrize("rows, d", [
        ([[3, 0, 0], [0, 0, 2]], (1, 6)),  # wide: modulus 6, pivot 2 against 3
        ([[2, 3, 0], [0, 0, 2], [4, 3, 0]], (1, 2, 6)),  # nonsingular square
    ])
    def test_an_entry_the_pivot_does_not_divide_takes_a_gcd_step(self, modular_steps, rows, d):
        a = IntegerMatrix.from_rows(rows)
        assert SmithForm(a).d == d
        assert modular_steps["moduli"] == [6]
        assert (2, 3) in modular_steps["gcd"]

    @pytest.mark.parametrize("rows, d", [
        ([[2, 3], [0, 6]], (1, 12)),  # square: the 1-minors are coprime, d_2 = |det|
        ([[1, 0, 0], [0, 2, 3]], (1, 1)),  # wide: the 2-minors 2 and 3 are coprime
        ([[5]], (5,)),
    ])
    def test_a_unit_modulus_needs_no_elimination(self, modular_steps, rows, d):
        assert SmithForm(IntegerMatrix.from_rows(rows)).d == d
        assert modular_steps == {"moduli": [], "gcd": []}


@st.composite
def drawn_unimodular(draw, n):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 6)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.sampled_from((-2, -1, 1, 2)))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return IntegerMatrix.from_rows(rows, cols=n)


@st.composite
def with_invariant_factors(draw):
    """u @ diagonal(d) @ v for a divisibility chain d whose factors are mostly above 1."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    d, factor = [], 1
    for _ in range(draw(st.integers(0, min(rows, cols)))):
        factor *= draw(st.sampled_from((1, 2, 3, 2, 6)))
        d.append(factor)
    diagonal = IntegerMatrix.diagonal(d, rows, cols)
    return draw(drawn_unimodular(rows)) @ diagonal @ draw(drawn_unimodular(cols))


@st.composite
def membership_inputs(draw):
    """(a, b) with as many rows; each column of b lies in a's span or is drawn at random."""
    a = draw(st.one_of(signed_partial_permutations(), with_invariant_factors(),
                       st.integers(0, 4).map(lambda rows: IntegerMatrix.zero(rows, 0))))
    k = draw(st.integers(0, 3))
    x = [draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k)) for _ in range(a.cols)]
    spanned = list_product(a.row_lists(), x, k)
    noise = [draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k)) for _ in range(a.rows)]
    keep = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    b = [[s if kept else r for s, r, kept in zip(srow, nrow, keep)]
         for srow, nrow in zip(spanned, noise)]
    return a, from_lists(a.rows, k, b)


class TestLatticeMembership:
    """The membership decision against an echelon-form oracle that uses no Smith form."""

    @settings(max_examples=400, deadline=None)
    @given(membership_inputs())
    def test_decision_matches_the_oracle_column_by_column(self, inputs):
        a, b = inputs
        verdicts = [in_row_lattice(columns(a), a.rows, column) for column in columns(b)]
        for column, verdict in zip(columns(b), verdicts):
            assert linalg_module._spans(a, from_lists(a.rows, 1, [[x] for x in column])) is verdict
        spans = linalg_module._spans(a, b)
        assert spans is all(verdicts)
        # solve_integer finds x exactly when the decision is true
        x = solve_integer(a, b)
        assert (x is not None) is spans
        if x is not None:
            assert list_product(a.row_lists(), x.row_lists(), b.cols) == b.row_lists()

    def test_no_generators_span_only_zero(self):
        a = IntegerMatrix.zero(2, 0)
        assert linalg_module._spans(a, IntegerMatrix.zero(2, 3))
        assert not linalg_module._spans(a, IntegerMatrix(2, 1, (0, 1)))
        assert solve_integer(a, IntegerMatrix.zero(2, 3)) == IntegerMatrix.zero(0, 3)
