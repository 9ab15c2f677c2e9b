import random
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kproj.homology import (
    ChainComplex,
    FiveLemmaContradictionError,
    FiveLemmaHypothesisError,
    GroupSequence,
    Ladder,
    cohomology,
    cpn_complex,
    five_lemma_check,
    induced_map_is_isomorphism,
    is_exact_at,
    sphere_complex,
    split_free_extension,
    _preimage_generators,
)
import kproj._elimination as elimination_module
from kproj.linalg import (
    FgAbelianGroup,
    IntegerMatrix,
    cokernel,
    kernel_basis,
    smith_normal_form,
    solve_integer,
)

from oracles import det_cofactor, list_transpose

Z = FgAbelianGroup.free(1)
ZERO = FgAbelianGroup.trivial()


def mat(rows, cols=None):
    return IntegerMatrix.from_rows(rows, cols=cols)


def transpose(m):
    return mat(list_transpose(m.row_lists(), m.cols), m.rows)


class TestChainComplex:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ChainComplex((1, 1), (IntegerMatrix.zero(2, 1),))

    def test_rejects_nonzero_composite(self):
        with pytest.raises(ValueError):
            ChainComplex((1, 1, 1), (mat([[1]]), mat([[1]])))

    def test_boundary_off_the_ends(self):
        c = cpn_complex(1)
        assert c.boundary(0).rows == 0
        assert c.boundary(c.top + 1).cols == 0


def homology(c, k):
    """ker(boundary_k) / im(boundary_{k+1}), by a kernel basis and a solve.

    The image is written in a basis of the kernel and the quotient read as
    a cokernel: a route apart from the invariant-factor reads of cohomology.
    """
    if k > c.top:
        return ZERO
    basis = kernel_basis(c.boundary(k))
    image = solve_integer(basis, c.boundary(k + 1))
    assert image is not None
    return cokernel(transpose(image))


class TestHomology:
    def test_projective_plane_even_degree(self):
        c = ChainComplex.with_zero_boundaries((1, 0, 1, 0, 1))
        assert homology(c, 2) == Z

    def test_projective_plane_odd_degree(self):
        c = ChainComplex.with_zero_boundaries((1, 0, 1, 0, 1))
        assert homology(c, 1) == ZERO

    def test_multiplication_by_two(self):
        c = ChainComplex((1, 1), (mat([[2]]),))
        assert homology(c, 0) == FgAbelianGroup(0, (2,))
        assert homology(c, 1) == ZERO

    def test_zero_boundaries_give_free_groups(self):
        c = ChainComplex.with_zero_boundaries((2, 3, 1))
        for k, rank in enumerate((2, 3, 1)):
            assert homology(c, k) == FgAbelianGroup.free(rank)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            cohomology(cpn_complex(1), -1)

    def test_degrees_above_top_vanish(self):
        assert cohomology(cpn_complex(1), 5) == ZERO

    def test_klein_bottle_shape(self):
        # one 0-cell, two 1-cells, one 2-cell whose boundary doubles the
        # first loop: mixed free and torsion homology through real matrices
        klein = ChainComplex((1, 2, 1),
                             (IntegerMatrix.zero(1, 2), mat([[2], [0]])))
        assert homology(klein, 0) == Z
        assert homology(klein, 1) == FgAbelianGroup(1, (2,))
        assert homology(klein, 2) == ZERO
        # universal coefficients push the torsion up one degree in cohomology
        assert cohomology(klein, 0) == Z
        assert cohomology(klein, 1) == Z
        assert cohomology(klein, 2) == FgAbelianGroup(0, (2,))

    def test_nondiagonal_boundaries(self):
        # same lattice data as the Klein bottle after a basis shear; the
        # homology must not notice
        d2 = mat([[2], [4]])
        complex_ = ChainComplex((1, 2, 1), (IntegerMatrix.zero(1, 2), d2))
        assert homology(complex_, 1) == FgAbelianGroup(1, (2,))


def dual_complex_cohomology(c, k):
    """Cohomology as homology of the whole dual complex, rebuilt per degree."""
    if k > c.top:
        return FgAbelianGroup.trivial()
    ranks = tuple(reversed(c.ranks))
    bnds = tuple(transpose(c.boundary(c.top - j + 1)) for j in range(1, c.top + 1))
    return homology(ChainComplex(ranks, bnds), c.top - k)


@st.composite
def three_term_complexes(draw):
    """Z^c -> Z^b -> Z^a with zero composite, sheared by a unimodular change of basis.

    In the sheared basis the middle group splits as Z^r + Z^(b-r); the
    incoming map lands in the first summand and the outgoing map reads only
    the second, so the composite vanishes whatever the entries are.
    """
    a, b, c = (draw(st.integers(0, 4)) for _ in range(3))
    r = draw(st.integers(0, b))
    entries = st.integers(-6, 6)
    x = [[draw(entries) for _ in range(c)] for _ in range(r)]
    y = [[draw(entries) for _ in range(b - r)] for _ in range(a)]
    shear = random_unimodular(b, random.Random(draw(st.integers(0, 2 ** 16))))
    d2 = shear @ mat(x + [[0] * c] * (b - r), cols=c)
    d1 = mat([[0] * r + row for row in y], cols=b) @ invert_unimodular(shear)
    return ChainComplex((a, b, c), (d1, d2))


class TestCohomology:
    def test_projective_three_space(self):
        c = cpn_complex(3)
        assert cohomology(c, 4) == Z
        assert cohomology(c, 7) == ZERO

    def test_four_sphere(self):
        c = ChainComplex.with_zero_boundaries((1, 0, 0, 0, 1))
        assert cohomology(c, 4) == Z

    def test_six_sphere_top_degree(self):
        assert cohomology(sphere_complex(6), 6) == Z

    def test_torsion_shifts_degree(self):
        # multiplication by 2: dual has cohomology 0, Z/2 in degrees 0, 1
        c = ChainComplex((1, 1), (mat([[2]]),))
        assert cohomology(c, 0) == ZERO
        assert cohomology(c, 1) == FgAbelianGroup(0, (2,))

    def test_agrees_with_homology_when_torsion_free(self):
        for n in range(13):
            c = cpn_complex(n)
            for k in range(c.top + 2):
                assert homology(c, k) == cohomology(c, k)
        for m in range(1, 13):
            c = sphere_complex(m)
            for k in range(c.top + 2):
                assert homology(c, k) == cohomology(c, k)

    @settings(max_examples=200, deadline=None)
    @given(three_term_complexes())
    def test_matches_the_dual_complex_route(self, c):
        for k in range(c.top + 2):
            assert cohomology(c, k) == dual_complex_cohomology(c, k)


class TestCellComplexes:
    def test_point(self):
        assert cpn_complex(0).ranks == (1,)

    def test_projective_line(self):
        assert cpn_complex(1).ranks == (1, 0, 1)

    def test_projective_three_space(self):
        assert cpn_complex(3).ranks == (1, 0, 1, 0, 1, 0, 1)

    def test_spheres(self):
        assert sphere_complex(2).ranks == (1, 0, 1)
        assert sphere_complex(3).ranks == (1, 0, 0, 1)

    def test_zero_sphere_rejected(self):
        with pytest.raises(ValueError):
            sphere_complex(0)


def two_term_sequence(map_entry):
    """0 -> Z -> Z -> 0 with the given middle map."""
    groups = (FgAbelianGroup.trivial(), FgAbelianGroup.free(1),
              FgAbelianGroup.free(1), FgAbelianGroup.trivial())
    maps = (IntegerMatrix.zero(1, 0), mat([[map_entry]]), IntegerMatrix.zero(0, 1))
    return GroupSequence(groups, maps)


def short_free_sequence(k):
    """0 -> Z^k -> Z^(k+1) -> Z -> 0 with inclusion and projection."""
    groups = (FgAbelianGroup.trivial(), FgAbelianGroup.free(k),
              FgAbelianGroup.free(k + 1), FgAbelianGroup.free(1),
              FgAbelianGroup.trivial())
    incl = mat([[1 if i == j else 0 for j in range(k)] for i in range(k + 1)], cols=k)
    proj = mat([[0] * k + [1]], cols=k + 1)
    maps = (IntegerMatrix.zero(k, 0), incl, proj, IntegerMatrix.zero(0, 1))
    return GroupSequence(groups, maps)


class TestExactness:
    def test_identity_sequence_is_exact(self):
        s = two_term_sequence(1)
        assert is_exact_at(s, 1)
        assert is_exact_at(s, 2)

    def test_multiplication_by_two_fails_at_the_end(self):
        s = two_term_sequence(2)
        assert is_exact_at(s, 1)
        assert not is_exact_at(s, 2)

    def test_inclusion_projection_window(self):
        for k in (0, 1, 3):
            s = short_free_sequence(k)
            assert is_exact_at(s, 1)
            assert is_exact_at(s, 2)
            assert is_exact_at(s, 3)

    def test_position_bounds(self):
        s = two_term_sequence(1)
        with pytest.raises(ValueError):
            is_exact_at(s, 0)
        with pytest.raises(ValueError):
            is_exact_at(s, 3)

    def test_finite_index_image_is_not_exact(self):
        # 0 -> Z --(2,0)--> Z^2 --second coordinate--> Z -> 0: the image is
        # an index-two sublattice of the kernel, so the middle fails even
        # though the composite vanishes
        groups = (FgAbelianGroup.trivial(), FgAbelianGroup.free(1),
                  FgAbelianGroup.free(2), FgAbelianGroup.free(1),
                  FgAbelianGroup.trivial())
        maps = (IntegerMatrix.zero(1, 0), mat([[2], [0]]), mat([[0, 1]]),
                IntegerMatrix.zero(0, 1))
        s = GroupSequence(groups, maps)
        assert not is_exact_at(s, 2)
        assert is_exact_at(s, 1)

    def test_well_definedness_rejected(self):
        torsion = FgAbelianGroup.cyclic(2)
        free = FgAbelianGroup.free(1)
        with pytest.raises(ValueError):
            GroupSequence((torsion, free), (mat([[1]]),))

    def test_torsion_quotient_sequence(self):
        # 0 -> Z --2--> Z -> Z/2 -> 0
        groups = (FgAbelianGroup.trivial(), FgAbelianGroup.free(1),
                  FgAbelianGroup.free(1), FgAbelianGroup.cyclic(2),
                  FgAbelianGroup.trivial())
        maps = (IntegerMatrix.zero(1, 0), mat([[2]]), mat([[1]]),
                IntegerMatrix.zero(0, 1))
        s = GroupSequence(groups, maps)
        for i in (1, 2, 3):
            assert is_exact_at(s, i)


class TestPreimageGenerators:
    def test_without_relations_the_kernel_basis_is_returned_as_it_is(self):
        # a replay window's block: the target is free, so the block is f alone
        block = mat([[1, -1, 0], [0, 1, -1]])
        assert _preimage_generators(block, block.cols) is kernel_basis(block)

    @pytest.mark.parametrize("f, relations, expected", [
        ([[1]], [[2]], [[2]]),  # Z -> Z/2: the even integers
        ([[1, 0], [0, 2]], [[0], [4]], [[0], [2]]),  # Z^2 -> Z + Z/4
    ])
    def test_with_torsion_the_lattice_is_the_preimage_of_the_relations(
            self, f, relations, expected):
        f, expected = mat(f), mat(expected)
        pre = _preimage_generators(f.hstack(-mat(relations)), f.cols)
        assert pre.rows == f.cols
        assert solve_integer(pre, expected) is not None
        assert solve_integer(expected, pre) is not None


def cyclic_quotient_sequence(order):
    """0 -> Z --order--> Z -> Z/order -> 0."""
    groups = (FgAbelianGroup.trivial(), FgAbelianGroup.free(1),
              FgAbelianGroup.free(1), FgAbelianGroup.cyclic(order),
              FgAbelianGroup.trivial())
    maps = (IntegerMatrix.zero(1, 0), mat([[order]]), mat([[1]]),
            IntegerMatrix.zero(0, 1))
    return GroupSequence(groups, maps)


def ladder_with_vertical_three(f, bottom_order):
    top, bottom = cyclic_quotient_sequence(2), cyclic_quotient_sequence(bottom_order)
    verticals = (IntegerMatrix.zero(0, 0), mat([[1]]), mat([[1]]), f,
                 IntegerMatrix.zero(0, 0))
    return Ladder(top, bottom, verticals)


Z_MOD_2 = FgAbelianGroup.cyclic(2)
FREE_1 = FgAbelianGroup.free(1)


class TestWellDefinedMaps:
    """Every constructor and checker rejects a bad map with the same messages."""

    @pytest.mark.parametrize("build, message", [
        (lambda: GroupSequence((FREE_1, FREE_1), (mat([[1, 0]]),)),
         "map 0 has the wrong shape"),
        (lambda: GroupSequence((Z_MOD_2, FREE_1), (mat([[1]]),)),
         "map 0 does not preserve relations"),
        (lambda: induced_map_is_isomorphism(mat([[1, 0]]), FREE_1, FREE_1),
         "map has the wrong shape"),
        (lambda: induced_map_is_isomorphism(mat([[1]]), Z_MOD_2, FREE_1),
         "map does not preserve relations"),
        (lambda: ladder_with_vertical_three(mat([[1, 0]]), 2),
         "vertical 3 has the wrong shape"),
        (lambda: ladder_with_vertical_three(mat([[1]]), 4),
         "vertical 3 does not preserve relations"),
    ])
    def test_message(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    def test_well_defined_ladder_accepted(self):
        assert five_lemma_check(ladder_with_vertical_three(mat([[1]]), 2))


class TestInducedIsomorphism:
    def test_identity_on_torsion(self):
        p = FgAbelianGroup.cyclic(4)
        assert induced_map_is_isomorphism(mat([[1]]), p, p)

    def test_unit_multiple_on_torsion(self):
        p = FgAbelianGroup.cyclic(4)
        assert induced_map_is_isomorphism(mat([[3]]), p, p)

    def test_doubling_on_torsion_is_not(self):
        p = FgAbelianGroup.cyclic(4)
        assert not induced_map_is_isomorphism(mat([[2]]), p, p)

    def test_projection_is_not_injective(self):
        src = FgAbelianGroup.free(2)
        dst = FgAbelianGroup.free(1)
        assert not induced_map_is_isomorphism(mat([[1, 0]]), src, dst)

    def test_injection_of_cyclic_groups_is_not_surjective(self):
        # Z/2 -> Z/4 doubling the generator: injective but misses half
        src = FgAbelianGroup.cyclic(2)
        dst = FgAbelianGroup.cyclic(4)
        assert not induced_map_is_isomorphism(mat([[2]]), src, dst)

    def test_reduction_of_cyclic_groups_is_not_injective(self):
        # Z/4 -> Z/2 reducing the generator: surjective with kernel Z/2
        src = FgAbelianGroup.cyclic(4)
        dst = FgAbelianGroup.cyclic(2)
        assert not induced_map_is_isomorphism(mat([[1]]), src, dst)

    @pytest.mark.parametrize("f, dst", [
        ([[1], [0]], FgAbelianGroup.free(2)),  # rank below the generator count
        ([[1], [1]], FgAbelianGroup(1, (2,))),  # Z -> Z + Z/2 misses (0, 1)
        ([[3]], FgAbelianGroup.free(1)),  # full rank, invariant factor 3
    ])
    def test_injective_but_not_surjective(self, f, dst):
        assert not induced_map_is_isomorphism(mat(f), FgAbelianGroup.free(1), dst)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    def test_free_square_maps_against_the_determinant(self, rows):
        free = FgAbelianGroup.free(len(rows))
        assert induced_map_is_isomorphism(mat(rows), free, free) == \
            (abs(det_cofactor(rows)) == 1)

    def test_one_elimination_per_block(self, monkeypatch):
        # the surjectivity test reads the invariant factors of the block whose
        # transforms the preimage already computed, so no d-only computation runs
        calls = []
        for name in ("_invariant_factors", "_eliminate"):
            def counted(a, original=getattr(elimination_module, name), name=name):
                calls.append(name)
                return original(a)
            monkeypatch.setattr(elimination_module, name, counted)
        smith_normal_form.cache_clear()
        p = FgAbelianGroup.cyclic(4)
        assert induced_map_is_isomorphism(mat([[3]]), p, p)
        assert not induced_map_is_isomorphism(mat([[2]]), p, p)
        smith_normal_form.cache_clear()
        assert calls and set(calls) == {"_eliminate"}


def identity_ladder(seq):
    verticals = tuple(IntegerMatrix.identity(g.element_length()) for g in seq.groups)
    return Ladder(seq, seq, verticals)


def invert_unimodular(m):
    inverse = solve_integer(m, IntegerMatrix.identity(m.rows))
    assert inverse is not None
    return inverse


def random_unimodular(n, rng, steps=10):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        op = rng.randrange(3)
        if op == 0:
            c = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                rows[i][k] += c * rows[j][k]
        elif op == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            for k in range(n):
                rows[i][k] = -rows[i][k]
    return IntegerMatrix.from_rows(rows, cols=n)


def random_hypothesis_ladder(rng):
    """Exact rows with unimodular verticals, commuting by construction."""
    a = rng.randrange(0, 3)
    b = rng.randrange(1, 3)
    mid = a + b
    twist = random_unimodular(mid, rng)
    incl = mat([[1 if i == j else 0 for j in range(a)] for i in range(mid)], cols=a)
    proj = mat([[1 if j == a + i else 0 for j in range(mid)] for i in range(b)],
               cols=mid)
    i_top = twist @ incl
    p_top = proj @ invert_unimodular(twist)
    p_vert = random_unimodular(a, rng)
    m_vert = random_unimodular(mid, rng)
    q_vert = random_unimodular(b, rng)
    i_bot = m_vert @ i_top @ invert_unimodular(p_vert)
    p_bot = q_vert @ p_top @ invert_unimodular(m_vert)
    groups = (FgAbelianGroup.trivial(), FgAbelianGroup.free(a),
              FgAbelianGroup.free(mid), FgAbelianGroup.free(b),
              FgAbelianGroup.trivial())
    top = GroupSequence(groups, (IntegerMatrix.zero(a, 0), i_top, p_top,
                                 IntegerMatrix.zero(0, b)))
    bottom = GroupSequence(groups, (IntegerMatrix.zero(a, 0), i_bot, p_bot,
                                    IntegerMatrix.zero(0, b)))
    verticals = (IntegerMatrix.identity(0), p_vert, m_vert, q_vert,
                 IntegerMatrix.identity(0))
    return Ladder(top, bottom, verticals)


class TestFiveLemma:
    def test_identity_ladder(self):
        assert five_lemma_check(identity_ladder(short_free_sequence(2)))

    def test_splitting_ladder(self):
        # the window driving the rank induction, with a basis change in the
        # middle: identify Z^3 with itself through a shear
        top = short_free_sequence(2)
        shear = mat([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
        i_bot = shear @ top.maps[1]
        p_bot = top.maps[2] @ invert_unimodular(shear)
        bottom = GroupSequence(top.groups, (top.maps[0], i_bot, p_bot, top.maps[3]))
        verticals = (IntegerMatrix.identity(0), IntegerMatrix.identity(2),
                     shear, IntegerMatrix.identity(1), IntegerMatrix.identity(0))
        assert five_lemma_check(Ladder(top, bottom, verticals))

    def test_doubled_middle_vertical_breaks_a_hypothesis(self):
        seq = short_free_sequence(1)
        verticals = (IntegerMatrix.identity(0), IntegerMatrix.identity(1),
                     2 * IntegerMatrix.identity(2), IntegerMatrix.identity(1),
                     IntegerMatrix.identity(0))
        ladder = Ladder(seq, seq, verticals)
        with pytest.raises(FiveLemmaHypothesisError):
            five_lemma_check(ladder)

    def test_inexact_row_is_diagnosed(self):
        seq = two_term_sequence(2)
        groups = seq.groups + (FgAbelianGroup.trivial(),)
        maps = seq.maps + (IntegerMatrix.zero(0, 0),)
        five = GroupSequence(groups, maps)
        with pytest.raises(FiveLemmaHypothesisError):
            five_lemma_check(identity_ladder(five))

    def test_torsion_ladder(self):
        groups = (FgAbelianGroup.trivial(), FgAbelianGroup.free(1),
                  FgAbelianGroup.free(1), FgAbelianGroup.cyclic(2),
                  FgAbelianGroup.trivial())
        maps = (IntegerMatrix.zero(1, 0), mat([[2]]), mat([[1]]),
                IntegerMatrix.zero(0, 1))
        seq = GroupSequence(groups, maps)
        assert five_lemma_check(identity_ladder(seq))

    def test_random_hypothesis_ladders_never_contradict(self):
        rng = random.Random(2024)
        for _ in range(100):
            ladder = random_hypothesis_ladder(rng)
            try:
                assert five_lemma_check(ladder)
            except FiveLemmaContradictionError:
                pytest.fail("hypothesis-satisfying ladder reported a contradiction")


class TestSplitFreeExtension:
    def test_free_extension(self):
        for k in range(5):
            assert split_free_extension(FgAbelianGroup.free(k), Z) == \
                FgAbelianGroup.free(k + 1)

    def test_trivial_subgroup(self):
        assert split_free_extension(ZERO, FgAbelianGroup.free(3)) == \
            FgAbelianGroup.free(3)

    def test_torsion_subgroup(self):
        got = split_free_extension(FgAbelianGroup(0, (4,)), FgAbelianGroup.free(2))
        assert got == FgAbelianGroup(2, (4,))

    def test_torsion_quotient_rejected(self):
        with pytest.raises(ValueError):
            split_free_extension(Z, FgAbelianGroup(0, (2,)))


def test_package_attribute_is_the_module():
    import kproj
    import kproj.homology as module

    assert isinstance(module, types.ModuleType)
    assert kproj.homology is sys.modules["kproj.homology"]
