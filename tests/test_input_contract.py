"""The input contract: any text a parser or the CLI reads is either
accepted or rejected with ValueError, and the CLI turns a rejection into
exit status 2 with exactly one line on stderr, never a traceback.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kproj.chern import FormalBundle, chern_character, line_bundle, newton_s
from kproj.cli import main
from kproj.grothendieck import (
    FiniteCommutativeMonoid,
    FreeCommutativeMonoid,
    completion,
    universal_factor,
)
from kproj.homology import (
    ChainComplex,
    GroupSequence,
    cohomology,
    cpn_complex,
    is_exact_at,
    sphere_complex,
)
from kproj.ktheory import (
    KClass,
    Space,
    ch_matrix,
    k_group_table,
    k_groups,
    reduced_sphere_k,
    replay_induction,
)
from kproj.linalg import FgAbelianGroup, IntegerMatrix
from kproj.truncpoly import PARSE_MAX_ORDER, MultiPoly, TruncPoly, pairing_matrix


def soup(tokens, max_size=30):
    return st.lists(st.sampled_from(tokens), max_size=max_size).map("".join)


NUMBERS = ["0", "1", "2", "3", "-1", "+2", "007", "2.5", "1/2", "1e3", "9" * 30, "-" * 2]
SPACES = [" ", "\n", "\t", "\r\n", " ", " "]


@st.composite
def header_and_body(draw):
    """'a b' then a few small integers: reaches the checks past the header."""
    a, b = draw(st.integers(-2, 4)), draw(st.integers(-2, 4))
    body = draw(st.lists(st.integers(-3, 5), max_size=20))
    sep = draw(st.sampled_from(SPACES))
    return f"{a} {b}\n" + sep.join(map(str, body))


TABLE_OR_MATRIX_TEXT = st.one_of(
    st.text(max_size=40),
    soup(NUMBERS + SPACES + ["x", "#", "⊕"]),
    header_and_body(),
)
POLY_TEXT = st.one_of(
    st.text(max_size=30),
    soup(["1", "2", "12", "0", "/", "/0", "x", "x^", "^2", "^12", "+", "-", "*", " ", ".", "y"],
         max_size=15),
)
SPACE_TEXT = st.one_of(
    st.text(max_size=20),
    soup(["cpn", "sphere", "point", "CPN", ":", "0", "1", "-1", "3", "1.5", " ", "\n"],
         max_size=6),
)


def accepts_or_value_error(parse, text):
    try:
        parse(text)
    except ValueError:
        pass


class TestParsers:
    @settings(max_examples=300, deadline=None)
    @given(TABLE_OR_MATRIX_TEXT)
    def test_integer_matrix_from_text(self, text):
        accepts_or_value_error(IntegerMatrix.from_text, text)

    @settings(max_examples=300, deadline=None)
    @given(TABLE_OR_MATRIX_TEXT)
    def test_monoid_from_text(self, text):
        accepts_or_value_error(FiniteCommutativeMonoid.from_text, text)

    @settings(max_examples=300, deadline=None)
    @given(POLY_TEXT, st.integers(-1, 6))
    def test_truncpoly_parse(self, text, order):
        accepts_or_value_error(lambda t: TruncPoly.parse(t, order=order), text)

    @pytest.mark.parametrize("text", ["x^100000000000000000000", "x^2000000",
                                      f"1+x^{PARSE_MAX_ORDER + 1}"])
    def test_truncpoly_parse_bounds_an_implied_order(self, text):
        # with no order, the largest exponent is the order: a huge one must
        # neither overflow nor allocate a coefficient per degree
        with pytest.raises(ValueError, match=f"exceeds {PARSE_MAX_ORDER}"):
            TruncPoly.parse(text)
        assert TruncPoly.parse(f"x^{PARSE_MAX_ORDER}").order == PARSE_MAX_ORDER

    @settings(max_examples=300, deadline=None)
    @given(SPACE_TEXT)
    def test_space_parse(self, text):
        accepts_or_value_error(Space.parse, text)

    # the hypothesis tests above draw only str texts; the bytes of a good
    # text were once accepted by the matrix and monoid parsers
    @pytest.mark.parametrize("parse, text", [
        (Space.parse, "cpn:2"),
        (IntegerMatrix.from_text, "1 1 5"),
        (FiniteCommutativeMonoid.from_text, "1 0 0"),
        (TruncPoly.parse, "1+x"),
    ], ids=["space", "matrix", "monoid", "truncpoly"])
    @pytest.mark.parametrize("convert", [lambda text: 3, lambda text: None, str.encode, str.split],
                             ids=["int", "none", "bytes", "tokens"])
    def test_a_text_not_of_type_str_is_a_value_error(self, parse, text, convert):
        parse(text)
        with pytest.raises(ValueError, match="must be a str"):
            parse(convert(text))


# a size or index that is not an int: a bool, a float equal to an int, and worse
NON_INT_SIZES = st.one_of(st.booleans(), st.integers(0, 4).map(float), st.floats(),
                          st.fractions(), st.text(max_size=2))
SIZE_TAKERS = {
    "matrix-rows": lambda bad, n: IntegerMatrix(bad, n, ()),
    "matrix-cols": lambda bad, n: IntegerMatrix(n, bad, ()),
    "from_rows-empty": lambda bad, n: IntegerMatrix.from_rows([], cols=bad),
    "from_rows": lambda bad, n: IntegerMatrix.from_rows([[0] * n], cols=bad),
    "zero-rows": lambda bad, n: IntegerMatrix.zero(bad, n),
    "zero-cols": lambda bad, n: IntegerMatrix.zero(n, bad),
    "identity": lambda bad, n: IntegerMatrix.identity(bad),
    "diagonal": lambda bad, n: IntegerMatrix.diagonal((), n, bad),
    "chain-complex": lambda bad, n: ChainComplex([bad]),
    "cohomology": lambda bad, n: cohomology(cpn_complex(1), bad),
    "cpn-complex": lambda bad, n: cpn_complex(bad),
    "sphere-complex": lambda bad, n: sphere_complex(bad),
    "is-exact-at": lambda bad, n: is_exact_at(
        GroupSequence([FgAbelianGroup.free(1)] * 3,
                      [IntegerMatrix.identity(1), IntegerMatrix.zero(1, 1)]), bad),
    "boundary": lambda bad, n: cpn_complex(n).boundary(bad),
    "group-rank": lambda bad, n: FgAbelianGroup(bad),
    "group-torsion": lambda bad, n: FgAbelianGroup(0, (bad,)),
    "cyclic": lambda bad, n: FgAbelianGroup.cyclic(bad),
    "group-element": lambda bad, n: FgAbelianGroup.free(1).normalize_element((bad,)),
    "space-cpn": lambda bad, n: Space.cpn(bad),
    "space-sphere": lambda bad, n: Space.sphere(bad),
    "space-point": lambda bad, n: Space("point", bad),
    "kclass": lambda bad, n: KClass(bad, (0,) * (n + 1)),
    "kclass-coefficient": lambda bad, n: KClass(n, (bad,) + (0,) * n),
    "kclass-zero": lambda bad, n: KClass.zero(bad),
    "kclass-unit": lambda bad, n: KClass.unit(bad),
    "kclass-gamma": lambda bad, n: KClass.gamma(bad),
    "kclass-power": lambda bad, n: KClass.gamma(n) ** bad,
    "ch-matrix": lambda bad, n: ch_matrix(bad),
    "reduced-sphere-k": lambda bad, n: reduced_sphere_k(bad),
    "k-groups": lambda bad, n: k_groups(Space.cpn(n), bad),
    "k-group-table-min": lambda bad, n: k_group_table(Space.cpn(2), bad, n),
    "k-group-table-max": lambda bad, n: k_group_table(Space.cpn(2), -n, bad),
    "k-group-table-group": lambda bad, n: k_group_table(Space.cpn(2), 0, n).group(bad),
    "replay-induction": lambda bad, n: replay_induction(bad),
    "truncpoly": lambda bad, n: TruncPoly(bad, (1,) + (0,) * n),
    "truncpoly-constant": lambda bad, n: TruncPoly.constant(bad, 1),
    "truncpoly-monomial-order": lambda bad, n: TruncPoly.monomial(bad, 0),
    "truncpoly-monomial-degree": lambda bad, n: TruncPoly.monomial(n, bad),
    "truncpoly-coefficient": lambda bad, n: TruncPoly.one(n).coefficient(bad),
    "truncpoly-power": lambda bad, n: TruncPoly.one(n) ** bad,
    "truncpoly-parse": lambda bad, n: TruncPoly.parse("1+x", order=bad),
    "pairing-matrix": lambda bad, n: pairing_matrix(bad),
    "multipoly": lambda bad, n: MultiPoly(bad, {}),
    "multipoly-constant": lambda bad, n: MultiPoly.constant(bad, 1),
    "multipoly-exponent": lambda bad, n: MultiPoly(1, {(bad,): 1}),
    "newton-s": lambda bad, n: newton_s(bad),
    # an int key already in newton_s's cache must not serve an equal bool or float
    "newton-s-cached": lambda bad, n: (newton_s(n + 1), newton_s(bad)),
    "formal-bundle": lambda bad, n: FormalBundle(bad, TruncPoly.one(n)),
    "line-bundle": lambda bad, n: line_bundle(bad),
    "chern-class": lambda bad, n: line_bundle(n).chern_class(bad),
    "chern-character": lambda bad, n: chern_character(line_bundle(n), bad),
    "monoid-identity": lambda bad, n: FiniteCommutativeMonoid(((0,),), bad),
    "monoid-entry": lambda bad, n: FiniteCommutativeMonoid(((bad,),), 0),
    "monoid-add": lambda bad, n: FiniteCommutativeMonoid.cyclic_group(n + 1).add(bad, 0),
    "cyclic-group": lambda bad, n: FiniteCommutativeMonoid.cyclic_group(bad),
    "free-monoid": lambda bad, n: FreeCommutativeMonoid(bad),
    "free-monoid-generator": lambda bad, n: FreeCommutativeMonoid(n + 1).generator(bad),
    "free-monoid-exponent": lambda bad, n: FreeCommutativeMonoid(1).element((bad,)),
    "free-completion-add": lambda bad, n: completion(FreeCommutativeMonoid(2)).add(
        (bad, n), (3, 0)),
    "free-completion-theta": lambda bad, n: free_theta()((bad, n)),
}


def free_theta():
    """theta on the completion of N^2 into Z, sending the generators to 1 and 2."""
    m = FreeCommutativeMonoid(2)
    return universal_factor(m, completion(m), FgAbelianGroup.free(1), [(1,), (2,)])


class TestSizes:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(SIZE_TAKERS)), NON_INT_SIZES, st.integers(0, 3))
    @example("matrix-rows", 2.0, 1)
    @example("from_rows-empty", 2.5, 0)
    @example("zero-rows", 1.5, 2)
    @example("identity", True, 0)
    @example("identity", [1], 0)  # checked before the identity cache, which would hash it
    @example("chain-complex", 1.5, 0)
    @example("cohomology", 1.0, 0)
    @example("sphere-complex", 2.0, 0)
    @example("is-exact-at", True, 0)
    @example("boundary", 1.0, 2)
    @example("space-cpn", 2.0, 0)
    @example("kclass", 1.0, 1)
    @example("kclass-power", True, 1)
    @example("ch-matrix", 2.0, 0)
    @example("reduced-sphere-k", 2.0, 0)
    @example("k-groups", 1.0, 2)
    @example("k-group-table-min", 0.0, 1)
    @example("k-group-table-group", True, 1)
    @example("k-group-table-group", 0.0, 1)
    @example("replay-induction", True, 0)
    @example("truncpoly", 2.0, 2)
    @example("truncpoly-monomial-degree", 1.0, 2)
    @example("truncpoly-power", 2.0, 2)
    @example("pairing-matrix", 2.0, 0)
    @example("multipoly", True, 0)
    @example("newton-s", 2.0, 0)
    @example("newton-s-cached", True, 0)
    @example("formal-bundle", 1.0, 1)
    @example("line-bundle", 1.5, 0)
    @example("monoid-identity", 0.0, 0)
    @example("monoid-entry", 0.0, 0)
    @example("free-monoid", 2.0, 0)
    @example("free-monoid-generator", 0.0, 1)
    @example("free-completion-add", 1.5, 2)
    def test_a_size_not_of_type_int_is_a_value_error(self, taker, bad, n):
        with pytest.raises(ValueError):
            SIZE_TAKERS[taker](bad, n)

    @pytest.mark.parametrize("call", [
        lambda: completion(FreeCommutativeMonoid(2)).add((1, 2), (3,)),
        lambda: completion(FreeCommutativeMonoid(2)).add((1,), (3, 0)),
        lambda: free_theta()((5,)),
        lambda: free_theta()((1, 1, 7)),
    ], ids=["add-short-second", "add-short-first", "theta-short", "theta-long"])
    def test_a_free_class_of_the_wrong_length_is_a_value_error(self, call):
        # zip would silently truncate the longer vector
        with pytest.raises(ValueError, match="wrong number of coordinates"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: k_group_table(Space.cpn(2), 0, 3).group(5),
        lambda: k_group_table(Space.cpn(2), 0, 3).group(-1),
        lambda: k_group_table(Space.cpn(1), 3, 1),
    ], ids=["group-above-the-table", "group-below-the-table", "reversed-degree-range"])
    def test_a_degree_outside_the_table_is_a_value_error(self, call):
        # a lookup used to raise KeyError, and a reversed range gave an empty table
        with pytest.raises(ValueError):
            call()


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def assert_exit_contract(code, err):
    assert code in (0, 2), err
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "input.txt"


class TestCommandLine:
    @settings(max_examples=200, deadline=None)
    @given(TABLE_OR_MATRIX_TEXT)
    def test_smith_matrix_file(self, input_file, text):
        input_file.write_text(text, encoding="utf-8")
        assert_exit_contract(*run_cli("--format", "machine", "smith", "--matrix", str(input_file)))

    @settings(max_examples=200, deadline=None)
    @given(TABLE_OR_MATRIX_TEXT)
    def test_groth_table_file(self, input_file, text):
        input_file.write_text(text, encoding="utf-8")
        assert_exit_contract(*run_cli("--format", "machine", "groth", "--table", str(input_file)))

    @settings(max_examples=200, deadline=None)
    @given(POLY_TEXT)
    def test_ch_bundle_form(self, text):
        assert_exit_contract(*run_cli("--format", "machine", "ch", "--rank", "2",
                                      f"--chern={text}", "--order", "3"))
