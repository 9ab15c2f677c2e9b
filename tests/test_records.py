"""The record classes: value semantics, immutability, validation, and the import path."""

import ast
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import kproj
from kproj import _certify
from kproj._record import Record
from kproj.chern import FormalBundle, NewtonPolynomial, newton_s
from kproj.grothendieck import FiniteCommutativeMonoid, FreeCommutativeMonoid
from kproj.homology import ChainComplex, GroupSequence, Ladder
from kproj.ktheory import (
    InductionStep,
    InductionTrace,
    KClass,
    KGroupTable,
    Space,
    replay_induction,
)
from kproj.linalg import FgAbelianGroup, IntegerMatrix, SmithForm
from kproj.truncpoly import MultiPoly, TruncPoly

Z = FgAbelianGroup.free(1)
ZERO = FgAbelianGroup.trivial()
FREE1 = FgAbelianGroup.free(1)


def five_term_sequence():
    groups = (ZERO, FREE1, FREE1, ZERO, ZERO)
    maps = (IntegerMatrix.zero(1, 0), IntegerMatrix.identity(1), IntegerMatrix.zero(0, 1),
            IntegerMatrix.zero(0, 0))
    return GroupSequence(groups, maps)


def ladder():
    row = five_term_sequence()
    return Ladder(row, row, tuple(IntegerMatrix.identity(g.element_length()) for g in row.groups))


def induction_step():
    return InductionStep(index=0, kind="base", stage=1, window=("Z",), rules=("r",),
                         exactness=(), five_lemma=None, conclusion="Z")


# one factory per record class; each call builds a fresh object with the same fields
FACTORIES = {
    "IntegerMatrix": lambda: IntegerMatrix(2, 2, (1, 2, 3, 4)),
    "SmithForm": lambda: SmithForm(IntegerMatrix(1, 2, (2, 4))),
    "FgAbelianGroup": lambda: FgAbelianGroup(1, (2, 4)),
    "ChainComplex": lambda: ChainComplex((1, 0, 1), (IntegerMatrix.zero(1, 0),
                                                     IntegerMatrix.zero(0, 1))),
    "GroupSequence": five_term_sequence,
    "Ladder": ladder,
    "Space": lambda: Space("cpn", 3),
    "KClass": lambda: KClass(2, (1, 0, -1)),
    "KGroupTable": lambda: KGroupTable(Space.sphere(2), ((0, FgAbelianGroup(2)), (1, ZERO))),
    "InductionStep": induction_step,
    "InductionTrace": lambda: InductionTrace(1, (induction_step(),), Z, FgAbelianGroup(2), ZERO),
    "FiniteCommutativeMonoid": lambda: FiniteCommutativeMonoid(((0, 1), (1, 0)), 0),
    "FreeCommutativeMonoid": lambda: FreeCommutativeMonoid(2),
    "NewtonPolynomial": lambda: NewtonPolynomial(2, newton_s(2).expression),
    "FormalBundle": lambda: FormalBundle(1, TruncPoly.parse("1+x")),
    "TruncPoly": lambda: TruncPoly(2, (1, Fraction(1, 2), 0)),
    "MultiPoly": lambda: MultiPoly(2, {(1, 0): 1, (0, 2): Fraction(-1, 3)}),
}


def test_the_table_covers_every_record_class():
    # the package re-exports on first use, so its __dict__ need not hold them yet
    exported = {name for name in kproj.__all__
                if isinstance(value := getattr(kproj, name), type)
                and issubclass(value, Record)}
    assert set(FACTORIES) == exported
    assert len(FACTORIES) == 17


@pytest.mark.parametrize("name", FACTORIES)
def test_equal_fields_give_equal_objects(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    assert a is not b
    assert a == b and not a != b
    assert repr(a) == repr(b)
    assert repr(a).startswith(f"{name}({type(a)._fields[0]}=")


@pytest.mark.parametrize("name", FACTORIES)
def test_equal_objects_have_equal_hashes(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_unequal_fields_give_unequal_objects():
    assert IntegerMatrix(1, 1, (1,)) != IntegerMatrix(1, 1, (2,))
    assert IntegerMatrix(1, 2, (0, 0)) != IntegerMatrix(2, 1, (0, 0))
    assert Space("cpn", 1) != Space("cpn", 2)
    assert FgAbelianGroup(1, (2,)) != FgAbelianGroup(1, (4,))
    assert KClass(1, (0, 1)) != KClass(1, (1, 0))


def test_different_classes_never_compare_equal():
    objects = [FACTORIES[name]() for name in FACTORIES]
    for i, a in enumerate(objects):
        assert a != tuple(getattr(a, f) for f in a._fields)
        for j, b in enumerate(objects):
            assert (a == b) == (i == j)
    # the same field values in another class
    assert FreeCommutativeMonoid(2) != SmithForm(2)


@pytest.mark.parametrize("name", FACTORIES)
def test_fields_cannot_be_assigned_or_deleted(name):
    a = FACTORIES[name]()
    for f in a._fields:
        before = getattr(a, f)
        with pytest.raises(AttributeError):
            setattr(a, f, before)
        with pytest.raises(AttributeError):
            delattr(a, f)
        assert getattr(a, f) is before
    with pytest.raises(AttributeError):
        a.extra = 1


@pytest.mark.parametrize("name", FACTORIES)
def test_make_rebuilds_an_equal_record_from_its_fields(name):
    a = FACTORIES[name]()
    b = type(a)._make(*map(a.__getattribute__, a._fields))
    assert b == a and hash(b) == hash(a)


def test_a_record_takes_one_value_per_field():
    # the classes with no __init__ of their own take Record's, which counts
    expression = newton_s(2).expression
    with pytest.raises(ValueError):
        NewtonPolynomial(2)
    with pytest.raises(ValueError):
        NewtonPolynomial(2, expression, expression)
    with pytest.raises(ValueError):
        InductionTrace(1, (), Z, Z)


def test_multipoly_terms_are_read_only():
    built, made = FACTORIES["MultiPoly"](), FACTORIES["MultiPoly"]() * 1
    for m in (built, made, -built, built + built, built * built, newton_s(3).expression):
        before, held = hash(m), {m}
        with pytest.raises(TypeError):
            m.terms[(2,) * m.variable_count] = 1
        with pytest.raises(TypeError):
            del m.terms[next(iter(m.terms))]
        assert hash(m) == before and m in held


def test_certificate_maps_compare_by_value_and_do_not_hash():
    stage, again = next(_certify.stages(3)), next(_certify.stages(3))
    identity = _certify.SparseMap.identity(2)
    for a, b in ((identity, _certify.SparseMap.identity(2)), (stage, again)):
        assert a == b and a is not b
        with pytest.raises(TypeError, match=f"unhashable type: '{type(a).__name__}'"):
            hash(a)
    assert identity != _certify.SparseMap.zero(2, 2)


def test_only_record_stores_fields():
    # Record.__init__ and Record._make are the one way a value's fields are
    # written: no other module reaches past Record.__setattr__ or __init__
    package = Path(kproj.__file__).resolve().parent
    for path in sorted(package.rglob("*.py")):
        if path.name == "_record.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            where = f"{path.relative_to(package)}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert (node.value.id, node.attr) not in {("object", "__setattr__"),
                                                          ("object", "__new__")}, where
            if isinstance(node, ast.ClassDef):
                assert not any(isinstance(item, ast.FunctionDef) and item.name == "_make"
                               for item in node.body), where


def test_repr_names_every_field():
    assert repr(IntegerMatrix(1, 1, (5,))) == "IntegerMatrix(rows=1, cols=1, entries=(5,))"
    assert repr(Space.point()) == "Space(kind='point', parameter=0)"


def test_defaults_and_keyword_arguments():
    assert IntegerMatrix(0, 3) == IntegerMatrix.zero(0, 3)
    with pytest.raises(ValueError, match="expected 4 entries, got 0"):
        IntegerMatrix(2, 2)
    assert IntegerMatrix(rows=1, cols=2, entries=[3, 4]) == IntegerMatrix(1, 2, (3, 4))
    assert IntegerMatrix(1, 2, [3, 4]).entries == (3, 4)
    assert Space("point") == Space.point() == Space(kind="point", parameter=0)
    assert FgAbelianGroup(3) == FgAbelianGroup(free_rank=3, torsion=[])
    assert FgAbelianGroup(0, [2, 4]).torsion == (2, 4)
    assert ChainComplex((1,)).boundaries == ()
    assert KClass(n=1, coeffs=[1, 2]).coeffs == (1, 2)
    assert FiniteCommutativeMonoid([[0]], identity=0).table == ((0,),)


# list-built and tuple-built values of the records whose fields hold sequences
LIST_BUILT = {
    "ChainComplex": (lambda: ChainComplex([1, 0, 1], [IntegerMatrix.zero(1, 0),
                                                      IntegerMatrix.zero(0, 1)]),
                     FACTORIES["ChainComplex"]),
    "GroupSequence": (lambda: GroupSequence(list(five_term_sequence().groups),
                                            list(five_term_sequence().maps)),
                      five_term_sequence),
    "Ladder": (lambda: Ladder(five_term_sequence(), five_term_sequence(),
                              [IntegerMatrix.identity(g.element_length())
                               for g in five_term_sequence().groups]),
               ladder),
    "KGroupTable": (lambda: KGroupTable(Space.sphere(2), [[0, FgAbelianGroup(2)], [1, ZERO]]),
                    FACTORIES["KGroupTable"]),
}


@pytest.mark.parametrize("name", LIST_BUILT)
def test_list_arguments_are_stored_as_tuples(name):
    from_lists, from_tuples = (build() for build in LIST_BUILT[name])
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)
    for value in from_lists._values(from_lists):
        assert not isinstance(value, list)


def test_replayed_records_compare_by_value():
    a, b = replay_induction(3), replay_induction(3)
    assert a == b and hash(a) == hash(b)
    assert a.steps[1] == InductionStep(**{f: getattr(a.steps[1], f) for f in a.steps[1]._fields})


@pytest.mark.parametrize("build, message", [
    (lambda: IntegerMatrix(-1, 0), "dimensions must be nonnegative"),
    (lambda: IntegerMatrix(1, 2, (1,)), "expected 2 entries, got 1"),
    (lambda: IntegerMatrix(1, 1, (1.0,)), "exact integers"),
    (lambda: FgAbelianGroup(1.0), "exact integers"),
    (lambda: FgAbelianGroup(0, (True,)), "exact integers"),
    (lambda: FgAbelianGroup(-1), "free rank must be nonnegative"),
    (lambda: FgAbelianGroup(0, (1,)), "at least 2"),
    (lambda: FgAbelianGroup(0, (4, 2)), "divisibility chain"),
    (lambda: ChainComplex(()), "at least degree 0"),
    (lambda: ChainComplex((1, -1)), "ranks must be nonnegative"),
    (lambda: ChainComplex((1, 1)), "one boundary matrix per degree"),
    (lambda: ChainComplex((1, 1), (IntegerMatrix.zero(2, 1),)), "degree 1 has the wrong shape"),
    (lambda: ChainComplex((1, 1, 1), (IntegerMatrix(1, 1, (1,)),) * 2),
     "composite in degree 2 is nonzero"),
    (lambda: GroupSequence((FREE1, FREE1), ()), "one map between consecutive groups"),
    (lambda: GroupSequence((FREE1, FREE1), (IntegerMatrix.zero(2, 1),)),
     "map 0 has the wrong shape"),
    (lambda: GroupSequence((FgAbelianGroup.cyclic(2), FREE1),
                           (IntegerMatrix.identity(1),)), "map 0 does not preserve relations"),
    (lambda: Ladder(*(five_term_sequence(),) * 2, ()), "five columns"),
    (lambda: Ladder(*(five_term_sequence(),) * 2, (IntegerMatrix.zero(1, 1),) * 5),
     "vertical 0 has the wrong shape"),
    (lambda: Space("cpn", -1), "projective space index"),
    (lambda: Space("sphere", 0), "sphere dimension"),
    (lambda: Space("point", 1), "takes no parameter"),
    (lambda: Space("torus"), "unknown space kind"),
    (lambda: KClass(-1, ()), "ambient index"),
    (lambda: KClass(1, (1, Fraction(1, 2))), "exact integers"),
    (lambda: KClass(1, (1,)), "expected 2 coefficients"),
    (lambda: KGroupTable(Space.point(), ((0, Z), (0, Z))), "duplicate degrees"),
    (lambda: KGroupTable(Space.point(), ((0, Z), (2, ZERO))), "breaks periodicity"),
    (lambda: FiniteCommutativeMonoid((), 0), "at least the identity"),
    (lambda: FiniteCommutativeMonoid(((0, 1),), 0), "must be square"),
    (lambda: FiniteCommutativeMonoid(((0,),), 1), "identity index out of range"),
    (lambda: FiniteCommutativeMonoid(((1,),), 0), "entry out of range"),
    (lambda: FiniteCommutativeMonoid(((0, 1), (0, 1)), 0), "not commutative at (0, 1)"),
    (lambda: FiniteCommutativeMonoid(((0, 1, 2), (1, 2, 0), (2, 0, 0)), 0),
     "not associative at (1, 1, 2)"),
    (lambda: FiniteCommutativeMonoid(((0, 0), (0, 0)), 0), "does not act as identity"),
    (lambda: FreeCommutativeMonoid(-1), "generator count"),
    (lambda: FormalBundle(-1, TruncPoly.one(1)), "bundle dimension"),
    (lambda: FormalBundle(1, TruncPoly(1, (1, Fraction(1, 2)))), "integer coefficients"),
    (lambda: FormalBundle(1, TruncPoly(1, (2, 0))), "constant term 1"),
    (lambda: FormalBundle(1, TruncPoly(2, (1, 0, 1))), "degree 2 is nonzero beyond"),
])
def test_validation_errors(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert message in str(info.value)


def test_import_loads_no_dataclasses():
    # -S: without site, which may import typing on its own
    src = Path(kproj.__file__).resolve().parent.parent
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import kproj.cli; "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing', 'ast', 'dis', "
            "'tokenize') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


PACKAGE = Path(kproj.__file__).resolve().parent
COMMANDS = PACKAGE / "_commands"


def import_faults(path: Path, source: str) -> list[str]:
    """The lines of source, a file of the package at path, that break the import rule.

    README "Library contract": `from .mod import name` would run mod whenever
    its importer runs, so a module imports its siblings with `from . import`;
    cli's __version__ is an attribute of the package, and Record a base class.
    A command module of kproj._commands reaches the library with
    `from .. import` and its sibling command modules with `from . import`,
    and copies no name: a tracer rebinds functions on their modules only.
    """
    modules = {p.stem for p in PACKAGE.glob("*.py")} | {COMMANDS.name}
    if path.parent == COMMANDS:
        allowed = {(2, None): modules, (1, None): {p.stem for p in COMMANDS.glob("*.py")}}
    else:
        allowed = {(1, None): modules | {"__version__"}, (1, "_record"): {"Record"}}
    faults = []
    for node in ast.walk(ast.parse(source, str(path))):
        names = {alias.name for alias in getattr(node, "names", ())}
        where = f"{path.relative_to(PACKAGE)}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Import):
            if any(name.split(".")[0] == "kproj" for name in names):
                faults.append(where)
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "kproj"):
            if not names <= allowed.get((node.level, node.module), set()):
                faults.append(where)
    return faults


def test_modules_reach_each_other_as_modules():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert COMMANDS / "kgroups.py" in paths
    for path in paths:
        assert import_faults(path, path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("file, line", [
    ("_commands/kgroups.py", "from ..ktheory import k_groups"),
    ("_commands/kgroups.py", "from kproj.ktheory import k_groups"),
    ("_commands/kgroups.py", "from . import ktheory"),  # not a command module
    ("_commands/trace.py", "from .._record import Record"),
    ("_commands/trace.py", "import kproj.ktheory"),
    ("ktheory.py", "from .linalg import IntegerMatrix"),
    ("ktheory.py", "from .. import linalg"),
    ("cli.py", "from ._commands import kgroups"),
])
def test_the_import_rule_catches_a_copied_name(file, line):
    path = PACKAGE / file
    assert import_faults(path, path.read_text(encoding="utf-8") + line + "\n")
