"""What each subcommand loads: the package's compute modules run on first use.

Each case starts a fresh interpreter.  A kproj module counts as run when
its object in sys.modules is a plain module: a lazy module not loaded yet
is of a subclass, and turns into a plain module when it loads.  The
private _certify, _elimination, _groups, _powers and _replay are
registered the same way: the first runs only to read K-groups off the
certified induction of cpn:N or the point, the second only for a matrix
that linalg cannot decompose in closed form, a zero matrix's invariant
factors included, the third for abelian groups, with linalg or without it,
the fourth only for arithmetic on power-basis coefficients, and the last
only for the replay that trace prints.  Each subcommand's code is a
module of the private kproj._commands, which cli imports for that
subcommand alone.  A well-formed command line is read without argparse
(and so without gettext and locale), which loads only for help and
errors.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import kproj

SRC = str(Path(kproj.__file__).resolve().parent.parent)
COMPUTE = ("chern", "grothendieck", "homology", "ktheory", "linalg", "truncpoly")

PROBE = """
import contextlib, io, sys, types
sys.path.insert(0, sys.argv[1])
import kproj.cli
if sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert kproj.cli.main(sys.argv[2:]) == 0
print(" ".join(sorted(name for name, module in sys.modules.items()
                      if name.startswith("kproj.") and type(module) is types.ModuleType)))
print(" ".join(sorted(name for name in sys.modules if name.startswith("kproj."))))
print(" ".join(name for name in ("decimal", "fractions", "numbers") if name in sys.modules))
"""


def probe(*argv):
    """(modules run, modules registered, rational-number modules imported) after `kproj ARGV`.

    The last set holds those of fractions, decimal and numbers (which
    fractions imports) that the interpreter loaded.
    """
    proc = subprocess.run([sys.executable, "-c", PROBE, SRC, *map(str, argv)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    ran, registered, rationals = proc.stdout.splitlines()
    return ({name[len("kproj."):] for name in ran.split()}, set(registered.split()),
            set(rationals.split()))


def test_import_registers_every_module_and_runs_none():
    # perfbench/shim.py reads sys.modules["kproj.<module>"] right after import
    ran, registered, _ = probe()
    assert registered == {f"kproj.{m}"
                          for m in (*COMPUTE, "_certify", "_elimination", "_groups", "_powers",
                                    "_replay", "cli")}
    assert ran == {"cli"}


def command(name, *modules):
    """What a subcommand runs: cli, the command package, its own command module and modules."""
    return {"cli", "_commands", f"_commands.{name}", *modules}


@pytest.mark.parametrize("argv, expected", [
    (("--version",), {"cli"}),
    (("smith", "--matrix", "{matrix}"),
     command("smith", "_record", "linalg", "_groups", "_elimination")),
    # the group table is classified by counting element orders: no matrix at all
    (("groth", "--table", "{table}"), command("groth", "_record", "_groups", "grothendieck")),
    # every boundary of cpn:N is zero, and the Bareiss pass of _elimination finds no pivot
    (("cohomology", "cpn:3"), command("cohomology", "_record", "linalg", "_groups", "homology",
                                      "ktheory", "_elimination")),
    (("bott-check",),
     command("bott_check", "_record", "linalg", "_groups", "_elimination", "ktheory")),
    # the K-groups of a sphere are read off the axiom table; the point is cpn:0, the
    # certified induction with no stage, and so no γ product
    (("kgroups", "sphere:4"), command("kgroups", "_record", "_groups", "ktheory")),
    (("kgroups", "point"), command("kgroups", "_record", "_groups", "ktheory", "_certify")),
    (("kgroups", "cpn:0"), command("kgroups", "_record", "_groups", "ktheory", "_certify")),
    # cpn:N is certified on sparse maps, with γ products through _powers: no Smith form
    (("kgroups", "cpn:12"),
     command("kgroups", "_record", "_groups", "_powers", "ktheory", "_certify")),
    (("kgroups", "cpn:12", "--q", "1"),
     command("kgroups", "_record", "_groups", "_powers", "ktheory", "_certify")),
    # only trace runs the old replay, which ktheory reads from _replay
    (("trace", "3"),
     command("trace", "_record", "_groups", "linalg", "homology", "ktheory", "_replay")),
    (("trace", "3", "--certificates"), command("trace", "_record", "_groups", "linalg", "homology",
                                               "ktheory", "_replay", "_certify", "_powers")),
    (("ch", "cpn:3", "--class=0,1,0,0"),
     command("ch", "_record", "_powers", "ktheory", "truncpoly")),
    (("ch", "--rank", "2", "--chern", "1+2x+x^2", "--order", "3"),
     command("ch", "_record", "_powers", "chern", "truncpoly")),
    (("newton", "--k", "4"), command("newton", "_record", "_powers", "chern", "truncpoly")),
])
def test_a_subcommand_runs_exactly_the_modules_it_needs(tmp_path, argv, expected):
    matrix, table = tmp_path / "m.matrix", tmp_path / "z3.table"
    matrix.write_text("2 2\n2 4\n6 8\n")
    table.write_text("3 0\n0 1 2\n1 2 0\n2 0 1\n")
    ran, _, _ = probe(*(a.format(matrix=matrix, table=table) for a in argv))
    assert ran == expected


@pytest.mark.parametrize("argv, unused", [
    (("ring", "3"), {"linalg", "homology", "_replay"}),
    (("ch", "cpn:3", "--class=0,1,0,0"), {"linalg", "homology", "_replay"}),
    (("trace", "3"), {"truncpoly", "chern", "grothendieck", "_elimination", "_certify"}),
    (("trace", "3", "--certificates"), {"truncpoly", "chern", "grothendieck", "_elimination"}),
    (("kgroups", "cpn:3"),
     {"truncpoly", "chern", "grothendieck", "_elimination", "linalg", "homology", "_replay"}),
])
def test_a_subcommand_leaves_other_layers_unrun(argv, unused):
    ran, _, _ = probe(*argv)
    assert "ktheory" in ran
    assert not ran & unused


@pytest.mark.parametrize("argv", [
    ("trace", "20"),
], ids=" ".join)
def test_the_replay_loads_no_rationals_and_no_general_elimination(argv):
    # every matrix of the replay is a signed partial permutation, decomposed in closed form;
    # without --certificates trace never certifies
    ran, _, rationals = probe(*argv)
    assert {"homology", "linalg"} <= ran
    assert not ran & {"_elimination", "_powers", "_certify"}
    assert rationals == set()


@pytest.mark.parametrize("argv", [
    ("kgroups", "cpn:12"),
    ("trace", "3", "--certificates"),
], ids=" ".join)
def test_the_certified_induction_loads_no_rationals(argv):
    # the Chern verdict sums ints, and the γ product stays in _powers
    _, _, rationals = probe(*argv)
    assert rationals == set()


PARSER_PROBE = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
parsing = ("argparse", "gettext", "locale")
before = [name for name in parsing if name in sys.modules]
import kproj.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = kproj.cli.main(sys.argv[2:])
    except SystemExit as exited:
        code = exited.code
print(code)
print(" ".join(name for name in parsing if name in sys.modules and name not in before))
"""


def parsing_modules(*argv):
    """(exit status, which of argparse, gettext and locale `kproj ARGV` imported)."""
    proc = subprocess.run([sys.executable, "-c", PARSER_PROBE, SRC, *map(str, argv)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, imported = proc.stdout.split("\n", 1)
    return int(code), set(imported.split())


@pytest.mark.parametrize("argv", [
    ("--version",),
    ("cohomology", "cpn:3"),
    ("--format", "machine", "kgroups", "cpn:3", "--q", "1"),
    ("ring", "3"),
    ("ch", "cpn:3", "--class=-1,1,0,0"),
    ("ch", "--rank", "2", "--chern", "1+2x+x^2", "--order", "3"),
    ("trace", "3", "--certificates"),
    ("newton", "--k", "4"),
    ("groth", "--table", "{table}"),
    ("smith", "--matrix", "{matrix}"),
    ("bott-check",),
], ids=" ".join)
def test_a_well_formed_command_skips_argparse(tmp_path, argv):
    matrix, table = tmp_path / "m.matrix", tmp_path / "z3.table"
    matrix.write_text("2 2\n2 4\n6 8\n")
    table.write_text("3 0\n0 1 2\n1 2 0\n2 0 1\n")
    code, imported = parsing_modules(*(a.format(matrix=matrix, table=table) for a in argv))
    assert (code, imported) == (0, set())


@pytest.mark.parametrize("argv", [
    ("trace", "3", "--bogus"),
    ("ch", "cpn:3", "--class", "-1,1,0,0"),  # a separate value that starts with -
    ("trace", "-h"),
    (),
], ids=lambda argv: " ".join(argv) or "(empty)")
def test_help_and_errors_are_argparse_own(argv):
    code, imported = parsing_modules(*argv)
    assert code == (0 if "-h" in argv else 2)
    assert "argparse" in imported


def test_ring_runs_only_the_ring_it_prints():
    # the γ-power ring has int coefficients: truncpoly and the rationals stay unloaded
    ran, _, rationals = probe("ring", "5")
    assert ran == command("ring", "_record", "ktheory", "_powers")
    assert rationals == set()


@pytest.mark.parametrize("argv", [
    ("ch", "cpn:3", "--class=0,1,0,0"),
    ("ch", "--rank", "2", "--chern", "1+2x+x^2", "--order", "3"),
], ids=" ".join)
def test_the_ring_side_loads_rationals_through_truncpoly(argv):
    ran, _, rationals = probe(*argv)
    assert "truncpoly" in ran
    assert rationals == {"decimal", "fractions", "numbers"}


# kproj.__all__ as it was when every module was imported eagerly, less a deleted
# one-line wrapper of solve_integer and the presented-group type that
# FgAbelianGroup replaced
ALL = [
    "ChainComplex", "CompletionHomomorphism", "FgAbelianGroup", "FiniteCommutativeMonoid",
    "FiveLemmaContradictionError", "FiveLemmaHypothesisError", "FormalBundle",
    "FreeCommutativeMonoid", "GrothendieckGroup", "GroupSequence",
    "InductionStep", "InductionTrace", "IntegerMatrix", "KClass", "KGroupTable", "Ladder",
    "MultiPoly", "NewtonPolynomial", "SmithForm", "Space", "TruncPoly", "bott_check",
    "bott_matrix", "ch_matrix", "chern", "chern_character", "chern_character_map",
    "cohomology", "cokernel", "completion", "cpn_complex", "five_lemma_check", "grothendieck",
    "homology", "induced_map_is_isomorphism", "is_exact_at", "is_isomorphism",
    "k_group_table", "k_groups", "k_ring_mul", "kernel_basis", "ktheory", "linalg",
    "line_bundle", "newton_s", "pair_equivalent", "pairing_matrix", "reduced_sphere_k",
    "replay_induction", "smith_normal_form", "solve_integer", "sphere_complex",
    "split_free_extension", "tensor_line", "truncpoly", "universal_factor", "whitney_sum",
]


def test_the_package_exports_are_unchanged():
    assert kproj.__all__ == ALL
    assert len(ALL) == 57
    assert set(ALL) <= set(dir(kproj))


def test_every_export_resolves_to_its_module_attribute():
    for name in ALL:
        value = getattr(kproj, name)
        if name in COMPUTE:
            assert value is sys.modules[f"kproj.{name}"]
        else:
            assert value is getattr(sys.modules[value.__module__], name)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from kproj import *", namespace)
    assert set(ALL) <= set(namespace)
    assert namespace["IntegerMatrix"] is kproj.linalg.IntegerMatrix


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        kproj.nonexistent


def test_ktheory_reads_the_replay_from_its_own_module():
    from kproj import _replay, ktheory
    for name in ("InductionStep", "InductionTrace", "replay_induction"):
        assert getattr(ktheory, name) is getattr(_replay, name)
    with pytest.raises(AttributeError, match="'kproj.ktheory' has no attribute 'nonexistent'"):
        ktheory.nonexistent
