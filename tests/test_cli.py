import contextlib
import gc
import hashlib
import importlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kproj
from kproj import _certify, homology, ktheory
from kproj._commands.cohomology import COHOMOLOGY_MAX_TOP
from kproj._commands.groth import GROTH_MAX_ORDER
from kproj._commands.smith import SMITH_MAX_BITS, SMITH_MAX_SIDE
from kproj.cli import (
    FORMAT_VERSION,
    OPTIONS,
    SUBCOMMANDS,
    _read,
    build_parser,
    main,
)
from kproj.linalg import IntegerMatrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_machine(capsys, *argv):
    code, out, err = run(capsys, "--format", "machine", *argv)
    assert code == 0, err
    return SimpleNamespace(**json.loads(out))


class TestCohomologyCommand:
    def test_projective_plane_table(self, capsys):
        code, out, err = run(capsys, "cohomology", "cpn:2")
        assert code == 0
        assert out.splitlines() == [
            "H^0 = Z", "H^1 = 0", "H^2 = Z", "H^3 = 0", "H^4 = Z",
        ]

    def test_sphere_single_degree(self, capsys):
        code, out, _ = run(capsys, "cohomology", "sphere:3", "--degree", "3")
        assert code == 0
        assert out.strip() == "H^3 = Z"

    def test_point(self, capsys):
        # the point is CP^0, one cell in degree 0, and each echoes its own spec
        for spec in ("point", "cpn:0"):
            code, out, _ = run(capsys, "cohomology", spec)
            assert (code, out) == (0, "H^0 = Z\n")
            doc = run_machine(capsys, "cohomology", spec)
            assert doc.inputs == {"space": spec}
            assert doc.result["rows"] == [{"label": "H^0", "degree": 0, "kind": "group",
                                           "free_rank": 1, "torsion": [], "text": "Z"}]

    def test_malformed_spec(self, capsys):
        code, out, err = run(capsys, "cohomology", "cpn;2")
        assert code != 0
        assert not out
        assert "error:" in err

    def test_negative_degree(self, capsys):
        code, _, err = run(capsys, "cohomology", "cpn:2", "--degree", "-1")
        assert code != 0
        assert "error:" in err


class TestKGroupsCommand:
    def test_even_degree(self, capsys):
        code, out, _ = run(capsys, "kgroups", "cpn:4", "--q", "0")
        assert code == 0
        assert out.strip() == "K^0(CP^4) = Z^5"

    def test_odd_degree(self, capsys):
        code, out, _ = run(capsys, "kgroups", "cpn:4", "--q", "-1")
        assert code == 0
        assert out.strip() == "K^-1(CP^4) = 0"

    def test_machine_payload(self, capsys):
        doc = run_machine(capsys, "kgroups", "cpn:4", "--q", "0")
        assert doc.result["kind"] == "group"
        assert doc.result["free_rank"] == 5
        assert doc.result["torsion"] == []
        assert doc.inputs == {"space": "cpn:4", "q": 0}


class TestChCommand:
    def test_class_form(self, capsys):
        code, out, _ = run(capsys, "ch", "cpn:3", "--class", "0,1,0,0")
        assert code == 0
        assert out.strip() == "x + 1/2*x^2 + 1/6*x^3"

    def test_bundle_form(self, capsys):
        code, out, _ = run(capsys, "ch", "--rank", "2", "--chern", "1+2x+x^2",
                           "--order", "2")
        assert code == 0
        assert out.strip() == "2 + 2*x + x^2"

    def test_wrong_coefficient_count(self, capsys):
        code, _, err = run(capsys, "ch", "cpn:3", "--class", "0,1")
        assert code != 0
        assert "error:" in err

    def test_mixed_forms_rejected(self, capsys):
        code, _, err = run(capsys, "ch", "cpn:3", "--class", "0,1,0,0",
                           "--chern", "1+x", "--rank", "1", "--order", "1")
        assert code != 0

    @pytest.mark.parametrize("option", [("--order", "7"), ("--rank", "9")])
    def test_bundle_options_rejected_in_the_class_form(self, capsys, option):
        code, out, err = run(capsys, "ch", "cpn:3", "--class=0,1,0,0", *option)
        assert (code, out) == (2, "")
        assert err == "error: --class selects the class form; drop --rank and --order\n"

    def test_class_form_machine(self, capsys):
        doc = run_machine(capsys, "ch", "cpn:2", "--class", "0,1,0")
        assert doc.result["kind"] == "poly"
        assert doc.result["coefficients"] == ["0", "1", "1/2"]

    def test_negative_coefficients(self, capsys):
        code, out, _ = run(capsys, "ch", "cpn:1", "--class=-1,1")
        assert code == 0
        assert out.strip() == "-1 + x"

    @pytest.mark.parametrize("argv", [
        ("ch", "--rank", "1", "--chern", "1+x", "--order", "1001"),
        ("ch", "--rank", "1", "--chern", "1+x", "--order", "1700"),
        ("ch", "cpn:1001", "--class=" + ",".join(["1"] + ["0"] * 1001)),
    ])
    def test_order_above_the_bound_is_a_one_line_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:") and "at most 1000" in err

    def test_negative_order_is_a_one_line_error(self, capsys):
        code, out, err = run(capsys, "ch", "--rank", "1", "--chern", "1", "--order", "-1")
        assert (code, out) == (2, "")
        assert err == "error: truncation order must be nonnegative\n"

    def test_order_at_the_bound_is_accepted(self, capsys):
        doc = run_machine(capsys, "ch", "--rank", "1", "--chern", "1+x",
                          "--order", "1000")
        assert len(doc.result["coefficients"]) == 1001

    @pytest.mark.parametrize("chern", ["1-+2x", "1+2x+", "-"])
    def test_stray_sign_is_a_one_line_error(self, capsys, chern):
        code, out, err = run(capsys, "ch", "--rank", "2", "--chern", chern, "--order", "2")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:") and "sign" in err

    def test_zero_denominator_is_a_one_line_error(self, capsys):
        code, out, err = run(capsys, "ch", "--rank", "1", "--chern", "1+1/0*x",
                             "--order", "1")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:")


class TestRingCommand:
    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "ring", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "Z[\u03b3]/(\u03b3^3)"
        assert lines[1] == "basis: 1, \u03b3, \u03b3^2"
        assert lines[-1].endswith("\u03b3^2, 0, 0")

    def test_machine_table(self, capsys):
        doc = run_machine(capsys, "ring", "1")
        assert doc.result["products"] == [["1", "\u03b3"], ["\u03b3", "0"]]

    @pytest.mark.parametrize("n", range(13))
    def test_products_are_shifted_powers(self, capsys, n):
        def name(k):
            return "1" if k == 0 else "\u03b3" if k == 1 else f"\u03b3^{k}"

        doc = run_machine(capsys, "ring", str(n))
        assert doc.result["products"] == [
            [name(i + j) if i + j <= n else "0" for j in range(n + 1)]
            for i in range(n + 1)
        ]


class TestNewtonCommand:
    def test_third_polynomial(self, capsys):
        code, out, _ = run(capsys, "newton", "--k", "3")
        assert code == 0
        assert out.strip() == "s_3 = e1^3 - 3*e1*e2 + 3*e3"

    def test_machine_terms(self, capsys):
        doc = run_machine(capsys, "newton", "--k", "2")
        assert doc.result["variables"] == ["e1", "e2"]
        terms = {tuple(t["exponents"]): t["coefficient"]
                 for t in doc.result["terms"]}
        assert terms == {(2, 0): "1", (0, 1): "-2"}

    @pytest.mark.parametrize("k", ["41", "1000000"])
    def test_out_of_range_k_is_a_one_line_error(self, capsys, k):
        code, out, err = run(capsys, "newton", "--k", k)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:")


class TestGrothCommand:
    def test_cyclic_two(self, capsys, tmp_path):
        path = tmp_path / "z2.table"
        path.write_text("2 0\n0 1\n1 0\n")
        code, out, _ = run(capsys, "groth", "--table", str(path))
        assert code == 0
        assert out.splitlines()[0] == "Z/2"
        doc = run_machine(capsys, "groth", "--table", str(path))
        assert doc.result["torsion"] == [2]
        assert doc.result["classes"] == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "groth", "--table", str(tmp_path / "nope"))
        assert code != 0
        assert "error:" in err

    def test_bad_table(self, capsys, tmp_path):
        path = tmp_path / "bad.table"
        path.write_text("2 0\n0 1\n0 1\n")  # not commutative
        code, _, err = run(capsys, "groth", "--table", str(path))
        assert code != 0

    @pytest.mark.parametrize("body", [True, False], ids=["cyclic-table", "header-only"])
    def test_order_above_the_bound_is_a_one_line_error(self, capsys, tmp_path, body):
        # the header alone is rejected: the bound is checked before any entry is read
        n = GROTH_MAX_ORDER + 1
        rows = [" ".join(str((i + j) % n) for j in range(n)) for i in range(n)] if body else []
        path = tmp_path / "big.table"
        path.write_text("\n".join([f"{n} 0", *rows]) + "\n")
        code, out, err = run(capsys, "groth", "--table", str(path))
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:") and f"at most {GROTH_MAX_ORDER}" in err

    def test_order_at_the_bound_passes_the_header_check(self, capsys, tmp_path):
        path = tmp_path / "header.table"
        path.write_text(f"{GROTH_MAX_ORDER} 0\n")
        code, _, err = run(capsys, "groth", "--table", str(path))
        assert code == 2
        assert f"expected {GROTH_MAX_ORDER ** 2} table entries, got 0" in err


class TestSmithCommand:
    def test_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "m.matrix"
        path.write_text("2 2\n2 4\n6 8\n")
        code, out, _ = run(capsys, "smith", "--matrix", str(path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "invariant factors: 2 4"
        assert lines[1] == "rank: 2"
        assert lines[2] == "cokernel: Z/2 ⊕ Z/4"

    def test_machine_payload(self, capsys, tmp_path):
        path = tmp_path / "m.matrix"
        path.write_text("1 2\n1 1\n")
        doc = run_machine(capsys, "smith", "--matrix", str(path))
        assert doc.result["d"] == [1]
        assert doc.result["cokernel"]["free_rank"] == 1

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "m.matrix"
        path.write_text("2 2\n1 2 3\n")
        code, _, err = run(capsys, "smith", "--matrix", str(path))
        assert code != 0
        assert "error:" in err

    SIDE, BIG = SMITH_MAX_SIDE, 2 ** SMITH_MAX_BITS

    @staticmethod
    def write(tmp_path, rows, cols, entries):
        path = tmp_path / "m.matrix"
        path.write_text(f"{rows} {cols}\n" + " ".join(map(str, entries)) + "\n")
        return str(path)

    @pytest.mark.parametrize("shape, entries, d", [
        ((SIDE, 1), [2] * SIDE, [2]),
        ((1, SIDE), [0] * (SIDE - 1) + [3], [3]),
        ((0, SIDE), [], []),
        ((2, 2), [BIG - 1, 0, 0, -(BIG - 1)], [BIG - 1, BIG - 1]),
    ], ids=["rows", "cols", "empty", "entry"])
    def test_at_the_bound_is_accepted(self, capsys, tmp_path, shape, entries, d):
        doc = run_machine(capsys, "smith", "--matrix", self.write(tmp_path, *shape, entries))
        assert doc.result["d"] == d

    @pytest.mark.parametrize("shape, entries", [
        ((SIDE + 1, 1), [2] * (SIDE + 1)),
        ((1, SIDE + 1), [0] * SIDE + [3]),
        ((0, SIDE + 1), []),
        ((2, 2), [BIG, 0, 0, 1]),
        ((2, 2), [1, 0, 0, -BIG]),
    ], ids=["rows", "cols", "empty", "entry", "negative-entry"])
    def test_above_the_bound_is_a_one_line_error(self, capsys, tmp_path, shape, entries):
        code, out, err = run(capsys, "smith", "--matrix", self.write(tmp_path, *shape, entries))
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("shape", [(SIDE + 1, 1), (1, SIDE + 1)], ids=["rows", "cols"])
    def test_a_header_above_the_bound_is_rejected_before_any_entry(self, capsys, tmp_path,
                                                                   shape):
        code, out, err = run(capsys, "smith", "--matrix", self.write(tmp_path, *shape, []))
        assert (code, out) == (2, "")
        assert err == f"error: the matrix needs rows and cols at most {self.SIDE}\n"

    @pytest.mark.parametrize("shape", [(SIDE, 1), (1, SIDE)], ids=["rows", "cols"])
    def test_a_header_at_the_bound_passes_the_header_check(self, capsys, tmp_path, shape):
        code, _, err = run(capsys, "smith", "--matrix", self.write(tmp_path, *shape, []))
        assert code == 2
        assert f"expected {self.SIDE} entries, got 0" in err


class TestTraceCommand:
    def test_machine_trace(self, capsys):
        doc = run_machine(capsys, "trace", "3")
        assert doc.result["kind"] == "induction-trace"
        assert doc.result["k0"]["text"] == "Z^4"
        kinds = [s["kind"] for s in doc.result["steps"]]
        assert kinds[0] == "base"
        assert kinds[-1] == "unreduced-assembly"

    def test_human_trace(self, capsys):
        code, out, _ = run(capsys, "trace", "2")
        assert code == 0
        assert "K^0 = Z^3" in out
        assert "five-lemma ok" in out

    def test_invalid_n(self, capsys):
        code, _, err = run(capsys, "trace", "0")
        assert code != 0

    # sha256 of the machine documents; a change to a trace must be
    # deliberate and re-pin these
    PINNED = {
        12: "b55173538b71b761251a25d3ec5169e25abe11f04a9da6383527a2e90cff357f",
        24: "1bca42d7c6c17a21a86724237065a9ff7cdc3d0127ae959f7382a3bce684553e",
    }

    @pytest.mark.parametrize("n", sorted(PINNED))
    def test_machine_trace_is_byte_identical(self, capsys, n):
        code, out, err = run(capsys, "--format", "machine", "trace", str(n))
        assert code == 0, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.PINNED[n]


def monogenic_times_z3_table() -> str:
    """<a | 7a = 3a> x Z/3 as a Cayley table, element x renamed (5x + 4) mod 21.

    Element 3i + j is (ia, j).  The identity is renamed 4, and the
    identity (4a, 0) of the least ideal {3a, .., 6a} x Z/3 is renamed 1.
    """
    def add(x, y):
        i, j = x // 3 + y // 3, (x + y) % 3
        return 3 * (i if i < 7 else 3 + (i - 3) % 4) + j
    rows = [[0] * 21 for _ in range(21)]
    for x in range(21):
        for y in range(21):
            rows[(5 * x + 4) % 21][(5 * y + 4) % 21] = (5 * add(x, y) + 4) % 21
    return "21 4\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)


class TestPinnedDocuments:
    # sha256 of machine documents; a change to one of them must be
    # deliberate and re-pin it.  The smith and groth documents echo the
    # file name, so their inputs are written to these relative names.
    FILES = {
        "m3.matrix": "3 3\n2 4 4\n-6 6 12\n10 -4 -16\n",
        "singular.matrix": "3 3\n2 4 6\n4 8 12\n0 0 6\n",
        "z3.table": "3 0\n0 1 2\n1 2 0\n2 0 1\n",
        "cap2.table": "3 0\n0 1 2\n1 2 2\n2 2 2\n",  # min(i + j, 2): not a group
        "mono12.table": monogenic_times_z3_table(),
    }
    PINNED = {
        ("smith", "--matrix", "m3.matrix"):
            "44aec71b93276b0c29e47afb03537d149b692bbc72c7ddc0885b6c8c099d3cc3",
        ("smith", "--matrix", "singular.matrix"):
            "e2c57742927d6d5700e72cc8eccc119f8a8522cf77142319e389062bf5b8dcff",
        ("groth", "--table", "z3.table"):
            "7ac6198ef94c3030f9f50a87f83d46f6201d127662095c45137b764a87d3e44a",
        ("groth", "--table", "cap2.table"):
            "f95bc78d7061f689578a1de426305a01e461bc8678744d5b1bd3912a9862911a",
        ("groth", "--table", "mono12.table"):
            "549b5a7aba90f5bd24872a851ddf06de19ae585086fcab6ccebd2e9e91f513ce",
        ("cohomology", "cpn:3"):
            "4ac026a658989c8b36a54c6572e281d6d7c4445017a0976f239ead13c586bffa",
        ("cohomology", "sphere:4", "--degree", "4"):
            "7b1d96061dfed004f0aaff24d4e01f404fe4e2ad03f747957643290e366d3941",
        ("kgroups", "cpn:5", "--q", "0"):
            "6b07ea94f41453e6350ce87be5d2d21980365d2bb0e33f26d024802097ef3cb8",
        ("kgroups", "cpn:5", "--q", "1"):
            "27ceaaacac679231df72bd4e839766ec48695a2f0c4d14e5b361eda99095064e",
        ("kgroups", "sphere:4"):
            "298be89a5f35774eb19df6118ee7ef022c997273ef9246b70523fedfbd299c7e",
        ("kgroups", "point"):
            "4d192ee10c467c0fd7dfef7d07b92a8b7da367b9c9943a033366844f10cea33a",
        ("bott-check",):
            "4aed129d3f90b1da63b4829a47b7325ae1fd7fb425c22059620d2ff13ab65aa9",
        ("newton", "--k", "20"):
            "cdf2301361f66a47485ee48a64195208bfe996dc3ae745f5e6be88049d046e2b",
        ("ring", "30"):
            "58173d9ab290dd7add8040e8a23f86ce01df912090cf45db38b4aa5db64a94df",
        ("ring", "0"):
            "17ed1e8fb3722e8f98fd6bb1397c66ae2a608561bc9def78cf9fb2d96370fc3d",
        ("ring", "100"):
            "56a1c8b62cf0676e98cd88c921b364005ee6c9068bebf5de3ab20adef81269f7",
        ("ch", "--rank", "5", "--chern", "1-3x+3x^2+x^3-3x^4+x^5", "--order", "16"):
            "50edd8274f4940a36303e5ebd2395789d5540c20f5b7e13951642fc088987beb",
        ("ch", "--rank", "0", "--chern", "1", "--order", "3"):
            "cb9f7d952cd549edab86d7a27e40e50107b2d2c9b78666e8f09f3963053978ed",
        ("ch", "cpn:40", "--class=-3,1,0,2,-1,0,0,3,1,-2,0,1,1,0,0,-1,2,0,0,0,1,"
                         "0,0,0,0,-1,0,0,0,0,2,0,0,0,0,0,0,0,0,0,1"):
            "1578c3186bc266029527af0faaec54ca9107c2aa9264dff6d744104246077a7c",
        ("newton", "--k", "8"):
            "ffb84922b9ccc5c84f29bf9ade865d72a5df5338713fc33f4e8fe17c0de25f03",
    }

    @pytest.mark.parametrize("argv", sorted(PINNED), ids=" ".join)
    def test_machine_document_is_byte_identical(self, capsys, tmp_path, monkeypatch, argv):
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "--format", "machine", *argv)
        assert code == 0, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.PINNED[argv]

    # sha256 of human reports, pinned the same way
    HUMAN_PINNED = {
        ("ring", "100"):
            "a4aaf8773f30bb015eea5233ac121b8e8df2aa019aae62763354decc8bc4e1b6",
    }

    @pytest.mark.parametrize("argv", sorted(HUMAN_PINNED), ids=" ".join)
    def test_human_report_is_byte_identical(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.HUMAN_PINNED[argv]


class TestSizeLimits:
    # each message names what the bound holds back: kgroups runs the
    # certified induction, not the replay
    MESSAGES = {"ring": "n must be at most 200",
                "trace": "the induction replay needs N at most 200",
                "kgroups": "the certified induction needs N at most 200"}

    @pytest.mark.parametrize("argv", [
        ("ring", "201"),
        ("ring", "1000000"),
        ("trace", "201"),
        ("kgroups", "cpn:201"),
        ("kgroups", "cpn:201", "--q", "1"),
    ])
    def test_above_the_bound_is_a_one_line_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {self.MESSAGES[argv[0]]}\n"

    def test_spheres_are_not_replayed_and_not_bounded(self, capsys):
        doc = run_machine(capsys, "kgroups", "sphere:201", "--q", "1")
        assert doc.result["text"] == "Z"

    @pytest.mark.parametrize("argv", [
        ("cohomology", f"cpn:{COHOMOLOGY_MAX_TOP // 2 + 1}"),
        ("cohomology", f"sphere:{COHOMOLOGY_MAX_TOP + 1}"),
        ("cohomology", f"sphere:{COHOMOLOGY_MAX_TOP + 1}", "--degree", "0"),
    ])
    def test_cohomology_above_the_bound_is_a_one_line_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:") and f"at most {COHOMOLOGY_MAX_TOP}" in err

    def test_cohomology_at_the_bound_is_accepted(self, capsys):
        top = COHOMOLOGY_MAX_TOP
        doc = run_machine(capsys, "cohomology", f"sphere:{top}", "--degree", str(top))
        assert doc.result["rows"][0]["text"] == "Z"
        doc = run_machine(capsys, "cohomology", f"cpn:{top // 2}", "--degree", str(top))
        assert doc.result["rows"][0]["text"] == "Z"


class TestBottCommand:
    def test_output(self, capsys):
        code, out, _ = run(capsys, "bott-check")
        assert code == 0
        assert "unimodular: yes" in out

    def test_machine(self, capsys):
        doc = run_machine(capsys, "bott-check")
        assert doc.result["matrix"] == [[1, 1], [0, 1]]
        assert doc.result["unimodular"] is True


# one corruption per verdict, each flipping that verdict alone
def double_retraction(monkeypatch):
    monkeypatch.setattr(_certify, "_retraction", lambda p, s: _certify.SparseMap(
        s, p + s, {p + i: {i: 2} for i in range(s)}))


def double_character_lead(monkeypatch):
    monkeypatch.setattr(ktheory, "CH_GAMMA_LEAD", 2)


def double_gamma_product(monkeypatch):
    product = ktheory.k_ring_mul
    monkeypatch.setattr(ktheory, "k_ring_mul", lambda a, b: product(a, b) * 2)


def refute_replay_exactness(monkeypatch):
    monkeypatch.setattr(homology, "is_exact_at", lambda sequence, i: False)


def refute_five_lemma(monkeypatch):
    monkeypatch.setattr(homology, "five_lemma_check", lambda ladder: False)


def singular_bott_matrix(monkeypatch):
    monkeypatch.setattr(ktheory, "bott_matrix",
                        lambda: IntegerMatrix.from_rows([[2, 0], [0, 1]]))


# the command line each reporting command runs in VERDICT_TABLE
VERDICT_LINES = {
    "trace": ("trace", "3", "--certificates"),
    "kgroups": ("kgroups", "cpn:3"),
    "bott-check": ("bott-check",),
}
STAGE_0 = "error: stage 0 of the certified induction for CP^3 fails its"
STEP_1 = "error: step 1 of the induction replay for CP^3 fails its"
# every (command, verdict name) the CLI can report at each kind of place, by test id: the
# corruption that flips it, the one stderr line it then gives with exit 3, which names the
# place, and whether the result is still printed
VERDICT_TABLE = {
    "trace exactness": ("trace", "exactness", double_retraction, f"{STAGE_0} exactness verdict",
                        True),
    "trace chern": ("trace", "chern", double_character_lead, f"{STAGE_0} chern verdict", True),
    "trace bott": ("trace", "bott", double_gamma_product, f"{STAGE_0} bott verdict", True),
    "trace replay exactness": ("trace", "exactness", refute_replay_exactness,
                               f"{STEP_1} exactness verdict", True),
    "trace five-lemma": ("trace", "five-lemma", refute_five_lemma,
                         f"{STEP_1} five-lemma verdict", True),
    # k_groups returns no group it could not certify
    "kgroups exactness": ("kgroups", "exactness", double_retraction,
                          f"{STAGE_0} exactness verdict", False),
    "kgroups chern": ("kgroups", "chern", double_character_lead, f"{STAGE_0} chern verdict",
                      False),
    "kgroups bott": ("kgroups", "bott", double_gamma_product, f"{STAGE_0} bott verdict", False),
    "bott-check unimodular": ("bott-check", "unimodular", singular_bott_matrix,
                              "error: the periodicity instance on the 2-sphere fails its "
                              "unimodular verdict", True),
}


def place(text):
    """The kind of place a verdict's where or a stderr line names: its numbers left out."""
    return re.sub(r"\d+", "N", text.removeprefix("error: ").partition(" fails its ")[0])


def stated_verdicts(argv):
    """Every verdict the command of argv states: those its run returns or raises, and those
    of each certified stage it reads, which k_groups raises only when one is false."""
    args = _read(list(argv))
    command = importlib.import_module(f"kproj._commands.{args.subcommand.replace('-', '_')}")
    read, verdicts = _certify.Stage.verdicts, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_certify.Stage, "verdicts",
                      lambda stage: verdicts.extend(read(stage)) or read(stage))
        try:
            verdicts += command.run(args)[2]
        except ktheory.FalseVerdictError as exc:
            verdicts += exc.verdicts
    return verdicts


class TestVerdictTable:
    @pytest.mark.parametrize("format_", ["human", "machine"])
    @pytest.mark.parametrize("command, name, corrupt, line, printed", VERDICT_TABLE.values(),
                             ids=list(VERDICT_TABLE))
    def test_a_false_verdict_is_exit_3_and_one_line(self, capsys, monkeypatch, format_,
                                                    command, name, corrupt, line, printed):
        corrupt(monkeypatch)
        code, out, err = run(capsys, "--format", format_, *VERDICT_LINES[command])
        assert (code, err) == (3, line + "\n")
        assert bool(out) is printed
        verdicts = stated_verdicts(VERDICT_LINES[command])
        assert {n for _, n, holds in verdicts if not holds} == {name}

    def test_every_stated_verdict_has_a_row(self, tmp_path, monkeypatch):
        # a good input of each subcommand; a verdict without a row fails here
        for file, text in TestPinnedDocuments.FILES.items():
            (tmp_path / file).write_text(text)
        monkeypatch.chdir(tmp_path)
        lines = {"cohomology": ("cohomology", "cpn:2"), "ring": ("ring", "3"),
                 "ch": ("ch", "cpn:3", "--class=0,1,0,0"), "newton": ("newton", "--k", "3"),
                 "groth": ("groth", "--table", "z3.table"),
                 "smith": ("smith", "--matrix", "m3.matrix"), **VERDICT_LINES}
        assert set(lines) == set(SUBCOMMANDS)
        for command, argv in lines.items():
            verdicts = stated_verdicts(argv)
            assert all(holds for _, _, holds in verdicts), command
            assert {(place(where), name) for where, name, _ in verdicts} == {
                (place(row[3]), row[1]) for row in VERDICT_TABLE.values()
                if row[0] == command}, command


class TestDocumentRoundtrip:
    COMMANDS = [
        ("cohomology", "cpn:3"),
        ("cohomology", "sphere:4", "--degree", "4"),
        ("kgroups", "sphere:3", "--q", "1"),
        ("ring", "3"),
        ("ch", "cpn:2", "--class", "1,2,3"),
        ("ch", "--rank", "1", "--chern", "1+x", "--order", "4"),
        ("newton", "--k", "4"),
        ("trace", "2"),
        ("bott-check",),
        ("smith", "--matrix", "m3.matrix"),
        ("groth", "--table", "z3.table"),
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: " ".join(a))
    def test_machine_output_roundtrips(self, capsys, tmp_path, monkeypatch, argv):
        # one object of four keys, written with sorted keys and an indent of two
        for name, text in TestPinnedDocuments.FILES.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "--format", "machine", *argv)
        assert code == 0, err
        doc = json.loads(out)
        assert set(doc) == {"format_version", "command", "inputs", "result"}
        assert doc["command"] == argv[0]
        assert doc["format_version"] == FORMAT_VERSION
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_human_and_machine_share_the_payload(self, capsys):
        code, human, _ = run(capsys, "kgroups", "cpn:2")
        doc = run_machine(capsys, "kgroups", "cpn:2")
        assert doc.result["text"] in human


class TestDoubleDashValue:
    # argparse reads "--opt=--" as an empty list; it used to escape as a traceback
    @pytest.mark.parametrize("argv", [
        ("ch", "--rank", "2", "--chern=--", "--order", "3"),
        ("ch", "cpn:2", "--class=--"),
        ("cohomology", "cpn:2", "--degree=--"),
        ("smith", "--matrix=--"),
    ], ids=" ".join)
    def test_is_a_one_line_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: '--' is not an option value\n"


class TestErrorForms:
    """kproj's own errors print one line; the argument parser's print its usage first."""

    @pytest.mark.parametrize("argv, last", [
        (("trace", "3", "--bogus"), "kproj: error: unrecognized arguments: --bogus"),
        (("--format",), "kproj: error: argument --format: expected one argument"),
        (("trace",), "kproj trace: error: the following arguments are required: n"),
    ], ids=" ".join)
    def test_argparse_errors_print_usage_then_the_error(self, capsys, argv, last):
        with pytest.raises(SystemExit) as exited:
            main(list(argv))
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert err[0].startswith("usage: kproj")
        assert err[-1] == last

    def test_errors_kproj_raises_are_one_line(self, capsys):
        code, out, err = run(capsys, "trace", "201")
        assert (code, out) == (2, "")
        assert err == "error: the induction replay needs N at most 200\n"


class TestTopLevel:
    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert "kproj" in out and "format" in out

    def test_no_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code != 0
        assert "usage" in err

    def test_each_subcommand_names_a_module_of_its_own(self):
        package = Path(kproj.__file__).resolve().parent / "_commands"
        modules = [name.replace("-", "_") for name in SUBCOMMANDS]
        assert sorted(modules) == sorted({p.stem for p in package.glob("*.py")} - {"__init__"})
        for module in modules:
            command = importlib.import_module(f"kproj._commands.{module}")
            assert callable(command.run) and callable(command.report)

    # the console script, run on this checkout: python -c ENTRY SRC KPROJ_ARGS...
    ENTRY = ("import sys; sys.path.insert(0, sys.argv.pop(1)); import kproj.cli; "
             "kproj.cli.main_entry()")
    SRC = str(Path(kproj.__file__).resolve().parent.parent)

    def test_a_reader_that_stops_early_gets_no_traceback(self):
        # trace 200 prints 233 KB, more than a pipe holds, so the write after
        # the reader closes its end fails
        proc = subprocess.Popen([sys.executable, "-c", self.ENTRY, self.SRC,
                                 "--format", "machine", "trace", "200"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""

    # an atexit hook, registered before kproj loads so that it runs last, that
    # reports whether the heap was frozen
    EXIT_PROBE = ("import atexit, gc, sys; atexit.register(lambda: sys.stderr.write("
                  "f'frozen at exit: {gc.get_freeze_count() > 0}\\n')); ")

    @pytest.mark.parametrize("argv", [
        ("--version",),
        ("--format", "machine", "trace", "3"),
        ("trace",),  # argparse exits 2 by raising SystemExit
    ], ids=" ".join)
    def test_the_console_script_runs_atexit_on_a_frozen_heap(self, capsys, argv):
        proc = subprocess.run([sys.executable, "-c", self.EXIT_PROBE + self.ENTRY, self.SRC,
                               *argv], capture_output=True, text=True, timeout=60)
        frozen = gc.get_freeze_count()
        try:
            code = main(list(argv))
        except SystemExit as exited:
            code = exited.code
        assert gc.get_freeze_count() == frozen  # main leaves its caller's heap alone
        captured = capsys.readouterr()
        assert proc.returncode == code
        assert proc.stdout == captured.out
        assert proc.stderr == captured.err + "frozen at exit: True\n"

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ("trace", "3"),  # fails on the flush after main
        ("--format", "machine", "trace", "64"),  # 74 KB: fails inside print
    ], ids=" ".join)
    def test_a_full_device_is_one_error_line(self, argv):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-c", self.ENTRY, self.SRC, *argv],
                                  stdout=full, stderr=subprocess.PIPE, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == b"error: [Errno 28] No space left on device\n"


def declared(parser, help=None):
    """{prog: (description, help, actions)} for parser and each of its subparsers.

    Each action is read as (option strings, dest, nargs, const, default,
    type name, choices, required, help, metavar), the attributes that
    decide argparse's help, usage and errors on every Python version.
    """
    rows = []
    found = {parser.prog: (parser.description, help, rows)}
    for action in parser._actions:
        rows.append((tuple(action.option_strings), action.dest, action.nargs, action.const,
                     action.default, getattr(action.type, "__name__", action.type),
                     None if action.choices is None else list(action.choices),
                     action.required, action.help, action.metavar))
        helps = {choice.dest: choice.help for choice in getattr(action, "_choices_actions", ())}
        for name, subparser in (action.choices.items() if helps else ()):
            found.update(declared(subparser, helps[name]))
    return found


class TestDeclaredParser:
    # build_parser() as it was before the grammar became a table; a change
    # here changes --help, usage or an error message
    HELP = (("-h", "--help"), "help", 0, None, "==SUPPRESS==", None, None, False,
            "show this help message and exit", None)
    SPACE = ((), "space", None, None, None, None, None, True,
             "space spec: cpn:N, sphere:M, or point", None)
    PARSER = {
        "kproj": ("Exact K-theory and cohomology computations for projective spaces and spheres.",
                  None, [
            HELP,
            (("--format",), "format", None, None, "human", None, ["human", "machine"], False,
             "output format (default: human)", None),
            (("--version",), "version", 0, True, False, None, None, False,
             "print library and format versions and exit", None),
            ((), "subcommand", "A...", None, None, None,
             ["cohomology", "kgroups", "ring", "ch", "trace", "newton", "groth", "smith",
              "bott-check"], False, None, None),
        ]),
        "kproj cohomology": (None, "integral cohomology of a space", [
            HELP,
            SPACE,
            (("--degree",), "degree", None, None, None, "int", None, False, None, None),
        ]),
        "kproj kgroups": (None, "K-group of a space in one degree", [
            HELP,
            SPACE,
            (("--q",), "q", None, None, 0, "int", None, False, None, None),
        ]),
        "kproj ring": (None, "the virtual-bundle ring on cpn:N", [
            HELP,
            ((), "n", None, None, None, "int", None, True, None, None),
        ]),
        "kproj ch": (None, "Chern character of a class or formal bundle", [
            HELP,
            ((), "space", "?", None, None, None, None, False,
             "ambient space cpn:N for the class form", None),
            (("--class",), "klass", None, None, None, None, None, False,
             "comma-separated coefficients against 1, γ, .., γ^n", None),
            (("--rank",), "rank", None, None, None, "int", None, False,
             "bundle rank (bundle form)", None),
            (("--chern",), "chern", None, None, None, None, None, False,
             'total Chern class, e.g. "1+2x+x^2" (bundle form)', None),
            (("--order",), "order", None, None, None, "int", None, False,
             "truncation order (bundle form)", None),
        ]),
        "kproj trace": (None, "replay the K-group induction for cpn:N", [
            HELP,
            ((), "n", None, None, None, "int", None, True, None, None),
            (("--certificates",), "certificates", 0, True, False, None, None, False,
             "add the certified induction: per stage its window, maps, splittings and verdicts",
             None),
        ]),
        "kproj newton": (None, "Newton polynomial s_k", [
            HELP,
            (("--k",), "k", None, None, None, "int", None, True, None, None),
        ]),
        "kproj groth": (None, "group completion of a Cayley-table monoid", [
            HELP,
            (("--table",), "table", None, None, None, None, None, True, "Cayley table file",
             None),
        ]),
        "kproj smith": (None, "Smith normal form of a matrix file", [
            HELP,
            (("--matrix",), "matrix", None, None, None, None, None, True,
             "matrix file: first line 'rows cols', then entries", None),
        ]),
        "kproj bott-check": (None, "periodicity instance on the 2-sphere", [
            HELP,
        ]),
    }

    def test_the_parser_declares_what_it_always_declared(self):
        assert declared(build_parser()) == self.PARSER


def argparse_namespace(argv):
    """vars() of what build_parser() makes of argv, or None where argparse exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(build_parser().parse_args(argv))
    except SystemExit:
        return None


FLAGS = sorted({*OPTIONS, *(name for _, arguments in SUBCOMMANDS.values()
                            for name in arguments if name.startswith("-"))})
NAMES = [*FLAGS, *SUBCOMMANDS]
VALUES = st.one_of(
    st.integers(-30, 300).map(str),
    st.sampled_from(["cpn:3", "sphere:4", "point", "human", "machine", "xml", "1+2x+x^2",
                     "0,1,0,0", "-1,1,0,0", "-1", "-x", "x", "3 ", "", "-", "--", "-h", "--help"]),
)
PREFIXES = st.sampled_from(NAMES).flatmap(
    lambda name: st.integers(1, len(name)).map(lambda k: name[:k]))
JOINED = st.tuples(st.one_of(st.sampled_from(FLAGS), PREFIXES), VALUES).map("=".join)
WORDS = st.one_of(st.sampled_from(NAMES), PREFIXES, JOINED, VALUES)


@st.composite
def command_lines(draw):
    """Top-level options, a subcommand and its arguments in any order, and stray words.

    Each argument is left out or given once: a flag, a value joined with =
    or given as the next word, or a positional value, mostly of its type.
    """
    def plausible(declared):
        if "choices" in declared:
            return st.sampled_from(declared["choices"])
        if "type" in declared:
            return st.integers(-3, 300).map(str)
        return st.sampled_from(["cpn:3", "0,1,0,0", "-1,1,0,0", "1+2x+x^2", "m3.matrix"])

    def spelt(arguments):
        groups = []
        for name, declared in arguments.items():
            value = draw(st.one_of(plausible(declared), VALUES))
            if not draw(st.booleans()):
                continue
            if not name.startswith("-"):
                groups.append([value])
            elif "action" in declared:
                groups.append([name])
            else:
                groups.append([f"{name}={value}"] if draw(st.booleans()) else [name, value])
        return [word for group in draw(st.permutations(groups)) for word in group]

    name = draw(st.sampled_from(list(SUBCOMMANDS)))
    argv = [*spelt(OPTIONS), name, *spelt(SUBCOMMANDS[name][1])]
    for stray in draw(st.lists(WORDS, max_size=1)):
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


class TestPlainReader:
    """_read gives argparse's namespace or None: never a different reading."""

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.lists(WORDS, max_size=8), command_lines()))
    @example(["ch", "cpn:3", "--class=-1,1,0,0"])
    @example(["ch", "--class=0,1", "cpn:1"])
    @example(["ch", "cpn:1", "--chern="])
    @example(["kgroups", "--q", "1", "cpn:2"])
    @example(["--version"])
    @example(["--format", "machine"])
    def test_the_reader_agrees_with_argparse(self, argv):
        read = _read(argv)
        assert read is None or vars(read) == argparse_namespace(argv)

    @pytest.mark.parametrize("argv", [
        ["--version"],
        ["--format", "machine", "--version", "trace", "3"],
        ["--format=machine", "kgroups", "cpn:16", "--q", "1"],
        ["trace", "3", "--certificates"],
        ["trace", "--certificates", "3"],
        ["kgroups", "--q", "1", "cpn:2"],
        ["cohomology", "sphere:4", "--degree=4"],
        ["ring", "20"],
        ["ch", "cpn:3", "--class=-1,1,0,0"],
        ["ch", "cpn:3", "--class", "0,1,0,0"],
        ["ch", "--rank", "2", "--chern", "1+2x+x^2", "--order", "3"],
        ["ch", "--rank=-2", "--chern=-1-x", "--order=3"],
        ["newton", "--k", "4"],
        ["groth", "--table", "z3.table"],
        ["smith", "--matrix", "m3.matrix"],
        ["bott-check"],
    ], ids=" ".join)
    def test_a_plain_command_line_is_read(self, argv):
        read = _read(argv)
        assert read is not None and vars(read) == argparse_namespace(argv)

    @pytest.mark.parametrize("argv", [
        [],  # no subcommand: main prints the usage
        ["--format", "machine"],
        ["-h"], ["--help"], ["trace", "-h"],
        ["--form", "machine", "ring", "2"], ["trace", "3", "--cert"], ["tr", "3"],  # abbreviations
        ["trace", "3", "--bogus"], ["trace", "3", "--format", "machine"],  # unknown here
        ["--format"], ["kgroups", "cpn:3", "--q"], ["ring", "x"], ["--format", "xml", "ring", "1"],
        ["kgroups", "cpn:3", "--q", "-1"], ["ch", "cpn:3", "--class", "-1,1,0,0"],  # separate -…
        ["ch", "cpn:2", "--class=--"], ["ch", "cpn:2", "--class=--x"],  # joined --…
        ["trace", "3", "--certificates=1"], ["--version=yes"],
        ["trace"], ["ring", "1", "2"], ["bott-check", "x"], ["ch", "--class=0,1", "cpn:1"],
        ["newton"], ["groth"],
        ["ring", "-1"], ["ring", "-"], ["ring", "--", "2"], ["--", "ring", "2"],
    ], ids=lambda argv: " ".join(argv) or "(empty)")
    def test_any_other_command_line_is_left_to_argparse(self, argv):
        assert _read(argv) is None
