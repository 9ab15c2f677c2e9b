"""The certified induction: its windows, splittings and verdicts, the verifier, and exit 3.

Each mutation corrupts one input of the certifier, or one field of a
certificate document, and must flip exactly the verdicts it targets,
stage by stage.  The chern and bott verdicts read the sphere class, the
generator's image, so a corrupted generator at stage k flips exactness
and chern there and bott at stages k and k + 1; the restriction, the
retraction and the section flip exactness alone; the x-coefficient of
ch(γ) flips chern at every stage, and the γ product bott.
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kproj._certify as certify_module
import kproj.ktheory as ktheory_module
from kproj._certify import SparseMap, stages
from kproj.cli import main
from kproj.ktheory import (FalseVerdictError, KClass, Space, chern_character_map, k_groups,
                           replay_induction)
from kproj.linalg import FgAbelianGroup

from oracles import verify_certificates


def failing(verdicts) -> set[str]:
    """The names of the false verdicts among per-stage {exactness, chern, bott} dicts."""
    return {name for v in verdicts for name, holds in (
        ("exactness", all(v["exactness"])), ("chern", v["chern"]), ("bott", v["bott"]))
        if not holds}


def failing_by_stage(verdicts) -> list[set[str]]:
    """The names of the false verdicts of each stage, in stage order."""
    return [failing([v]) for v in verdicts]


def stage_verdicts(n):
    return [{"exactness": s.exactness, "chern": s.chern, "bott": s.bott} for s in stages(n)]


def certificate_document(capsys, n, expected_code=0):
    assert main(["--format", "machine", "trace", str(n), "--certificates"]) == expected_code
    return json.loads(capsys.readouterr().out)


class TestCertifier:
    def test_stage_windows_on_gamma_powers(self):
        certified = list(stages(4))
        assert [s.ranks for s in certified] == [(1, k + 1, k, 0, 0, 0) for k in range(4)]
        assert all(holds for s in certified for _, _, holds in s.verdicts())
        stage = certified[2]
        generator, restriction = stage.maps[:2]
        assert generator == SparseMap(3, 1, {0: {2: 1}})  # the sphere generator is γ^3
        assert restriction == SparseMap(2, 3, {0: {0: 1}, 1: {1: 1}})  # γ^3 restricts to 0
        assert all(m.columns == {} for m in stage.maps[2:])  # connecting maps and K^1 are zero
        assert (stage.chern, stage.bott) == (True, True)  # read off γ^3 and γ^2 alone

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_the_character_lead_is_the_x_coefficient_of_ch_gamma(self, n):
        # the Chern verdict reads λ from ktheory.CH_GAMMA_LEAD, not from the character
        assert chern_character_map(KClass.gamma(n)).coeffs[1] == ktheory_module.CH_GAMMA_LEAD

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_every_verdict_holds_and_concludes_the_groups(self, n):
        verdicts = stage_verdicts(n)
        assert len(verdicts) == n
        assert failing(verdicts) == set()
        assert [k_groups(Space.cpn(n), q) for q in (0, 1)] == [FgAbelianGroup.free(n + 1),
                                                               FgAbelianGroup.trivial()]

    def test_the_point_has_no_stage(self):
        assert list(stages(0)) == []

    @pytest.mark.parametrize("bad", [-1, True, 2.0, "3"])
    def test_a_bad_n_is_a_value_error(self, bad):
        with pytest.raises(ValueError):
            next(stages(bad))

    def test_a_failed_identity_is_false_not_an_error(self):
        exactness = certify_module._exactness
        # the half Z -> Z^2 -> Z of stage 1, split by r and σ, and a zero K^1 half
        ranks, maps, ((r, section), odd) = certify_module._window((1, 0), (1, 0))
        assert exactness(ranks, maps, ((r, section), odd)) == (True,) * 6
        for split, verdicts in [
            ((r, SparseMap.identity(3)), (True, False, False)),  # shapes that do not compose
            ((SparseMap.zero(1, 2), section), (False, False, True)),  # r f != I
            ((r, SparseMap.zero(2, 1)), (True, False, False)),  # g σ != I
        ]:
            assert exactness(ranks, maps, (split, odd)) == verdicts + (True,) * 3
        # a rank the maps do not act on
        assert exactness((1, 2, 2) + ranks[3:], maps, ((r, section), odd)) == (
            True, True, False, True, True, True)

    def test_sparse_products_cost_their_nonzeros(self):
        # a 10^6 x 10^6 map with two nonzeros composes without reading its zeros
        big = 10 ** 6
        a = SparseMap(big, big, {0: {5: 3}, 7: {0: -1}})
        b = SparseMap(big, 3, {0: {0: 2}, 1: {7: 1}, 2: {9: 4}})
        assert certify_module._compose(a, b) == SparseMap(big, 3, {0: {5: 6}, 1: {0: -1}})
        # a column with two entries is none the certificate forms: it fails closed
        assert certify_module._compose(a, SparseMap(big, 2, {0: {0: 2}, 1: {7: 1, 0: 1}})) is None
        assert certify_module._add(a, SparseMap(big, big, {9: {1: 4}})) == SparseMap(
            big, big, {0: {5: 3}, 7: {0: -1}, 9: {1: 4}})
        # a sum whose columns overlap is none the certificate forms: it fails closed
        assert certify_module._add(a, a) is None
        assert certify_module._add(a, SparseMap(big, big, {0: {5: -3}, 9: {1: 4}})) is None
        # so do a missing factor and factors whose shapes do not compose
        for left, right in ((None, b), (a, None), (b, a)):
            assert certify_module._compose(left, right) is None


# one corrupted map of the certifier each: (name, replacement, the false verdicts of
# stages 0..4, in the certifier and in the verifier alike)
def double_generator(p, s):
    return SparseMap(p + s, s, {i: {p + i: 2} for i in range(s)})


def drop_restriction_coordinate(p, s):
    return SparseMap(p, p + s, {j: {j: 1} for j in range(1, p)})


def doubled_section(p, s):
    return SparseMap(p + s, p, {j: {j: 2} for j in range(p)})


def doubled_retraction(p, s):
    return SparseMap(s, p + s, {p + i: {i: 2} for i in range(s)})


EXACTNESS, CHERN, BOTT = {"exactness"}, {"chern"}, {"bott"}
# a wrong sphere class at stage k: its window and character fail, and so does the
# link γ · c_(k-1) = c_k at stages k and k + 1
LINKED = [EXACTNESS | CHERN | BOTT, BOTT]
# stage 0 has p = 0: its restriction and section are empty, so their corruptions miss it
MAPS_ONLY = [set()] + [EXACTNESS] * 4
# 2γ^(k+1) at every stage: γ · 2γ^k = 2γ^(k+1) from stage 1 on, but γ · 1 != 2γ at stage 0
DOUBLED = [EXACTNESS | CHERN | BOTT] + [EXACTNESS | CHERN] * 4
CERTIFIER_MUTATIONS = [
    ("_generator", double_generator, DOUBLED),
    ("_restriction", drop_restriction_coordinate, MAPS_ONLY),
    ("_section", doubled_section, MAPS_ONLY),
    ("_retraction", doubled_retraction, [EXACTNESS] * 5),
]


def at_stage(k, make, replacement):
    """make, building replacement in place of the map of stage k's even half (p = k)."""
    return lambda p, s: replacement if p == k else make(p, s)


# the sphere class of stage k replaced by another: (name, k, the generator's map, the
# retraction's map or None to keep it, the false verdicts of stages k and k + 1)
SPHERE_CLASSES = [
    # -2γ^2 + γ^3 on CP^3: its γ^3 coefficient is 1 and ch = -2x^2 - x^3 ends in -x^3,
    # but the lower term stays
    ("lower_term", 2, SparseMap(3, 1, {0: {1: -2, 2: 1}}), None, LINKED),
    ("outside_the_space", 3, SparseMap(5, 1, {0: {4: 1}}), None, LINKED),  # γ^5, not in K(CP^4)
    # -γ^3, with the retraction negated to match: the window stays exact and
    # ch(-γ^3) = -x^3 is still a generator, but γ · γ^2 = γ^3
    ("negated", 2, SparseMap(3, 1, {0: {2: -1}}), SparseMap(1, 3, {2: {0: -1}}), [BOTT, BOTT]),
]


class TestCertifierMutations:
    @pytest.mark.parametrize("name, corrupt, flipped", CERTIFIER_MUTATIONS,
                             ids=[m[0] for m in CERTIFIER_MUTATIONS])
    def test_a_corrupted_input_flips_exactly_its_verdict(self, monkeypatch, capsys, name, corrupt,
                                                         flipped):
        monkeypatch.setattr(certify_module, name, corrupt)
        assert failing_by_stage(stage_verdicts(5)) == flipped
        doc = certificate_document(capsys, 5, expected_code=3)
        assert failing_by_stage(verify_certificates(doc)) == flipped

    def test_a_corrupted_character_lead_flips_chern(self, monkeypatch, capsys):
        monkeypatch.setattr(ktheory_module, "CH_GAMMA_LEAD", 2)
        assert failing_by_stage(stage_verdicts(5)) == [CHERN] * 5
        # the verifier reads the maps alone, which are sound: it disagrees with the document
        doc = certificate_document(capsys, 5, expected_code=3)
        assert failing(verify_certificates(doc)) == set()

    @pytest.mark.parametrize("k, image, retraction, flipped", [c[1:] for c in SPHERE_CLASSES],
                             ids=[c[0] for c in SPHERE_CLASSES])
    def test_a_wrong_sphere_class_fails_chern_and_bott(self, monkeypatch, capsys, k, image,
                                                       retraction, flipped):
        for name, replacement in (("_generator", image), ("_retraction", retraction)):
            if replacement is not None:
                monkeypatch.setattr(certify_module, name,
                                    at_stage(k, getattr(certify_module, name), replacement))
        expected = [set()] * k + flipped + [set()] * (3 - k)
        assert failing_by_stage(stage_verdicts(5)) == expected
        doc = certificate_document(capsys, 5, expected_code=3)
        assert failing_by_stage(verify_certificates(doc)) == expected

    def test_an_odd_sphere_row_reaches_k1(self, monkeypatch):
        # Z in the odd dimensions from 5 up: the odd halves carry it up the induction
        table = ktheory_module.reduced_sphere_k
        monkeypatch.setattr(ktheory_module, "reduced_sphere_k",
                            lambda i: FgAbelianGroup.free(1) if i % 2 and i >= 5 else table(i))
        assert failing(stage_verdicts(3)) == set()
        assert k_groups(Space.cpn(3), 1) == FgAbelianGroup.free(2)

    def test_a_corrupted_gamma_product_flips_bott(self, monkeypatch):
        product = ktheory_module.k_ring_mul
        monkeypatch.setattr(ktheory_module, "k_ring_mul", lambda a, b: product(a, b) * 2)
        assert failing(stage_verdicts(5)) == {"bott"}

    def test_the_section_is_checked_where_it_is_a_witness(self, monkeypatch):
        # the section enters f r + σ g = I at the middle and g σ = I at the quotient
        monkeypatch.setattr(certify_module, "_section", doubled_section)
        stage = list(stages(3))[2]
        assert stage.exactness == (True, False, False, True, True, True)

    def test_the_retraction_is_checked_at_the_sphere_and_the_middle(self, monkeypatch):
        # the retraction enters r f = I at the sphere and f r + σ g = I at the middle
        monkeypatch.setattr(certify_module, "_retraction", doubled_retraction)
        assert {s.exactness for s in stages(5)} == {(False, False, True, True, True, True)}


class TestCheckOnce:
    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_each_stage_makes_14_products_and_2_sums(self, monkeypatch, n):
        # per half: three composites that must vanish, r f, f r + σ g and g σ
        counts = Counter()
        for name in ("_compose", "_add"):
            def counted(a, b, work=getattr(certify_module, name), name=name):
                counts[name] += 1
                return work(a, b)
            monkeypatch.setattr(certify_module, name, counted)
        per_stage = []
        for _ in stages(n):  # stage k's work is done by the time it is yielded
            per_stage.append(dict(counts))
            counts.clear()
        assert per_stage == [{"_compose": 14, "_add": 2}] * n

    @pytest.mark.parametrize("n", [1, 7, 50])
    def test_a_certificate_holds_n_times_n_plus_1_nonzeros(self, capsys, n):
        # stage k: γ^(k+1) and its retraction one each, restriction and section k each
        certified = certificate_document(capsys, n)["result"]["certificates"]["stages"]
        assert sum(len(m["entries"]) for stage in certified
                   for m in stage["maps"] + [m for split in stage["splittings"]
                                             for m in split.values()]) == n * (n + 1)


# one corruption per verdict of a stage's document: (name, edit, verdict)
def edit_generator(stage):
    stage["maps"][0]["entries"][0][2] = 2


def edit_restriction(stage):
    stage["maps"][1]["entries"].pop(0)


def edit_retraction(stage):
    stage["splittings"][0]["retraction"]["entries"][0][2] = 2


def edit_section(stage):
    stage["splittings"][0]["section"]["entries"][0][2] = 2


def edit_lower_power(stage):
    stage["maps"][0]["entries"][0][0] -= 1  # the sphere class γ^(k+1) becomes γ^k


def edit_sphere_class(stage):
    # -γ^(k+1), with the retraction negated to match: the window stays exact and
    # ch(-γ^(k+1)) = -x^(k+1) is still a generator, but γ · c_(k-1) = γ^(k+1)
    stage["maps"][0]["entries"][0][2] = -1
    stage["splittings"][0]["retraction"]["entries"][0][2] = -1


# the false verdicts of stages 3 and 4 after an edit of stage 3
DOCUMENT_MUTATIONS = [
    ("generator", edit_generator, LINKED),
    ("restriction", edit_restriction, [EXACTNESS, set()]),
    ("retraction", edit_retraction, [EXACTNESS, set()]),
    ("section", edit_section, [EXACTNESS, set()]),
    ("lower_power", edit_lower_power, LINKED),
    ("sphere_class", edit_sphere_class, [BOTT, BOTT]),
]


class TestVerifier:
    @settings(max_examples=4, deadline=None)
    @given(st.integers(1, 200))
    @example(1)
    @example(200)
    def test_the_verifier_agrees_with_every_document(self, n):
        # capsys does not reset between hypothesis examples, so read main's
        # document through a fresh redirect
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["--format", "machine", "trace", str(n), "--certificates"]) == 0
        doc = json.loads(out.getvalue())
        verdicts = verify_certificates(doc)
        certified = doc["result"]["certificates"]["stages"]
        assert len(verdicts) == n
        assert verdicts == [s["verdicts"] for s in certified]
        assert failing(verdicts) == set()
        assert certified[-1]["ranks"][1] + 1 == doc["result"]["k0"]["free_rank"] == n + 1

    @pytest.mark.parametrize("name, edit, flipped", DOCUMENT_MUTATIONS,
                             ids=[m[0] for m in DOCUMENT_MUTATIONS])
    def test_a_corrupted_document_flips_exactly_its_verdict(self, capsys, name, edit, flipped):
        doc = certificate_document(capsys, 6)
        edit(doc["result"]["certificates"]["stages"][3])
        assert failing_by_stage(verify_certificates(doc)) == [set()] * 3 + flipped + [set()]

    def test_a_corrupted_retraction_fails_the_sphere_and_the_middle(self, capsys):
        doc = certificate_document(capsys, 6)
        edit_retraction(doc["result"]["certificates"]["stages"][3])
        assert verify_certificates(doc)[3]["exactness"] == [False, False, True, True, True, True]

    # the stored document of `kproj --format machine trace 3 --certificates`
    STORED = Path(__file__).parent / "data" / "trace_cpn3_certificates.json"
    # verify it in an interpreter where any import of kproj fails
    ALONE = ("import json, sys; sys.modules['kproj'] = None; sys.path.insert(0, sys.argv[1]); "
             "import oracles; "
             "print(json.dumps(oracles.verify_certificates(json.load(open(sys.argv[2])))))")

    def test_the_verifier_runs_without_kproj(self, capsys):
        proc = subprocess.run([sys.executable, "-c", self.ALONE, str(Path(__file__).parent),
                               str(self.STORED)], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        stored = self.STORED.read_text(encoding="utf-8")
        verdicts = json.loads(proc.stdout)
        assert verdicts == [s["verdicts"]
                            for s in json.loads(stored)["result"]["certificates"]["stages"]]
        assert len(verdicts) == 3 and failing(verdicts) == set()
        assert main(["--format", "machine", "trace", "3", "--certificates"]) == 0
        assert capsys.readouterr().out == stored

    def test_a_broken_induction_link_fails_the_next_stage(self, capsys):
        doc = certificate_document(capsys, 4)
        stage = doc["result"]["certificates"]["stages"][2]
        stage["ranks"][2] += 1  # claims a larger smaller space than stage 1 concluded
        assert [all(v["exactness"]) for v in verify_certificates(doc)] == [
            True, True, False, True]


class TestAgreementWithTheReplay:
    @settings(max_examples=6, deadline=None)
    @given(st.integers(1, 200))
    @example(1)
    @example(2)
    def test_the_groups_agree_with_the_replay(self, n):
        trace = replay_induction(n)
        assert [k_groups(Space.cpn(n), q) for q in (0, 1)] == [trace.k0, trace.k1]

    def test_every_stage_agrees_with_the_replay_conclusions(self):
        # stage k concludes the groups of CP^(k+1) whatever n is, so this covers
        # n = 1..200: replay_induction(n) for each n would take about 30 s
        steps = replay_induction(200).steps
        certified = list(stages(200))
        for stage in certified[1:]:
            k = stage.k
            reduced, odd = (FgAbelianGroup.free(r).render() for r in stage.ranks[1::3])
            assert steps[2 * k - 1].conclusion == f"reduced K(CP^{k + 1}) = {reduced}"
            assert steps[2 * k].conclusion == f"K^1(CP^{k + 1}) = {odd}"
        assert FgAbelianGroup.free(certified[0].ranks[1]) == replay_induction(1).reduced_k0


class TestFalseVerdictExit:
    @pytest.fixture
    def stage_3_corrupted(self, monkeypatch):
        generator = certify_module._generator
        monkeypatch.setattr(certify_module, "_generator",
                            lambda p, s: double_generator(p, s) if p == 3 else generator(p, s))

    def test_k_groups_raise_a_false_verdict_error(self, stage_3_corrupted):
        with pytest.raises(FalseVerdictError, match="stage 3 .* CP\\^5 fails its "
                                                     "exactness and chern and bott verdict$"):
            k_groups(Space.cpn(5), 0)
        assert not issubclass(FalseVerdictError, ValueError)
        assert k_groups(Space.cpn(3), 0) == FgAbelianGroup.free(4)  # stages 0..2 hold

    @pytest.mark.parametrize("q", ["0", "1"])
    def test_kgroups_exits_3_with_one_error_line(self, capsys, stage_3_corrupted, q):
        code = main(["kgroups", "cpn:5", "--q", q])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: stage 3 of the certified induction for CP^5 fails its exactness and chern "
            "and bott verdict"]

    def test_trace_prints_the_false_verdict_then_exits_3(self, capsys, stage_3_corrupted):
        doc = certificate_document(capsys, 5, expected_code=3)
        certificates = doc["result"]["certificates"]
        assert certificates["certified"] is False
        expected = [set()] * 3 + [EXACTNESS | CHERN | BOTT, BOTT]
        assert failing_by_stage(s["verdicts"] for s in certificates["stages"]) == expected
        assert failing_by_stage(verify_certificates(doc)) == expected

    def test_the_human_trace_marks_the_stage_and_exits_3(self, capsys, stage_3_corrupted):
        assert main(["trace", "5", "--certificates"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == [
            "certified stage 3: Z -> Z^4 -> Z^3 -> 0 -> 0 -> 0 "
            "[exactness FAILED; chern FAILED; bott FAILED]",
            "certified stage 4: Z -> Z^5 -> Z^4 -> 0 -> 0 -> 0 "
            "[exactness ok; chern ok; bott FAILED]",
        ]

    def test_bad_input_still_exits_2(self, capsys):
        assert main(["trace", "201", "--certificates"]) == 2
        assert main(["kgroups", "cpn:201"]) == 2


class TestTraceCertificates:
    # sha256 of outputs that read the certifier; a change to one must be
    # deliberate and re-pin it
    PINNED = {
        ("trace", "6", "--certificates"):
            "05345f586991a35815128ff22bdeef146e86d516021460718ff81ab6a43de5d7",
        ("--format", "machine", "kgroups", "cpn:6", "--q", "0"):
            "f5742346c9579ba9f35b4febf2476bbda76a0e677d515a45622c9b2ed34b40fd",
    }

    @pytest.mark.parametrize("argv", sorted(PINNED), ids=" ".join)
    def test_the_output_is_byte_identical(self, capsys, argv):
        assert main(list(argv)) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.PINNED[argv]

    def test_the_human_report_builds_no_payload(self, capsys, monkeypatch):
        def refuse(stage):
            raise AssertionError("a stage payload built for the human report")
        monkeypatch.setattr(certify_module.Stage, "payload", refuse)
        assert main(["trace", "6", "--certificates"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [x.split(":")[0] for x in lines[-6:]] == [f"certified stage {k}" for k in range(6)]

    def test_the_flag_adds_one_member_and_one_line_per_stage(self, capsys):
        assert main(["--format", "machine", "trace", "3"]) == 0
        plain = json.loads(capsys.readouterr().out)
        doc = certificate_document(capsys, 3)
        assert doc["inputs"] == {"n": 3, "certificates": True}
        certificates = doc["result"].pop("certificates")
        assert doc["result"] == plain["result"]
        assert certificates["certified"] is True
        assert [s["window"] for s in certificates["stages"]][2] == [
            "reduced K(S^6)", "reduced K(CP^3)", "reduced K(CP^2)",
            "K^1(S^6)", "K^1(CP^3)", "K^1(CP^2)"]
        assert main(["trace", "3", "--certificates"]) == 0
        human = capsys.readouterr().out.splitlines()
        assert main(["trace", "3"]) == 0
        assert human[:-3] == capsys.readouterr().out.splitlines()
        assert human[-3:] == [
            f"certified stage {k}: Z -> {FgAbelianGroup.free(k + 1).render()} -> "
            f"{FgAbelianGroup.free(k).render()} -> 0 -> 0 -> 0 "
            "[exactness ok; chern ok; bott ok]" for k in range(3)]
