"""Tests for the benchmark itself.  Run with: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from layers import PER_LAYER, PassTally
from run import END_TO_END, ROOT, SRC, kproj_cmd
from workloads import (
    WORKLOADS,
    bundle_character,
    class_character,
    elementary_at,
    elimination,
    invariant_chains,
    make_jobs,
)

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def traced(tmp_path: Path, *argv: str) -> dict:
    """Per-layer metrics of one job run under the shim."""
    spans = tmp_path / "spans.json"
    subprocess.run([sys.executable, str(BENCH / "shim.py"), str(SRC), str(spans), "--",
                    "--format", "machine", *argv],
                   check=True, capture_output=True, timeout=120)
    tally = PassTally()
    tally.add_job(json.loads(spans.read_text(encoding="utf-8")), 1)
    return tally.metrics()


@pytest.mark.parametrize("trace, expected", [(0, END_TO_END), (1, PER_LAYER)])
def test_every_workload_emits_every_metric(trace, expected):
    proc = bench("--workload", "all", "--seed", "3", "--seconds", "0.1", "--tiny",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {f"{w}.{name}": unit for w in WORKLOADS for name, unit in expected.items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace:
        # each workload bypasses the layers its description says it bypasses
        value = {k: v["value"] for k, v in result["metrics"].items()}
        assert value["ring_ch.linalg.IntegerMatrix.constructed"] == 0
        assert value["replay.truncpoly.TruncPoly.mul.calls"] == 0
        assert value["dense_smith.homology.is_exact_at.calls"] == 0
        assert value["completion.grothendieck.completion.calls"] > 0


def test_single_workload_result_line():
    proc = bench("--workload", "completion", "--seed", "5", "--seconds", "0.1", "--tiny")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "replay", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_same_seed_same_inputs(tmp_path):
    for workload in WORKLOADS:
        a, b = tmp_path / f"{workload}-a", tmp_path / f"{workload}-b"
        a.mkdir()
        b.mkdir()
        jobs_a = make_jobs(workload, 7, a)
        jobs_b = make_jobs(workload, 7, b)
        assert [j.label().replace(str(a), "") for j in jobs_a] == \
               [j.label().replace(str(b), "") for j in jobs_b]
        for f in a.iterdir():
            assert f.read_bytes() == (b / f.name).read_bytes()


def test_replay_counts_repeat_exactly(tmp_path):
    m = traced(tmp_path, "trace", "20")
    assert m["linalg.smith_normal_form.calls"] == 1558
    windows = 2 * (20 - 1)
    assert m["homology.is_exact_at.calls"] == 9 * windows
    assert m["homology.is_exact_at.distinct_ratio"] == pytest.approx(1 / 3)
    assert m["ktheory.k_ring_mul.calls"] == 0


def test_dense_smith_job_runs_smith_twice(tmp_path):
    matrix = tmp_path / "m.matrix"
    matrix.write_text("3 3\n2 4 4\n-6 6 12\n10 -4 -16\n", encoding="utf-8")
    m = traced(tmp_path, "smith", "--matrix", str(matrix))
    assert m["linalg.smith_normal_form.calls"] == 2
    assert m["linalg.smith_normal_form.d_only_ratio"] == 0.5
    assert m["linalg.smith_normal_form.max_dim"] == 3


def test_oracles_on_known_values():
    assert elimination([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == (3, -144)
    assert elimination([[1, 2], [2, 4], [3, 6]]) == (1, 0)
    assert class_character([0, 1, 0, 0]) == [0, 1, Fraction(1, 2), Fraction(1, 6)]
    assert bundle_character(2, [1, 2, 1], 2) == [2, 2, 1]
    assert len(invariant_chains(16)) == 5 and [2, 2, 2] in invariant_chains(8)
    assert elementary_at([1, 2, 3], 4) == [1, 6, 11, 6, 0]


@pytest.mark.xfail(strict=True, reason="argparse reads a leading minus in --class as an "
                                       "option; ring_ch passes --class=... instead")
def test_negative_leading_class_coefficient():
    proc = subprocess.run(kproj_cmd(["ch", "cpn:3", "--class", "-1,1,0,0"]),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
