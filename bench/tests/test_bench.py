"""Self-tests of the benchmark: seeded inputs, failure accounting, tracing.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import expected  # noqa: E402
import run  # noqa: E402
import sample  # noqa: E402
import workloads  # noqa: E402


def _inputs_text(workload, seed, index=0):
    return json.dumps(workloads.make_inputs(workload, seed, index), sort_keys=True)


def test_runner_knows_every_workload_and_metric():
    assert set(run.WORKLOADS) == set(workloads.PARTS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    assert _inputs_text(workload, 7) == _inputs_text(workload, 7)
    assert len({_inputs_text(workload, seed) for seed in range(6)}) > 1
    assert _inputs_text(workload, 7, 0) != _inputs_text(workload, 7, 1)


def test_fixture_files_are_byte_identical_for_a_seed():
    texts = [[workloads.fixture_text(fx["presentation"])
              for fx in workloads.make_inputs("engine", 3, 0)["fk-stress"]["fixtures"]]
             for _ in range(2)]
    assert texts[0] == texts[1]


def test_census_inputs_spread_every_mu_over_the_valid_lambdas():
    assignment = workloads.make_inputs("engine", 5, 0)["census"]["assignment"]
    assert sorted(lam for lam, _ in assignment) == sorted(expected.VALID_LAMBDAS)
    mus = [mu for _, chunk in assignment for mu in chunk]
    assert sorted(mus) == list(expected.ALL_BITS)


def test_parameter_conditions_give_the_paper_counts():
    assert len(expected.VALID_LAMBDAS) == 8
    assert len(expected.VALID_PAIRS) == expected.PAIR_COUNT


def test_faithful_representation_separates_normal_forms():
    # x2 x1 = x1 x2 - 1/2 x1 x1 in the Jordan plane
    assert workloads._faithful_match("x2 x1", [["x1 x2", "1"], ["x1 x1", "-1/2"]])
    assert not workloads._faithful_match("x2 x1", [["x1 x2", "1"], ["x1 x1", "1/2"]])
    assert not workloads._faithful_match("x2 x1", [["x1 x2", "1"]])


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    """One executed sample per workload: {workload: (inputs, outputs)}."""
    out = {}
    for workload in run.WORKLOADS:
        inputs = workloads.make_inputs(workload, 2, 0)
        _, outputs = workloads.execute(inputs, str(tmp_path_factory.mktemp(workload)))
        out[workload] = (inputs, outputs)
    return out


def _failed(ops):
    return sum(1 for _, ok, _ in ops if not ok)


@pytest.mark.parametrize("workload, name, wrong, failures", [
    ("certify", "GALOIS_RANK", 5185, 10),
    ("engine", "E4_TOTAL", 577, 3),
    ("engine", "JORDAN_PER_LENGTH", [1, 4, 9, 16, 25, 36, 50], 3),
])
def test_wrong_expected_value_is_counted_as_failed(samples, monkeypatch, workload,
                                                   name, wrong, failures):
    inputs, outputs = samples[workload]
    assert _failed(workloads.check(inputs, outputs)) == 0
    monkeypatch.setattr(expected, name, wrong)
    assert _failed(workloads.check(inputs, outputs)) == failures


def test_wrong_expected_value_reaches_the_sample_report(capsys, monkeypatch):
    monkeypatch.setattr(expected, "E4_TOTAL", 577)
    assert sample.main(["--workload", "engine", "--seed", "2"]) == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["failed"] == 3 and doc["attempted"] > 3


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_and_untraced_runs_give_identical_outputs(workload):
    docs = []
    for trace in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "sample.py"), "--workload", workload,
             "--seed", "4", "--trace", trace],
            cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
        docs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    plain, traced = docs
    assert plain["failed"] == traced["failed"] == 0
    assert plain["digest"] == traced["digest"]
    names = {row["name"] for row in traced["spans"]}
    assert "rewrite.complete" in names and "spans" not in plain


def test_runner_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
