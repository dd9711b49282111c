"""Tiny-size smoke test of the benchmark.

    python3 -m pytest perfbench

Runs the benchmark's own entry point on shrunken workloads (n = 6 algebra,
the flat CE(1) chart) and checks the contract of its output: metric names and
units, exact repeat of every count, and that a corrupted output is counted as
a failed unit.
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads.Algebra, "dims", (6,))
    monkeypatch.setattr(workloads.Identities, "charts", ("CE(1)",))


def _bench(capsys, *argv):
    code = run.main(list(argv))
    captured = capsys.readouterr()
    print(captured.err, file=sys.stderr)
    return code, json.loads(captured.out.strip().splitlines()[-1])


def _assert_contract(result, expected_units):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(expected_units)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert metric["unit"] == expected_units[name] and metric["unit"]
        assert isinstance(metric["value"], (int, float))


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_algebra_run(tiny, capsys, trace):
    code, result = _bench(capsys, "--workload", "algebra", "--seed", "3",
                          "--seconds", "1", "--trace", trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    _assert_contract(result, run.PER_LAYER if trace == "1" else run.END_TO_END)


def test_counts_repeat_across_runs_and_seeds(tiny, capsys):
    counts = []
    for seed in ("5", "6"):
        code, result = _bench(capsys, "--workload", "identities", "--seed", seed,
                              "--seconds", "34", "--trace", "1")
        assert code == 0 and result["correct"]
        counts.append({k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["charts.metric_at.calls_per_nk_suite"] > 0


def test_flipped_identity_status_counts_as_failed(tiny, capsys, monkeypatch):
    original = workloads.Identities.run

    def corrupted(self, i):
        rcs = original(self, i)
        if i == 0:
            path = self._path(i, 0)
            payload = json.loads(path.read_text())
            payload["status"] = "fail"
            path.write_text(json.dumps(payload))
        return rcs

    monkeypatch.setattr(workloads.Identities, "run", corrupted)
    code, result = _bench(capsys, "--workload", "identities", "--seed", "1",
                          "--seconds", "34", "--trace", "0")
    assert code == 1
    assert not result["correct"]
    assert (result["failed"], result["attempted"]) == (1, 2)


def test_flipped_suite_check_counts_as_failed(capsys, monkeypatch, tmp_path):
    # a real report of one cheap scenario stands in for `bochnerkit all`
    scenario = tmp_path / "scenario.json"
    assert workloads.cli.cli_dispatch(
        ["scenario", "thm21_forward", "--quiet", "--json", str(scenario)]) == 0
    report = {"schema_version": 1, "status": "pass",
              "reports": [json.loads(scenario.read_text())]}
    assert workloads.suite_report_problems(report) == []

    def fake_run(self, i):
        doc = json.loads(json.dumps(report))
        if i == 1:
            doc["reports"][0]["checks"][0]["status"] = "fail"
        self._path(i).write_text(json.dumps(doc))
        return 0

    monkeypatch.setattr(workloads.Suite, "run", fake_run)
    code, result = _bench(capsys, "--workload", "suite", "--seed", "1",
                          "--seconds", "21", "--trace", "0")
    assert code == 1
    # three units: unit 1 carries the flipped status, unit 2 repeats unit 0
    assert (result["failed"], result["attempted"]) == (1, 3)


def test_unit_tail_keeps_ten_units_beyond_it():
    times = [float(t) for t in range(1, 26)]
    value, pct = run.unit_tail(times)
    assert sum(t > value for t in times) == 10
    assert pct == pytest.approx(60.0)
    assert run.unit_tail([2.0, 1.0]) == (2.0, 100.0)


class _Spin:
    """Busy for a fixed wall interval a unit; every output is correct."""

    def run(self, i):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass

    def check(self, i, out):
        return [], {}


def test_yardstick_samples_are_taken_out_of_unit_times():
    stick = yardstick.Yardstick()
    with stick.running():
        phase = run.run_phase(_Spin(), 3, stick=stick)
    assert phase.failed == 0 and len(phase.times) == len(phase.ref_times) == 3
    # about 8 samples a unit at one per 25 ms
    assert len(phase.samples) >= 3 * len(yardstick.KERNELS)
    assert all(0.0 < t < 0.2 for t in phase.times)
    assert all(t > 0.0 for t in phase.ref_times)
    at_reference = [(k, ref) for k, ref in enumerate(yardstick.REF_S)]
    assert yardstick.factor(at_reference) == pytest.approx(1.0)
    assert yardstick.factor(at_reference[:-1]) is None


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "algebra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
