"""Self-test of the benchmark harness on one small case.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import copy
import json
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from calibration import INTERVAL_S, Sampler  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL = 256


@pytest.fixture
def one_case(monkeypatch, tmp_path):
    """Shrink the analyze workload to its ellipse case at SMALL samples and
    record that case's reference from one run."""
    case = copy.deepcopy(workloads.cases("analyze")[0])
    case["samples"] = SMALL
    monkeypatch.setattr(workloads, "cases", lambda workload, seed=0: [copy.deepcopy(case)])
    monkeypatch.setattr(run, "OUT_ROOT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)

    _, cases = run.prepare("analyze", 0, tmp_path / "ref")
    from normplane import cli

    rc, _ = run.run_case(cli, cases[0])
    report, _, _ = run.case_outputs(cases[0])
    entry = {"exit": rc, "counts": report["counts"], **run.event_times(report)}
    reference = {"workloads": {"analyze": {case["name"]: entry}}}
    monkeypatch.setattr(run, "load_reference", lambda: copy.deepcopy(reference))
    return entry


def test_benchmark_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _result(capsys, trace):
    assert run.main(["--workload", "analyze", "--seed", "0", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_untraced_run_prints_every_end_to_end_metric(one_case, capsys):
    lines, result = _result(capsys, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_PASSES
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())
    summary = json.loads(next(l for l in lines if l.startswith("summary "))[8:])
    assert summary["error_rate"] == 0.0
    assert summary["analyze_s"] > 0


def test_traced_run_prints_every_per_layer_metric(one_case, capsys):
    lines, result = _result(capsys, 1)
    assert result["correct"] and result["failed"] == 0
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["analysis.singularity_report.calls"] == 1
    assert metrics["plane.build_plane.calls"] == 1
    assert metrics["analysis._detect_cusps.calls"] == 2   # maslov_index re-runs it
    trace = json.loads(next(l for l in lines if l.startswith("trace "))[6:])
    assert trace["unstable_counts"] == []


def test_wrong_reference_fails_the_case(one_case, monkeypatch, capsys):
    wrong = dict(one_case, counts=dict(one_case["counts"], vertices=99))
    monkeypatch.setattr(run, "load_reference",
                        lambda: {"workloads": {"analyze": {"euclid-ellipse": wrong}}})
    _, result = _result(capsys, 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_sampler_times_chunks_during_the_block_and_restores_sigalrm():
    previous = signal.getsignal(signal.SIGALRM)
    with Sampler() as clock:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 6 * INTERVAL_S:
            pass
    # one chunk before, one after, and several from the alarm in between
    assert len(clock.chunks) >= 4
    assert 0 < clock.in_handler < clock.elapsed
    assert clock.reference_seconds > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    with Sampler(calibrate=False) as plain:
        pass
    assert plain.chunks == [] and plain.elapsed >= 0
