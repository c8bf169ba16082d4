"""Tests for the engine perf-trajectory harness (repro.experiments.bench)."""

import json

import pytest

from repro.apps.synthetic import SharedReaders
from repro.experiments import bench
from repro.system.presets import base_config


def _tiny():
    return [
        ("tiny", lambda: base_config(4),
         lambda: SharedReaders(nbytes=1024, rounds=1)),
    ]


@pytest.fixture
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(bench, "_workloads", _tiny)


@pytest.fixture(scope="module")
def payload():
    """One bench run over the tiny workload, shared by the read-only
    tests (each run also re-runs the full-scale six-app ops section)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bench, "_workloads", _tiny)
        yield bench.run_bench(repeat=1)


def test_run_bench_measures_default_cell(payload):
    assert payload["schema"] == bench.SCHEMA_VERSION
    entry = payload["workloads"]["tiny"]
    assert entry["cycles"] > 0 and entry["events"] > 0
    assert entry["default"]["events_per_s"] > 0
    assert entry["default"]["peak_pending"] > 0


def test_run_bench_measures_state_kernels(payload):
    assert payload["state_models"] == list(bench.STATE_MODELS)
    entry = payload["workloads"]["tiny"]
    for state in bench.STATE_MODELS:
        kernel = entry["kernels"][state]
        assert kernel["events_per_s"] > 0
        assert "peak_pending" not in kernel  # engine property, not state
    assert entry["kernel_speedup"] > 0
    assert payload["geomean_kernel_speedup"] == entry["kernel_speedup"]
    report = bench.format_report(payload)
    assert "geomean kernel speedup" in report


def test_check_against_accepts_itself(payload):
    assert bench.check_against(payload, payload) == []


def test_check_against_flags_timing_drift_and_regression(payload):
    drifted = json.loads(json.dumps(payload))
    drifted["workloads"]["tiny"]["cycles"] += 1
    problems = bench.check_against(drifted, payload)
    assert any("drifted" in p for p in problems)

    slow_kernel = json.loads(json.dumps(payload))
    slow_kernel["workloads"]["tiny"]["kernel_speedup"] = (
        payload["workloads"]["tiny"]["kernel_speedup"] * 0.5
    )
    problems = bench.check_against(slow_kernel, payload, threshold=0.25)
    assert any("kernel speedup regressed" in p for p in problems)

    slow_ops = json.loads(json.dumps(payload))
    slow_ops["geomean_ops_speedup"] = payload["geomean_ops_speedup"] * 0.5
    problems = bench.check_against(slow_ops, payload, threshold=0.25)
    assert any("six-app geomean regressed" in p for p in problems)


def test_check_against_flags_workload_set_changes(payload):
    renamed = json.loads(json.dumps(payload))
    renamed["workloads"] = {"other": payload["workloads"]["tiny"]}
    problems = bench.check_against(renamed, payload)
    assert any("missing from the committed baseline" in p for p in problems)
    assert any("no longer benched" in p for p in problems)


def test_bench_command_preserves_trajectory(tiny_workloads, tmp_path, capsys):
    out = tmp_path / "BENCH_engine.json"
    assert bench.bench_command(
        output=str(out), baseline=str(out), repeat=1
    ) == 0
    payload = json.loads(out.read_text())
    history = [{"label": "seed", "events_per_s": {"tiny": 123}}]
    payload["trajectory"] = history
    out.write_text(json.dumps(payload))

    # regeneration (and --check against the committed file) keeps history
    assert bench.bench_command(
        output=str(out), baseline=str(out), check=True, repeat=1
    ) == 0
    regenerated = json.loads(out.read_text())
    assert regenerated["trajectory"] == history
    assert "perf-smoke ok" in capsys.readouterr().out
