"""Tests for the engine perf-trajectory harness (repro.experiments.bench)."""

import json

import pytest

from repro.apps.synthetic import SharedReaders
from repro.experiments import bench, cli
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


def test_bench_command_preserves_trajectory(payload, tmp_path, monkeypatch,
                                           capsys):
    # every run returns the shared payload, so the --check below compares
    # equal numbers; a live re-run's speedup ratios are noise here
    monkeypatch.setattr(bench, "run_bench",
                        lambda repeat: json.loads(json.dumps(payload)))
    out = tmp_path / "BENCH_engine.json"
    assert bench.bench_command(
        output=str(out), baseline=str(out), repeat=1
    ) == 0
    written = json.loads(out.read_text())
    history = [{"label": "seed", "events_per_s": {"tiny": 123}}]
    written["trajectory"] = history
    out.write_text(json.dumps(written))

    # regeneration (and --check --output onto the committed file) keeps
    # the history
    assert bench.bench_command(
        output=str(out), baseline=str(out), check=True, repeat=1
    ) == 0
    regenerated = json.loads(out.read_text())
    assert regenerated["trajectory"] == history
    assert "perf-smoke ok" in capsys.readouterr().out
    assert bench.bench_command(baseline=str(out), repeat=1) == 0
    assert json.loads(out.read_text())["trajectory"] == history


def test_check_reads_baseline_first_and_never_rewrites_it(
    payload, tiny_workloads, tmp_path, capsys
):
    """``bench --check`` without ``--output`` compares a live run against
    the baseline as committed, and leaves that file byte-identical."""
    drifted = json.loads(json.dumps(payload))
    drifted["workloads"]["tiny"]["cycles"] += 1
    base = tmp_path / "BENCH_engine.json"
    base.write_text(json.dumps(drifted, indent=2) + "\n")
    committed = base.read_bytes()

    assert cli.main(["bench", "--check", "--baseline", str(base),
                     "--repeat", "1"]) == 1
    out = capsys.readouterr().out
    assert "perf-smoke FAILED" in out and "tiny: timing drifted" in out
    assert base.read_bytes() == committed
    assert [p.name for p in tmp_path.iterdir()] == [base.name]


def test_check_without_baseline_fails_before_running(tmp_path, monkeypatch):
    def no_run(repeat):
        raise AssertionError("ran the bench without a baseline")

    monkeypatch.setattr(bench, "run_bench", no_run)
    missing = tmp_path / "BENCH_engine.json"
    assert bench.bench_command(baseline=str(missing), check=True) == 1
    assert not missing.exists()
