"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import importlib
import io
import json
from pathlib import Path

import harness
import run
import spans

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def small_bench(pins=None, log=None) -> harness.Bench:
    """A one-simulation workload (GS on the 4-node base machine)."""
    spec = harness.SimSpec("paper4-base", "GS", "base", 4,
                           tuple(sorted(harness.PAPER_INPUTS["GS"].items())))
    return harness.Bench("paper4-base", 7, pins=pins, specs=[spec],
                         log=log if log is not None else io.StringIO())


def patched_attributes():
    """Current value of every attribute ``spans.installed`` replaces."""
    current = {}
    for _layer, module_name, class_name, names in spans.ENTRY_POINTS:
        cls = getattr(importlib.import_module(module_name), class_name)
        for name in names:
            current[f"{class_name}.{name}"] = vars(cls).get(name)
    module_name, name = spans.APPS_HOOK
    current[name] = getattr(importlib.import_module(module_name), name)
    return current


def test_fold_subtracts_nested_and_sibling_children():
    rec = spans.SpanRecorder()
    sim, network, core, cache = (spans.LAYERS.index(n)
                                 for n in ("sim", "network", "core", "cache"))
    # sim [0,100] > network [10,50] > core [20,30]
    #             > network [60,90] > cache [70,80]
    for layer, parent, start, end in ((sim, -1, 0, 100), (network, 0, 10, 50),
                                      (core, 1, 20, 30), (network, 0, 60, 90),
                                      (cache, 3, 70, 80)):
        rec.layer.append(layer)
        rec.parent.append(parent)
        rec.start.append(start)
        rec.end.append(end)
    self_ns, calls, top_ns = rec.fold()
    assert self_ns[sim] == 100 - 40 - 30
    assert self_ns[network] == (40 - 10) + (30 - 10)
    assert self_ns[core] == 10 and self_ns[cache] == 10
    assert calls[network] == 2 and calls[sim] == 1
    assert top_ns == 100 == sum(self_ns)


def test_wrapper_links_children_to_the_open_span():
    rec = spans.SpanRecorder()
    inner = rec.traced(1, lambda x: x + 1)
    outer = rec.traced(0, lambda: inner(1) + inner(2))
    assert outer() == 5
    assert list(rec.layer) == [0, 1, 1]
    assert list(rec.parent) == [-1, 0, 0]
    assert all(e >= s for s, e in zip(rec.start, rec.end))
    self_ns, _calls, top_ns = rec.fold()
    assert sum(self_ns) == top_ns == rec.end[0] - rec.start[0]


def test_run_time_is_the_median_ratio_to_the_calibration_loop():
    bench = small_bench()
    record = bench.records[0]
    record.ops = 600
    # the host is twice as slow in the second pass: the ratio is unchanged
    record.setup_cpu = [0.001, 0.002, 0.001]
    record.run_cpu = [1.0, 2.0, 1.5]
    record.ref_cpu = [0.5, 1.0, 0.5]
    record.wall = [2.0, 4.0, 3.0]
    record.ref_wall = [1.0, 2.0, 1.0]
    metrics = bench.end_to_end()
    assert metrics["ops_per_ref"] == 600 / 2.0
    assert metrics["wall_ref"] == 2.0
    assert metrics["setup_s"] == harness.NOMINAL_REF_S * 0.002
    assert bench.host_seconds()["ops_per_s"] == 600 / 1.5


def test_correct_pin_passes_and_perturbed_pin_fails():
    bench = small_bench()
    assert bench.timed(bench.records[0])
    assert (bench.attempted, bench.failed) == (1, 0)
    assert bench.end_to_end()["ops_per_ref"] > 0

    pins = harness.load_pins()
    pins["paper4-base/GS"] = dict(pins["paper4-base/GS"])
    pins["paper4-base/GS"]["exec_time"] += 1
    log = io.StringIO()
    bench = small_bench(pins=pins, log=log)
    assert not bench.timed(bench.records[0])
    assert (bench.attempted, bench.failed) == (1, 1)
    assert not bench.records[0].run_cpu  # a failed run is not timed
    report = log.getvalue()
    for part in ("workload=paper4-base", "app=GS", "config=base", "seed=7",
                 "exec_time"):
        assert part in report


def test_traced_pass_restores_wrappers_and_matches_untraced_run():
    before = patched_attributes()
    bench = small_bench()
    bench.timed_passes(0)
    metrics = bench.traced_pass()
    after = patched_attributes()
    assert all(after[name] is before[name] for name in before)
    # traced fingerprints equal the untraced pins: no failure
    assert bench.failed == 0
    self_s = sum(metrics["system.build_s" if layer == "system"
                         else f"{layer}.self_s"] for layer in spans.LAYERS)
    assert abs(self_s + metrics["trace.unattributed_s"]
               - metrics["trace.total_s"]) < 1e-6
    assert metrics["trace.unattributed_s"] >= 0
    assert metrics["core.calls"] == 0  # no switch caches on the base machine
    assert metrics["node.calls"] > 0 and metrics["apps.chunks"] > 0


def test_seed_changes_random_inputs_only():
    rand1 = harness.workload_specs("random-rw-sc", 1)
    rand2 = harness.workload_specs("random-rw-sc", 2)
    assert rand1 != rand2

    def stream(spec):
        machine = harness.Machine(spec.config(), sanitize=False)
        app = spec.make_app()
        app.setup(machine)
        return list(app.ops(0, machine))

    assert stream(rand1[0]) != stream(rand2[0])
    for name in ("paper16-sc", "paper4-base"):
        specs1 = harness.workload_specs(name, 1)
        assert specs1 == harness.workload_specs(name, 2)
        pins1 = harness.Bench(name, 1).pins
        pins2 = harness.Bench(name, 2).pins
        assert all(pins1[s.key] == pins2[s.key] for s in specs1)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        harness.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)


def test_refuses_to_run_with_an_escape_hatch_set(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_OPS", "compiled")
    assert run.main(["--workload", "paper4-base", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
