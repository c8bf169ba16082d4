"""Engine perf-trajectory harness: ``repro-experiments bench``.

Runs a pinned set of canonical workloads — one synthetic kernel and one
paper application, each under the base and the switch-cache system — and
records, per workload, one cell on the default configuration:

* ``wall_s``        — best-of-``repeat`` wall-clock seconds,
* ``events_per_s``  — simulator events fired per wall-clock second,
* ``peak_pending``  — high-water event-queue depth,

plus ``cycles`` (simulated execution time) and ``events`` (events fired).

Each workload also carries a ``kernels`` A/B section measuring the
**state kernels**: the integer-coded hot state (bitmask directories,
struct-of-arrays cache sets, pooled worms — DESIGN.md §10) against the
``REPRO_STATE=obj`` object reference models.  Cycles and events must be
identical to the default cell — the coded kernels change how state is
stored, never what the machine does — so a bench run doubles as an
end-to-end differential test.

The payload also carries a top-level ``ops`` section: a paired front-end
A/B over the full six-app workload set (FWA, GS, GE, MM, SOR, FFT on the
4-node base system) measuring the compiled operation streams
(``REPRO_OPS=compiled`` — integer-coded op arrays with stride superops,
DESIGN.md §13) against the ``REPRO_OPS=gen`` generator reference.  Both
cycles and events must match across modes, and the paired
``ops_speedup`` is an events/s ratio on the same host.

Schema 5 has no engine or express-transit cells; its cycles and events
equal schema 4's (DESIGN.md §9, §12).

The result is written to ``BENCH_engine.json`` at the repo root, seeding
the perf trajectory that future optimisation PRs extend.

``--check`` mode (the CI perf-smoke job) compares a fresh run against the
committed baseline.  Absolute wall-clock numbers are machine-dependent,
so the check only uses portable quantities:

* ``cycles``/``events`` must match the baseline exactly (cross-commit
  determinism), and
* the coded-vs-obj ``kernel_speedup`` per workload and the six-app
  ``geomean_ops_speedup`` — both sides of each ratio measured on the
  *same* host, so hardware cancels out — must not regress by more than
  the threshold (default 25%).

Runs are always fresh simulations (never served from the run cache) with
SCSan forced off, so the numbers measure the engine, not the harness.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..apps.opstream import OPS_ENV
from ..apps.synthetic import SharedReaders
from ..cache.states import STATE_ENV
from ..system.config import SystemConfig
from ..system.machine import Machine
from .common import APP_ORDER, make_app

SCHEMA_VERSION = 5
#: state-kernel A/B order: reference first, so ``coded`` is the speedup
STATE_MODELS = ("obj", "coded")
#: op-stream A/B order: generator reference first
OPS_MODES = ("gen", "compiled")
#: the six-app front-end workload set: full scale on the 4-node base
#: system, where the op streams are long enough that the front end is
#: a visible share of the wall clock
OPS_SCALE = "full"
OPS_NODES = 4
DEFAULT_PATH = "BENCH_engine.json"
DEFAULT_REPEAT = 2
DEFAULT_THRESHOLD = 0.25

#: one pinned workload: (name, config factory, app factory)
Workload = Tuple[str, Callable[[], SystemConfig], Callable[[], Any]]


def _workloads() -> List[Workload]:
    # imported lazily so `repro-experiments list` stays instant
    from ..system.presets import base_config, switch_cache_config

    def synthetic() -> SharedReaders:
        return SharedReaders(nbytes=16 * 1024, rounds=4)

    return [
        ("shared-readers/base", lambda: base_config(16), synthetic),
        ("shared-readers/sc", lambda: switch_cache_config(16), synthetic),
        ("GE/base", lambda: base_config(16), lambda: make_app("GE", "quick")),
        ("GE/sc", lambda: switch_cache_config(16),
         lambda: make_app("GE", "quick")),
    ]


def _run_once(
    config: SystemConfig,
    app_factory: Callable[[], Any],
    state: str = "coded",
    ops: str = "compiled",
) -> Dict[str, Any]:
    """One fresh, cache-free, sanitizer-free simulation with the
    ``state`` kernel model and ``ops`` front end (the defaults unless
    an A/B section selects the reference)."""
    saved = {env: os.environ.get(env) for env in (STATE_ENV, OPS_ENV)}
    os.environ[STATE_ENV] = state
    os.environ[OPS_ENV] = ops
    try:
        machine = Machine(config, sanitize=False)
        app = app_factory()
        started = time.perf_counter()
        stats = machine.run(app)
        wall = time.perf_counter() - started
    finally:
        for env, value in saved.items():
            if value is None:
                os.environ.pop(env, None)
            else:
                os.environ[env] = value
    return {
        "wall_s": wall,
        "cycles": stats.exec_time,
        "events": machine.sim.events_fired,
        "peak_pending": machine.sim.peak_pending,
    }


def _geomean(values: List[float]) -> float:
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values)) if values else 1.0


def run_bench(repeat: int = DEFAULT_REPEAT) -> Dict[str, Any]:
    """Run the pinned workload matrix; returns the BENCH payload."""
    workloads: Dict[str, Any] = {}
    kernel_speedups: List[float] = []
    for name, config_factory, app_factory in _workloads():
        config = config_factory()
        entry: Dict[str, Any] = {}
        reference: Optional[Dict[str, Any]] = None

        def measure(state: str) -> Dict[str, Any]:
            """Best-of-repeat on one state-kernel cell; cycles and events
            must match the workload's first (default) cell."""
            nonlocal reference
            runs = [
                _run_once(config, app_factory, state) for _ in range(repeat)
            ]
            best = min(runs, key=lambda r: float(r["wall_s"]))
            for other in runs:
                if (other["cycles"], other["events"]) != (
                    best["cycles"], best["events"]
                ):
                    raise AssertionError(
                        f"{name}: non-deterministic repeat on {state}"
                    )
            if reference is None:
                reference = best
                entry["cycles"] = best["cycles"]
                entry["events"] = best["events"]
            elif (best["cycles"], best["events"]) != (
                reference["cycles"], reference["events"]
            ):
                raise AssertionError(
                    f"{name}: REPRO_STATE={state} disagrees — simulated "
                    f"{best['cycles']} cycles / {best['events']} events, "
                    f"expected {reference['cycles']} / "
                    f"{reference['events']}"
                )
            wall = float(best["wall_s"])
            return {
                "wall_s": round(wall, 4),
                "events_per_s": round(best["events"] / wall) if wall else 0,
                "peak_pending": best["peak_pending"],
            }

        entry["default"] = measure("coded")
        # state-kernel A/B: obj reference vs the integer-coded kernels
        # (same cycles/events enforced above)
        kernels = {state: measure(state) for state in STATE_MODELS}
        for kernel in kernels.values():
            kernel.pop("peak_pending")  # engine property, not state
        entry["kernels"] = kernels
        kernel_speedup = (
            kernels["coded"]["events_per_s"] / kernels["obj"]["events_per_s"]
            if kernels["obj"]["events_per_s"] else 0.0
        )
        entry["kernel_speedup"] = round(kernel_speedup, 3)
        kernel_speedups.append(kernel_speedup)
        workloads[name] = entry
    ops_workloads, ops_speedups = _run_ops_bench(repeat)
    return {
        "schema": SCHEMA_VERSION,
        "state_models": list(STATE_MODELS),
        "ops_modes": list(OPS_MODES),
        "repeat": repeat,
        "workloads": workloads,
        "ops": {
            "scale": OPS_SCALE,
            "nodes": OPS_NODES,
            "workloads": ops_workloads,
        },
        "geomean_kernel_speedup": round(_geomean(kernel_speedups), 3),
        "geomean_ops_speedup": round(_geomean(ops_speedups), 3),
    }


def _run_ops_bench(
    repeat: int,
) -> Tuple[Dict[str, Any], List[float]]:
    """Front-end A/B over the six-app workload set.

    The compiled op streams are bit-identical to the generator path by
    construction, so each app's cycles *and* events must agree across
    the two modes — an A/B run doubles as an end-to-end differential.
    The paired ``ops_speedup`` is an events/s ratio on the same host.
    """
    from ..system.presets import base_config

    config = base_config(OPS_NODES)
    workloads: Dict[str, Any] = {}
    speedups: List[float] = []
    for app_name in APP_ORDER:
        entry: Dict[str, Any] = {}
        reference: Optional[Dict[str, Any]] = None
        for mode in OPS_MODES:
            runs = [
                _run_once(
                    config, lambda: make_app(app_name, OPS_SCALE), ops=mode
                )
                for _ in range(repeat)
            ]
            best = min(runs, key=lambda r: float(r["wall_s"]))
            for other in runs:
                if (other["cycles"], other["events"]) != (
                    best["cycles"], best["events"]
                ):
                    raise AssertionError(
                        f"ops/{app_name}: non-deterministic repeat on "
                        f"REPRO_OPS={mode}"
                    )
            if reference is None:
                reference = best
                entry["cycles"] = best["cycles"]
                entry["events"] = best["events"]
            elif (best["cycles"], best["events"]) != (
                reference["cycles"], reference["events"]
            ):
                raise AssertionError(
                    f"ops/{app_name}: REPRO_OPS={mode} diverged from the "
                    f"generator reference — {best['cycles']} cycles / "
                    f"{best['events']} events, expected "
                    f"{reference['cycles']} / {reference['events']}"
                )
            wall = float(best["wall_s"])
            entry[mode] = {
                "wall_s": round(wall, 4),
                "events_per_s": round(best["events"] / wall) if wall else 0,
            }
        speedup = (
            entry["compiled"]["events_per_s"] / entry["gen"]["events_per_s"]
            if entry["gen"]["events_per_s"] else 0.0
        )
        entry["ops_speedup"] = round(speedup, 3)
        speedups.append(speedup)
        workloads[app_name] = entry
    return workloads, speedups


def check_against(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[str]:
    """Portable regression check; returns a list of problems (empty = ok)."""
    problems: List[str] = []
    base_workloads = baseline.get("workloads", {})
    for name, entry in current["workloads"].items():
        base = base_workloads.get(name)
        if base is None:
            problems.append(f"{name}: missing from the committed baseline")
            continue
        if (entry["cycles"], entry["events"]) != (
            base["cycles"], base["events"]
        ):
            problems.append(
                f"{name}: timing drifted from the baseline — "
                f"{entry['cycles']} cycles / {entry['events']} events vs "
                f"baseline {base['cycles']} / {base['events']} "
                f"(update BENCH_engine.json if the model changed on purpose)"
            )
        kernel_floor = base["kernel_speedup"] * (1.0 - threshold)
        if entry["kernel_speedup"] < kernel_floor:
            problems.append(
                f"{name}: coded-vs-obj kernel speedup regressed — "
                f"{entry['kernel_speedup']:.2f}x vs baseline "
                f"{base['kernel_speedup']:.2f}x (floor {kernel_floor:.2f}x)"
            )
    for name in base_workloads:
        if name not in current["workloads"]:
            problems.append(f"{name}: in the baseline but no longer benched")
    # ops front-end section: per-app timing must match exactly — the
    # compiled front end is bit-identical by contract — and the six-app
    # geomean ratio is gated; per-app ratios ride along ungated because
    # a single app's wall-clock pair is too noisy for a portable floor
    base_ops = baseline["ops"]["workloads"]
    for name, entry in current["ops"]["workloads"].items():
        base = base_ops.get(name)
        if base is None:
            continue
        if (entry["cycles"], entry["events"]) != (
            base["cycles"], base["events"]
        ):
            problems.append(
                f"ops/{name}: timing drifted from the baseline — "
                f"{entry['cycles']} cycles / {entry['events']} events vs "
                f"baseline {base['cycles']} / {base['events']} "
                f"(update BENCH_engine.json if the model changed on purpose)"
            )
    base_ops_geomean = baseline["geomean_ops_speedup"]
    ops_floor = base_ops_geomean * (1.0 - threshold)
    if current["geomean_ops_speedup"] < ops_floor:
        problems.append(
            f"ops: compiled-vs-gen six-app geomean regressed — "
            f"{current['geomean_ops_speedup']:.2f}x vs baseline "
            f"{base_ops_geomean:.2f}x (floor {ops_floor:.2f}x)"
        )
    return problems


def format_report(payload: Dict[str, Any]) -> str:
    lines = [
        f"{'workload':20s} {'cycles':>10s} {'events':>10s} "
        f"{'ev/s':>10s} {'peak q':>7s} {'obj ev/s':>10s} "
        f"{'coded ev/s':>10s} {'kernels':>8s}"
    ]
    for name, entry in payload["workloads"].items():
        kernels = entry["kernels"]
        lines.append(
            f"{name:20s} {entry['cycles']:>10d} {entry['events']:>10d} "
            f"{entry['default']['events_per_s']:>10d} "
            f"{entry['default']['peak_pending']:>7d} "
            f"{kernels['obj']['events_per_s']:>10d} "
            f"{kernels['coded']['events_per_s']:>10d} "
            f"{entry['kernel_speedup']:>7.2f}x"
        )
    lines.append(
        f"geomean kernel speedup: {payload['geomean_kernel_speedup']:.2f}x"
    )
    ops = payload["ops"]
    lines.append("")
    lines.append(
        f"{'op streams':20s} {'cycles':>10s} {'events':>10s} "
        f"{'gen ev/s':>10s} {'cmp ev/s':>10s} {'speedup':>8s}"
    )
    for name, entry in ops["workloads"].items():
        lines.append(
            f"{name:20s} {entry['cycles']:>10d} {entry['events']:>10d} "
            f"{entry['gen']['events_per_s']:>10d} "
            f"{entry['compiled']['events_per_s']:>10d} "
            f"{entry['ops_speedup']:>7.2f}x"
        )
    lines.append(
        f"geomean ops speedup: {payload['geomean_ops_speedup']:.2f}x"
    )
    return "\n".join(lines)


def bench_command(
    output: Optional[str] = None,
    baseline: str = DEFAULT_PATH,
    check: bool = False,
    repeat: int = DEFAULT_REPEAT,
    threshold: float = DEFAULT_THRESHOLD,
) -> int:
    """CLI driver for ``repro-experiments bench``.

    Without ``check`` the fresh payload is written to ``output`` (default:
    the baseline path).  With ``check`` it is compared against the
    baseline, which is read before anything is written, and it is written
    only when ``output`` is given: a check never rewrites its baseline.
    """
    reference = None
    if check:
        base_path = Path(baseline)
        if not base_path.is_file():
            print(f"no baseline at {base_path}; nothing to check against")
            return 1
        reference = json.loads(base_path.read_text())
    elif output is None:
        output = baseline
    payload = run_bench(repeat=repeat)
    print(format_report(payload))
    if output is not None:
        out_path = Path(output)
        if out_path.is_file():
            # the trajectory (hand-recorded perf history, e.g. the pre-PR
            # seed baseline) rides along across regenerations
            try:
                previous = json.loads(out_path.read_text())
            except ValueError:
                previous = {}
            if "trajectory" in previous:
                payload["trajectory"] = previous["trajectory"]
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out_path}")
    if reference is None:
        return 0
    problems = check_against(payload, reference, threshold)
    if problems:
        print("perf-smoke FAILED:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(
        f"perf-smoke ok (speedups within {threshold:.0%} of baseline, "
        f"timing identical)"
    )
    return 0
