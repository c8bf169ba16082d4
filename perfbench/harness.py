"""Closed-loop simulator-throughput benchmark on the default code path.

One simulation at a time, back to back, in this process: no executor, no
run cache, no sanitizer.  Each simulation builds a fresh ``Machine`` from
the presets (simulated caches start empty, as in the paper's whole-run
methodology), runs one application to completion, and is checked:

* its simulated fingerprint must equal the pin (``pins.json`` for the
  paper kernels; for the seeded random workload, the op counts of the
  generated input stream and then the first run's fingerprint);
* ``Machine.check_coherence()`` must return no violation.

A simulation that raises or fails a check counts as failed.  The timed
passes repeat the whole workload while another pass fits in the run's
seconds.

Other tenants of a shared host slow it by up to 2x, for stretches from
milliseconds to minutes, and no choice of run length or statistic over
plain host seconds repeats within a tenth from run to run.  So each
simulation is bracketed by two passes of :func:`calibrate`, a fixed
pure-Python loop timed on the same CPU, and run time is reported in
units of their mean: a slowdown of the host stretches both alike.  Set-up
time is converted back to seconds at the fixed :data:`NOMINAL_REF_S`.
Each metric takes the median over the passes of those per-simulation
ratios.  Plain host seconds are printed beside them.  A separate traced pass
(:mod:`spans`) supplies per-layer host time.
"""

from __future__ import annotations

import gc
import heapq
import json
import random
import resource
import sys
import traceback
from dataclasses import dataclass, field
from operator import truediv
from pathlib import Path
from statistics import median
from time import perf_counter, perf_counter_ns, process_time
from typing import Dict, List, Optional, Tuple

import spans
from repro.apps import PAPER_APPS, UniformRandom
from repro.system.machine import Machine
from repro.system.presets import base_config, switch_cache_config

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: the six paper kernels at the evaluation's full scale (the values of
#: ``repro.experiments.common.APP_SCALES["full"]`` when the benchmark was
#: defined, frozen here so the inputs cannot drift under the benchmark)
PAPER_INPUTS: Dict[str, Dict[str, int]] = {
    "FWA": {"n": 48},
    "GS": {"n_vectors": 32, "length": 48},
    "GE": {"n": 64},
    "MM": {"n": 48},
    "SOR": {"n": 128, "iterations": 3},
    "FFT": {"m": 12},
}

#: low-reuse random traffic: 16 processors x 250 ops over 64 KB, 30% writes,
#: in four simulations seeded from the benchmark's seed.  Four short
#: simulations rather than one long one keep each close in time to the
#: calibration passes that bracket it.
RANDOM_APP = "UniformRandom"
RANDOM_INPUTS: Dict[str, float] = {
    "ops_per_proc": 250, "nbytes": 64 * 1024, "write_fraction": 0.3,
}
RANDOM_SIMS = 4

#: workload -> (preset, nodes, apps)
WORKLOADS: Dict[str, Tuple[str, int, Tuple[str, ...]]] = {
    "paper16-sc": ("switch_cache", 16, tuple(PAPER_INPUTS)),
    "paper4-base": ("base", 4, tuple(PAPER_INPUTS)),
    "random-rw-sc": ("switch_cache", 16, (RANDOM_APP,) * RANDOM_SIMS),
}

PRESETS = {"base": base_config, "switch_cache": switch_cache_config}

#: a run makes at least this many timed passes, however long they take
MIN_PASSES = 3

END_TO_END_UNITS = {
    "ops_per_ref": "ops/ref", "wall_ref": "ref", "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: the same quantities in plain host seconds: printed, not reported
HOST_UNITS = {"ops_per_s": "1/s", "wall_s": "s", "ref_s": "s"}

#: seconds per ``ref`` in ``setup_s``: a fixed conversion (about one
#: :func:`calibrate` pass on an unloaded 2-vCPU Xeon host), so set-up time
#: reads in seconds yet does not move with the host's load
NOMINAL_REF_S = 0.03

#: per-layer metric -> unit; ``<layer>.self_s``/``.share`` come from the
#: traced pass, the counts from the untraced one
PER_LAYER_UNITS: Dict[str, str] = {}
for _layer in spans.LAYERS:
    if _layer == "system":
        PER_LAYER_UNITS["system.build_s"] = "s"
    else:
        PER_LAYER_UNITS[f"{_layer}.self_s"] = "s"
    PER_LAYER_UNITS[f"{_layer}.share"] = "%"
    if _layer in ("network", "core", "coherence", "node", "cache", "memory"):
        PER_LAYER_UNITS[f"{_layer}.calls"] = "count"
PER_LAYER_UNITS.update({
    "sim.events": "count", "sim.ns_per_event": "ns", "sim.peak_pending": "count",
    "network.msgs": "count", "network.flits": "count",
    "network.inj_queue_cycles": "cycles",
    "core.lookups": "count", "core.hits": "count", "core.deposits": "count",
    "core.snoops": "count", "core.purges": "count",
    "coherence.remote_reads": "count",
    "node.read_stall_cycles": "cycles", "node.sync_stall_cycles": "cycles",
    "node.wb_stall_cycles": "cycles",
    "cache.l1_hits": "count", "cache.l2_hits": "count",
    "memory.queue_cycles": "cycles",
    "apps.chunks": "count",
    "trace.total_s": "s", "trace.unattributed_s": "s", "trace.overhead": "x",
})
del _layer


@dataclass(frozen=True)
class SimSpec:
    """One simulation of a workload: application, inputs and machine."""

    workload: str
    app: str
    preset: str
    nodes: int
    inputs: Tuple[Tuple[str, float], ...]

    @property
    def key(self) -> str:
        seed = dict(self.inputs).get("seed")
        suffix = "" if seed is None else f"/seed={seed}"
        return f"{self.workload}/{self.app}{suffix}"

    def config(self):
        return PRESETS[self.preset](self.nodes)

    def make_app(self):
        cls = UniformRandom if self.app == RANDOM_APP else PAPER_APPS[self.app]
        return cls(**dict(self.inputs))

    def describe(self, seed: int) -> str:
        return (f"workload={self.workload} app={self.app} "
                f"config={self.config().label()} seed={seed}")


def workload_specs(name: str, seed: int) -> List[SimSpec]:
    """The simulations of workload ``name``; only the random one uses ``seed``."""
    preset, nodes, apps = WORKLOADS[name]
    specs = []
    for k, app in enumerate(apps):
        if app == RANDOM_APP:
            inputs = dict(RANDOM_INPUTS, seed=seed * len(apps) + k)
        else:
            inputs = PAPER_INPUTS[app]
        specs.append(SimSpec(name, app, preset, nodes,
                             tuple(sorted(inputs.items()))))
    return specs


def input_op_counts(spec: SimSpec) -> Dict[str, int]:
    """Reads and writes in the application's generated op stream."""
    machine = Machine(spec.config(), sanitize=False)
    app = spec.make_app()
    app.setup(machine)
    counts = {"r": 0, "w": 0}
    for proc in range(machine.num_procs):
        for op in app.ops(proc, machine):
            if op[0] in counts:
                counts[op[0]] += 1
    return counts


# ----------------------------------------------------------------------
# one simulation
# ----------------------------------------------------------------------
def fingerprint(machine: Machine) -> Dict:
    """The simulated results a faster simulator must reproduce exactly."""
    stats = machine.stats
    fabric = machine.fabric.stats
    reads = sum(stats.read_counts.values())
    stores = sum(s.write_buffer.stores_retired for s in machine.stacks())
    return {
        "exec_time": stats.exec_time,
        "read_counts": dict(stats.read_counts),
        "writes_completed": stats.writes_completed,
        "upgrades_completed": stats.upgrades_completed,
        "switch_cache": machine.switch_cache_stats(),
        "fabric": {
            "msgs_injected": fabric.msgs_injected,
            "msgs_delivered": fabric.msgs_delivered,
            "switch_hits": fabric.switch_hits,
        },
        "reads": reads,
        "stores_retired": stores,
    }


def pin_mismatches(fp: Dict, pin: Dict) -> List[str]:
    return [f"{key}: got {fp.get(key)!r}, pinned {want!r}"
            for key, want in pin.items() if fp.get(key) != want]


def work_counts(machine: Machine) -> Dict[str, float]:
    """Per-layer work counters read from public attributes after a run."""
    stats = machine.stats
    fabric = machine.fabric
    procs = [s.processor for s in machine.stacks()]
    sc = machine.switch_cache_stats()
    memories = [node.memory for node in machine.nodes]
    return {
        "sim.events": machine.sim.events_fired,
        "sim.peak_pending": machine.sim.peak_pending,
        "network.msgs": fabric.stats.msgs_injected,
        "network.flits": fabric.stats.flits_injected,
        "network.inj_queue_cycles": fabric.injection_queue_delay(),
        "core.lookups": sc["lookups"],
        "core.hits": sc["hits"],
        "core.deposits": sc["deposits"],
        "core.snoops": sc["snoops"],
        "core.purges": sc["purges"],
        "coherence.remote_reads": stats.reads_at_remote_memory(),
        "node.read_stall_cycles": sum(p.read_stall_cycles for p in procs),
        "node.sync_stall_cycles": sum(p.sync_stall_cycles for p in procs),
        "node.wb_stall_cycles": sum(p.wb_stall_cycles for p in procs),
        "cache.l1_hits": stats.read_counts["l1"],
        "cache.l2_hits": stats.read_counts["l2"],
        "memory.queue_cycles": (sum(m.mean_queueing_delay() for m in memories)
                                / len(memories)),
    }


class _Actor:
    __slots__ = ("busy", "inbox", "seen")

    def __init__(self) -> None:
        self.busy = 0
        self.inbox: List[Tuple[int, int]] = []
        self.seen: Dict[int, int] = {}


def calibrate(events: int = 15000) -> None:
    """The unit of host time: a fixed miniature discrete-event loop.

    Heap-ordered events, slotted objects, dict counters and small
    allocations, like the simulator's own inner loops, so host slowdowns
    stretch it much as they stretch a simulation.  Changing it changes the
    unit of every ``*_ref`` metric and of ``setup_s``: re-measure the
    baseline after.
    """
    rng = random.Random(1)
    actors = [_Actor() for _ in range(64)]
    queue = [(0, i, i, 0) for i in range(64)]
    seq = len(queue)
    for _ in range(events):
        now, _seq, dst, hops = heapq.heappop(queue)
        actor = actors[dst]
        actor.seen[hops & 511] = actor.seen.get(hops & 511, 0) + 1
        actor.inbox.append((now, hops))
        if len(actor.inbox) > 8:
            actor.inbox.clear()
        start = max(now, actor.busy)
        actor.busy = start + 3
        seq += 1
        heapq.heappush(queue, (start + rng.randrange(1, 20), seq,
                               rng.randrange(64), hops + 1))


@dataclass
class SimRecord:
    """Every timed run of one :class:`SimSpec` in this process."""

    spec: SimSpec
    setup_cpu: List[float] = field(default_factory=list)
    run_cpu: List[float] = field(default_factory=list)
    #: wall seconds of set-up plus run
    wall: List[float] = field(default_factory=list)
    #: CPU and wall seconds of a :func:`calibrate` pass, the mean of the
    #: passes just before and just after each run
    ref_cpu: List[float] = field(default_factory=list)
    ref_wall: List[float] = field(default_factory=list)
    ops: int = 0
    counts: Dict[str, float] = field(default_factory=dict)


class Bench:
    """Runs and checks the simulations of one workload."""

    def __init__(self, workload: str, seed: int,
                 pins: Optional[Dict[str, Dict]] = None,
                 specs: Optional[List[SimSpec]] = None,
                 log=sys.stderr) -> None:
        self.workload = workload
        self.seed = seed
        self.specs = specs if specs is not None else workload_specs(workload, seed)
        self.pins = dict(load_pins() if pins is None else pins)
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.records = [SimRecord(spec) for spec in self.specs]
        for spec in self.specs:
            if spec.app == RANDOM_APP and spec.key not in self.pins:
                counts = input_op_counts(spec)
                self.pins[spec.key] = {"reads": counts["r"],
                                       "stores_retired": counts["w"]}

    def _fail(self, spec: SimSpec, problems: List[str]) -> None:
        self.failed += 1
        print(f"FAIL {spec.describe(self.seed)}", file=self.log)
        for problem in problems[:20]:
            print(f"  {problem}", file=self.log)

    def _check(self, spec: SimSpec, machine: Machine) -> Optional[Dict]:
        """The run's fingerprint, or None (and a failure) if it is wrong."""
        fp = fingerprint(machine)
        pin = self.pins.get(spec.key)
        problems = (["no pin for this simulation"] if pin is None
                    else pin_mismatches(fp, pin))
        problems += machine.check_coherence()
        if problems:
            self._fail(spec, problems)
            return None
        if spec.app == RANDOM_APP:
            # later runs of the same seeded input must repeat this one
            self.pins[spec.key] = fp
        return fp

    def timed(self, record: SimRecord) -> bool:
        """One untraced simulation; appends its timings if it passes."""
        spec = record.spec
        self.attempted += 1
        gc.collect()
        ref_wall = perf_counter()
        ref_cpu = process_time()
        calibrate()
        try:
            wall0 = perf_counter()
            cpu0 = process_time()
            machine = Machine(spec.config(), sanitize=False)
            app = spec.make_app()
            cpu1 = process_time()
            machine.run(app)
            cpu2 = process_time()
            wall2 = perf_counter()
            calibrate()
            ref_cpu = (cpu0 - ref_cpu + process_time() - cpu2) / 2
            ref_wall = (wall0 - ref_wall + perf_counter() - wall2) / 2
            fp = self._check(spec, machine)
        except Exception:  # a failing simulation must not stop the run
            self._fail(spec, traceback.format_exc().splitlines())
            return False
        if fp is None:
            return False
        record.setup_cpu.append(cpu1 - cpu0)
        record.run_cpu.append(cpu2 - cpu1)
        record.wall.append(wall2 - wall0)
        record.ref_cpu.append(ref_cpu)
        record.ref_wall.append(ref_wall)
        record.ops = fp["reads"] + fp["stores_retired"]
        if not record.counts:
            record.counts = work_counts(machine)
        return True

    def timed_passes(self, seconds: float) -> int:
        """Repeat the workload while another pass fits; returns passes."""
        start = perf_counter()
        passes = 0
        last = 0.0
        while passes < MIN_PASSES or perf_counter() - start + last <= seconds:
            began = perf_counter()
            for record in self.records:
                self.timed(record)
            passes += 1
            last = perf_counter() - began
        return passes

    def _done(self) -> List[SimRecord]:
        return [r for r in self.records if r.run_cpu]

    def end_to_end(self) -> Dict[str, float]:
        """Headline metrics: medians over the passes, summed over the
        workload's simulations; run time in :func:`calibrate` units."""
        done = self._done()
        run_ref = sum(median(map(truediv, r.run_cpu, r.ref_cpu)) for r in done)
        return {
            "ops_per_ref": sum(r.ops for r in done) / run_ref if done else 0.0,
            "wall_ref": sum(median(map(truediv, r.wall, r.ref_wall))
                            for r in done),
            "setup_s": NOMINAL_REF_S * sum(
                median(map(truediv, r.setup_cpu, r.ref_cpu)) for r in done),
            "peak_rss_mb": peak_rss_mb(),
        }

    def host_seconds(self) -> Dict[str, float]:
        """The headline quantities in plain host seconds (host-dependent)."""
        done = self._done()
        run_cpu = sum(median(r.run_cpu) for r in done)
        return {
            "ops_per_s": sum(r.ops for r in done) / run_cpu if done else 0.0,
            "wall_s": sum(median(r.wall) for r in done),
            "ref_s": median([t for r in done for t in r.ref_cpu]) if done else 0.0,
        }

    def traced_pass(self) -> Dict[str, float]:
        """One traced run of every simulation; per-layer metrics.

        Needs :meth:`timed_passes` first: the traced fingerprints must equal
        the untraced ones, and the overhead is relative to untraced time.
        """
        recorder = spans.SpanRecorder()
        nlayers = len(spans.LAYERS)
        self_ns = [0] * nlayers
        calls = [0] * nlayers
        total_ns = 0
        traced_cpu = 0.0
        chunks = 0
        with spans.installed(recorder) as missing:
            for spec in self.specs:
                self.attempted += 1
                recorder.clear()
                gc.collect()
                try:
                    cpu0 = process_time()
                    t0 = perf_counter_ns()
                    machine = Machine(spec.config(), sanitize=False)
                    machine.run(spec.make_app())
                    t1 = perf_counter_ns()
                    cpu1 = process_time()
                    sim_self, sim_calls, top_ns = recorder.fold(nlayers)
                    sim_chunks = recorder.chunks
                    recorder.clear()
                    fp = self._check(spec, machine)
                except Exception:
                    self._fail(spec, traceback.format_exc().splitlines())
                    continue
                if fp is None:
                    continue
                if sum(sim_self) != top_ns or top_ns > t1 - t0:
                    self._fail(spec, [f"span fold does not reconcile: self "
                                      f"{sum(sim_self)} ns, top-level spans "
                                      f"{top_ns} ns, measured {t1 - t0} ns"])
                    continue
                for i in range(nlayers):
                    self_ns[i] += sim_self[i]
                    calls[i] += sim_calls[i]
                total_ns += t1 - t0
                traced_cpu += cpu1 - cpu0
                chunks += sim_chunks
        for name in missing:
            print(f"note: entry point {name} not found; its time counts "
                  f"in the calling layer", file=self.log)
        return self._per_layer(self_ns, calls, total_ns, traced_cpu, chunks)

    def _per_layer(self, self_ns: List[int], calls: List[int], total_ns: int,
                   traced_cpu: float, chunks: int) -> Dict[str, float]:
        metrics: Dict[str, float] = {}
        for i, layer in enumerate(spans.LAYERS):
            seconds = self_ns[i] / 1e9
            metrics["system.build_s" if layer == "system"
                    else f"{layer}.self_s"] = seconds
            metrics[f"{layer}.share"] = (100.0 * self_ns[i] / total_ns
                                         if total_ns else 0.0)
            if f"{layer}.calls" in PER_LAYER_UNITS:
                metrics[f"{layer}.calls"] = calls[i]
        metrics["trace.total_s"] = total_ns / 1e9
        metrics["trace.unattributed_s"] = (total_ns - sum(self_ns)) / 1e9
        metrics["apps.chunks"] = chunks
        done = self._done()
        for name in done[0].counts if done else ():
            values = [r.counts[name] for r in done]
            if name == "sim.peak_pending":
                metrics[name] = max(values)
            elif name.endswith("queue_cycles"):
                metrics[name] = sum(values) / len(values)
            else:
                metrics[name] = sum(values)
        run_cpu = sum(median(r.run_cpu) for r in done)
        untraced_cpu = run_cpu + sum(median(r.setup_cpu) for r in done)
        events = metrics.get("sim.events", 0)
        metrics["sim.ns_per_event"] = 1e9 * run_cpu / events if events else 0.0
        metrics["trace.overhead"] = (traced_cpu / untraced_cpu
                                     if untraced_cpu else 0.0)
        return metrics


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_pins() -> Dict[str, Dict]:
    with open(PINS_PATH) as fh:
        return json.load(fh)


def write_pins() -> Dict[str, Dict]:
    """Simulate every paper-kernel spec once and store its fingerprint."""
    pins: Dict[str, Dict] = {}
    for name in WORKLOADS:
        for spec in workload_specs(name, seed=0):
            if spec.app == RANDOM_APP:
                continue
            machine = Machine(spec.config(), sanitize=False)
            machine.run(spec.make_app())
            problems = machine.check_coherence()
            if problems:
                raise RuntimeError(f"{spec.key}: {problems[:3]}")
            pins[spec.key] = fingerprint(machine)
    with open(PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return pins
