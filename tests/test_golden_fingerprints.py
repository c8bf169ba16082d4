"""Golden whole-machine fingerprints for the six paper kernels.

Each case runs one paper app at quick scale on a 4-node machine and pins
three observables against ``fixtures/golden_fingerprints.json``:

* ``exec_time`` — the simulated execution time in cycles;
* ``events_fired`` — how many events the engine dispatched, which pins
  the event granularity of the run (one event per worm hop);
* ``payload_sha256`` — a digest of the full statistics collector
  (``MachineStats.to_payload()``), so every latency sum, read count,
  breakdown and per-block record is covered, not just a summary;
* ``stacks_sha256`` — a digest of every processor stack's own counters:
  the write buffer's retired/merged stores and full stalls, the
  processor's retired ops and read/write-buffer/sync stall cycles, and
  the L1 and L2 hits, misses, evictions and LRU tick.  The statistics
  payload holds none of these, so a slip in how the store drain probes
  the L2 (one hit or one LRU tick too many) shows only here.

The matrix is the six apps × MSI/MESI × switch cache off/on.  The
fingerprints were recorded with fused worm transit off, where the
calendar and heap event queues agreed on all of them, before the
calendar queue and the fused path were deleted (DESIGN.md §9, §12).
Any change to the timing model, the protocol, or event scheduling
moves them and must be a conscious decision.

A second set of cells pins the switch-cache replacement ablation:
UniformRandom, GE and FFT on a 16-node machine whose 1 KB switch caches
evict thousands of blocks, under ``fifo`` and seeded ``random``
replacement.  These cells add the total switch-cache eviction count and
a digest of every switch cache's final contents, so the victim each
policy picks is pinned directly (the random cell pins the seeded
``rng.choice`` over the set's tags in ascending order, DESIGN.md §10.2).
They were recorded while cache sets were still kept sorted by tag.

Regenerate (only after such a decision)::

    PYTHONPATH=src python tests/test_golden_fingerprints.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Tuple, Union

import pytest

from repro.apps.synthetic import UniformRandom
from repro.experiments.common import make_app
from repro.system.machine import Machine
from repro.system.presets import base_config, switch_cache_config

GOLDEN_PATH = Path(__file__).resolve().parent / "fixtures" / (
    "golden_fingerprints.json"
)

APPS = ("FWA", "GS", "GE", "MM", "SOR", "FFT")
PROTOCOLS = ("msi", "mesi")
PRESETS = ("base", "sc")
NUM_NODES = 4
SCALE = "quick"

#: the replacement-ablation cells: apps × non-LRU switch-cache policy
REPLACEMENT_APPS = ("UR", "GE", "FFT")
REPLACEMENT_POLICIES = ("fifo", "random")
REPLACEMENT_NODES = 16
REPLACEMENT_SC_SIZE = 1024

CASES = [
    f"{app}-{protocol}-{preset}"
    for app in APPS
    for protocol in PROTOCOLS
    for preset in PRESETS
] + [
    f"{app}-{policy}-sc{REPLACEMENT_NODES}"
    for app in REPLACEMENT_APPS
    for policy in REPLACEMENT_POLICIES
]


def _digest(obj: object) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _build(case: str) -> Tuple[Machine, object]:
    app, variant, preset = case.split("-")
    if variant in REPLACEMENT_POLICIES:
        config = switch_cache_config(
            REPLACEMENT_NODES, size=REPLACEMENT_SC_SIZE,
            switch_cache_replacement=variant,
        )
        workload = (
            UniformRandom(ops_per_proc=100, nbytes=8192,
                          write_fraction=0.3, seed=1)
            if app == "UR" else make_app(app, SCALE)
        )
        return Machine(config, sanitize=False), workload
    make = base_config if preset == "base" else switch_cache_config
    config = make(NUM_NODES, protocol=variant)
    return Machine(config, sanitize=False), make_app(app, SCALE)


def _stack_counters(machine: Machine) -> list:
    """Per-stack front-end counters the statistics payload does not hold."""
    rows = []
    for stack in machine.stacks():
        wb, proc = stack.write_buffer, stack.processor
        rows.append([
            stack.proc_id,
            [wb.stores_retired, wb.stores_merged, wb.full_stalls],
            [proc.ops_executed, proc.read_stall_cycles,
             proc.wb_stall_cycles, proc.sync_stall_cycles],
            [[array.hits, array.misses, array.evictions, array._tick]
             for array in (stack.hierarchy.l1, stack.hierarchy.l2)],
        ])
    return rows


def fingerprint(case: str) -> Dict[str, Union[int, str]]:
    """Run one case and return its pinned observables."""
    machine, workload = _build(case)
    stats = machine.run(workload)
    assert machine.check_coherence() == []
    result: Dict[str, Union[int, str]] = {
        "exec_time": stats.exec_time,
        "events_fired": machine.sim.events_fired,
        "payload_sha256": _digest(stats.to_payload()),
        "stacks_sha256": _digest(_stack_counters(machine)),
    }
    if case.split("-")[1] in REPLACEMENT_POLICIES:
        arrays = [
            switch.cache_engine.array
            for _, switch in sorted(machine.fabric.switches.items())
            if switch.cache_engine is not None
        ]
        result["sc_evictions"] = sum(array.evictions for array in arrays)
        result["sc_contents_sha256"] = _digest([
            sorted((addr, line.data) for addr, line in array.resident_blocks())
            for array in arrays
        ])
    return result


def _golden() -> Dict[str, Dict[str, Union[int, str]]]:
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


def test_golden_covers_the_whole_matrix():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_fingerprint_matches_golden(case):
    assert fingerprint(case) == _golden()[case]


def test_replacement_cells_really_evict():
    for case in CASES:
        if case.split("-")[1] in REPLACEMENT_POLICIES:
            assert _golden()[case]["sc_evictions"] > 0, case


def _write() -> None:
    golden = {case: fingerprint(case) for case in CASES}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} fingerprints to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_fingerprints.py --write")
    _write()
