"""Golden whole-machine fingerprints for the six paper kernels.

Each case runs one paper app at quick scale on a 4-node machine and pins
three observables against ``fixtures/golden_fingerprints.json``:

* ``exec_time`` — the simulated execution time in cycles;
* ``events_fired`` — how many events the engine dispatched, which pins
  the event granularity of the run (one event per worm hop);
* ``payload_sha256`` — a digest of the full statistics collector
  (``MachineStats.to_payload()``), so every latency sum, read count,
  breakdown and per-block record is covered, not just a summary.

The matrix is the six apps × MSI/MESI × switch cache off/on.  The
fingerprints were recorded with fused worm transit off, where the
calendar and heap event queues agreed on all of them, before the
calendar queue and the fused path were deleted (DESIGN.md §9, §12).
Any change to the timing model, the protocol, or event scheduling
moves them and must be a conscious decision.

Regenerate (only after such a decision)::

    PYTHONPATH=src python tests/test_golden_fingerprints.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Union

import pytest

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

CASES = [
    f"{app}-{protocol}-{preset}"
    for app in APPS
    for protocol in PROTOCOLS
    for preset in PRESETS
]


def fingerprint(case: str) -> Dict[str, Union[int, str]]:
    """Run one case and return its pinned observables."""
    app, protocol, preset = case.split("-")
    make = base_config if preset == "base" else switch_cache_config
    machine = Machine(make(NUM_NODES, protocol=protocol), sanitize=False)
    stats = machine.run(make_app(app, SCALE))
    assert machine.check_coherence() == []
    payload = json.dumps(
        stats.to_payload(), sort_keys=True, separators=(",", ":")
    )
    return {
        "exec_time": stats.exec_time,
        "events_fired": machine.sim.events_fired,
        "payload_sha256": hashlib.sha256(payload.encode()).hexdigest(),
    }


def _golden() -> Dict[str, Dict[str, Union[int, str]]]:
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


def test_golden_covers_the_whole_matrix():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_fingerprint_matches_golden(case):
    assert fingerprint(case) == _golden()[case]


def _write() -> None:
    golden = {case: fingerprint(case) for case in CASES}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} fingerprints to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_fingerprints.py --write")
    _write()
