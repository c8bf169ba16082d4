"""Simulator-throughput benchmark: one workload per invocation.

    python3 perfbench/run.py --workload paper16-sc --seed 1 --seconds 20 --trace 0

Run from the repository root.  Prints one line per metric (name, value,
unit) and, as the last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A ``--trace 1``
run makes the same timed passes as ``--trace 0`` and then one traced pass,
so it prints every metric of both kinds.  ``--write-pins`` re-records the
paper kernels' simulated fingerprints in ``pins.json``.

The benchmark measures the simulator's default code path only, so it
refuses to start when an escape-hatch variable is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: environment switches selecting non-default simulator paths
ESCAPE_HATCHES = (
    "REPRO_ENGINE", "REPRO_STATE", "REPRO_EXPRESS", "REPRO_OPS",
    "REPRO_SANITIZE",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_pins and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    hatches = [name for name in ESCAPE_HATCHES if name in os.environ]
    if hatches:
        print(f"refusing to run: {', '.join(hatches)} set; the benchmark "
              f"measures the default code path only", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {SRC}; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    if args.write_pins:
        pins = harness.write_pins()
        print(f"wrote {len(pins)} pins to {harness.PINS_PATH}")
        return 0
    if args.workload not in harness.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2

    bench = harness.Bench(args.workload, args.seed)
    passes = bench.timed_passes(args.seconds)
    metrics = bench.end_to_end()
    metrics.update(bench.host_seconds())
    units = dict(harness.END_TO_END_UNITS, **harness.HOST_UNITS)
    if args.trace:
        metrics.update(bench.traced_pass())
        units.update(harness.PER_LAYER_UNITS)
    fail_rate = bench.failed / bench.attempted
    print(f"workload {args.workload}  seed {args.seed}  timed passes {passes}"
          f"  simulations {bench.attempted}  fail_rate {fail_rate:g}")
    for name, unit in units.items():
        print(f"  {name:<26} {metrics.get(name, 0.0):>16.6g} {unit}")
    reported = harness.PER_LAYER_UNITS if args.trace else harness.END_TO_END_UNITS
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
