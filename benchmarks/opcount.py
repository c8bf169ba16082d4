"""Deterministic executed-bytecode counts, per function, of a perfbench
workload.

    python3 benchmarks/opcount.py --workload paper4-base
    python3 benchmarks/opcount.py --workload paper4-base --app MM --top 10

Run from the repository root.  Each simulation of the named perfbench
workload (``perfbench/harness.py``: same presets, same inputs, seed 1 by
default) runs once under ``sys.settrace`` with per-opcode events enabled,
and every executed bytecode is charged to the function whose frame ran it.
Machine construction is not counted, only ``Machine.run``.

The count does not depend on host load, so it tells a change's effect on
interpreter work from a single run, where paired wall-clock runs need many
repetitions to beat the host's noise.  It is a companion to the perfbench
pairs, not a substitute: it weighs every bytecode alike (a dict probe and a
``LOAD_FAST`` count one each) and ignores C-level work.  Counts depend on
the Python version, so they are reported, never gated.

Tracing slows a simulation about 150-fold (paper4-base takes ~6 minutes
on a 2-vCPU host); ``--app`` restricts the run to some of the workload's
simulations.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402  (perfbench's harness: workloads and inputs)
from repro.system.machine import Machine  # noqa: E402


def count_run(spec) -> "defaultdict":
    """Executed bytecodes of one simulation, keyed by code object."""
    machine = Machine(spec.config(), sanitize=False)
    app = spec.make_app()
    counts: "defaultdict" = defaultdict(int)

    def local(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(on_call)
    try:
        machine.run(app)
    finally:
        sys.settrace(None)
    return counts


def label(code) -> str:
    path = code.co_filename
    marker = "/src/repro/"
    if marker in path:
        path = path.split(marker, 1)[1]
    else:
        path = Path(path).name if path.startswith("/") else path
    name = getattr(code, "co_qualname", code.co_name)  # 3.11+
    return f"{path}:{code.co_firstlineno} {name}"


def report(title: str, by_fn, top: int) -> int:
    """Print the total and the ``top`` functions; return the total."""
    total = sum(by_fn.values())
    print(f"{title}: {total:,} bytecodes")
    for name, n in sorted(by_fn.items(), key=lambda kv: -kv[1])[:top]:
        print(f"  {n:>13,} {100 * n / total:5.1f}%  {name}")
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--app", action="append",
                        help="count only this application (repeatable)")
    parser.add_argument("--top", type=int, default=15,
                        help="functions listed per simulation and in total")
    parser.add_argument("--json", help="also write the counts to this file")
    args = parser.parse_args(argv)

    specs = harness.workload_specs(args.workload, args.seed)
    if args.app:
        specs = [s for s in specs if s.app in args.app]
        if not specs:
            parser.error(f"no simulation of {args.workload} runs {args.app}")
    total_by_fn: "defaultdict" = defaultdict(int)
    per_sim = {}
    for spec in specs:
        counts = count_run(spec)
        by_fn: "defaultdict" = defaultdict(int)
        for code, n in counts.items():
            by_fn[label(code)] += n
        total = report(spec.key, by_fn, args.top)
        per_sim[spec.key] = {"total": total, "functions": dict(by_fn)}
        for name, n in by_fn.items():
            total_by_fn[name] += n
    grand = report(f"{args.workload} total", total_by_fn, args.top)
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "python": sys.version.split()[0], "total": grand,
             "simulations": per_sim}, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
