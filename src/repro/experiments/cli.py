"""Command-line entry point: ``repro-experiments``.

Examples::

    repro-experiments list
    repro-experiments run --exp E5
    repro-experiments run --all --scale full --jobs 8
    repro-experiments run --all --no-cache     # force fresh simulations
    repro-experiments run --exp E5 --profile   # wall-clock + cProfile top-N
    repro-experiments cache                    # on-disk cache inventory
    repro-experiments cache --prune            # drop stale/tmp cache files
    repro-experiments bench                    # refresh BENCH_engine.json
    repro-experiments bench --check            # CI perf-smoke comparison

Completed simulations are persisted in the on-disk run cache
(``results/.runcache/``) and reused across invocations; with ``--jobs``
greater than one, the runs the requested experiments need are simulated
in parallel before the (serial) report generation.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
from typing import List, Optional

from . import parallel, runcache
from .registry import EXPERIMENTS, run_experiment


def _jsonify(value):
    """Make experiment `data` JSON-serializable (tuple keys -> strings)."""
    if isinstance(value, dict):
        return {
            "|".join(map(str, k)) if isinstance(k, tuple) else str(k):
                _jsonify(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables/figures of the Switch Cache paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment ids")
    run_p = sub.add_parser("run", help="run one or all experiments")
    run_p.add_argument("--exp", action="append", help="experiment id (repeatable)")
    run_p.add_argument("--all", action="store_true", help="run every experiment")
    run_p.add_argument(
        "--scale", choices=("quick", "full"), default="quick",
        help="input scale (full = paper-scale, slower)",
    )
    run_p.add_argument(
        "--json", metavar="DIR", default=None,
        help="also write each experiment's raw data as DIR/<id>.json",
    )
    run_p.add_argument(
        "--jobs", type=int, default=os.cpu_count() or 1, metavar="N",
        help="simulate the needed runs over N worker processes first "
             "(default: CPU count; 1 = fully serial)",
    )
    run_p.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the on-disk run cache",
    )
    run_p.add_argument(
        "--clear-cache", action="store_true",
        help="delete the on-disk run cache before running",
    )
    run_p.add_argument(
        "--sanitize", action="store_true",
        help="run every simulation with SCSan runtime invariant checks "
             "(sets REPRO_SANITIZE=1 so parallel workers inherit it)",
    )
    run_p.add_argument(
        "--profile", action="store_true",
        help="profile the (serial) experiment loop with cProfile and "
             "print the top functions by cumulative time",
    )
    bench_p = sub.add_parser(
        "bench",
        help="engine perf benchmark: pinned workloads plus the state-"
             "kernel and op-stream A/Bs, written to BENCH_engine.json",
    )
    bench_p.add_argument(
        "--output", default=None, metavar="PATH",
        help="where to write the fresh results (default: the baseline "
             "path, i.e. BENCH_engine.json at the current directory)",
    )
    bench_p.add_argument(
        "--baseline", default="BENCH_engine.json", metavar="PATH",
        help="committed baseline to compare against with --check",
    )
    bench_p.add_argument(
        "--check", action="store_true",
        help="compare against the committed baseline (exit 1 on timing "
             "drift or >threshold speedup regression) instead of just "
             "refreshing it",
    )
    bench_p.add_argument(
        "--repeat", type=int, default=2, metavar="N",
        help="runs per (workload, cell); best wall-clock wins (default 2)",
    )
    bench_p.add_argument(
        "--threshold", type=float, default=0.25, metavar="F",
        help="allowed relative speedup regression for --check (default 0.25)",
    )
    cache_p = sub.add_parser(
        "cache", help="inspect or clean the on-disk run cache"
    )
    cache_p.add_argument(
        "--prune", action="store_true",
        help="remove stale entries (old format versions) and orphaned "
             "*.tmp files, keeping current-version entries",
    )
    cache_p.add_argument(
        "--clear", action="store_true",
        help="delete every cache entry and temp file",
    )
    return parser


def _cache_command(args) -> int:
    directory = runcache.cache_dir()
    if args.clear:
        removed = runcache.clear()
        print(f"run cache cleared ({removed} files) ({directory})")
        return 0
    if args.prune:
        removed = runcache.prune()
        print(f"run cache pruned ({removed} stale files) ({directory})")
        return 0
    current = stale = tmp = total_bytes = 0
    keep_suffix = f".v{runcache.CACHE_FORMAT_VERSION}.json"
    if directory.is_dir():
        for path in directory.iterdir():
            name = path.name
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue
            if name.endswith(".tmp"):
                tmp += 1
            elif name.endswith(keep_suffix):
                current += 1
            elif name.endswith(".json"):
                stale += 1
    print(f"run cache: {directory}")
    print(
        f"  {current} current entries (v{runcache.CACHE_FORMAT_VERSION}), "
        f"{stale} stale-version entries, {tmp} orphaned tmp files, "
        f"{total_bytes / 1024:.0f} KiB total"
    )
    if stale or tmp:
        print("  (run `repro-experiments cache --prune` to drop stale files)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for exp_id, (title, _runner) in EXPERIMENTS.items():
            print(f"{exp_id:4s} {title}")
        return 0
    if args.command == "cache":
        return _cache_command(args)
    if args.command == "bench":
        from .bench import bench_command

        return bench_command(
            output=args.output if args.output else args.baseline,
            baseline=args.baseline,
            check=args.check,
            repeat=args.repeat,
            threshold=args.threshold,
        )
    if args.clear_cache:
        removed = runcache.clear()
        print(f"run cache cleared ({removed} entries)")
    exp_ids = list(EXPERIMENTS) if args.all else (args.exp or [])
    if not exp_ids:
        if args.clear_cache:
            return 0
        print("nothing to run: pass --all or --exp <id>", file=sys.stderr)
        return 2
    unknown = [e for e in exp_ids if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}", file=sys.stderr)
        return 2
    runcache.set_enabled(not args.no_cache)
    if args.sanitize:
        # worker processes read the environment, so this one switch covers
        # both the serial path and the ProcessPoolExecutor prewarm
        os.environ["REPRO_SANITIZE"] = "1"
    json_dir = pathlib.Path(args.json) if args.json else None
    if json_dir is not None:
        json_dir.mkdir(parents=True, exist_ok=True)
    if args.jobs > 1:
        started = time.time()
        counters = parallel.prewarm(exp_ids, scale=args.scale,
                                    jobs=args.jobs)
        print(
            f"prewarm: {counters['planned']} distinct runs "
            f"({counters['memo']} memoized, {counters['disk']} from disk "
            f"cache, {counters['executed']} simulated on {args.jobs} "
            f"workers) [{time.time() - started:.1f}s]"
        )
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    loop_started = time.time()
    for exp_id in exp_ids:
        started = time.time()
        result = run_experiment(exp_id, scale=args.scale)
        elapsed = time.time() - started
        print(f"== {result.exp_id}: {result.title} [{elapsed:.1f}s] ==")
        print(result.text)
        print()
        if json_dir is not None:
            payload = {
                "id": result.exp_id,
                "title": result.title,
                "scale": args.scale,
                "data": _jsonify(result.data),
            }
            (json_dir / f"{result.exp_id}.json").write_text(
                json.dumps(payload, indent=2)
            )
    if profiler is not None:
        import io
        import pstats

        profiler.disable()
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats("cumulative").print_stats(25)
        print(f"profile: experiment loop took "
              f"{time.time() - loop_started:.2f}s wall-clock")
        print(buffer.getvalue())
    if not args.no_cache:
        cache = runcache.stats()
        print(
            f"run cache: {cache['hits']} hits, {cache['misses']} misses, "
            f"{cache['stores']} stores ({runcache.cache_dir()})"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
