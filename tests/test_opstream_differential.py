"""Lockstep differential: ``REPRO_OPS=compiled`` vs ``gen``.

The compiled front end (integer-coded op chunks + stride superops,
DESIGN.md §13) promises *bit identity* with the generator path: same
statistics, same simulated timing, same value traces, same event count,
and the same per-processor state down to the L1's LRU ticks.  These tests
run every paper kernel under both front ends across the protocol /
switch-cache matrix and compare complete run fingerprints; a seeded fuzz
does the same for random loop bodies under a two-entry write buffer.

The small app scales here are chosen so the whole matrix stays in
tier-1 time; the full quick/full-scale sweep runs in the bench harness
(``repro-experiments bench``), whose ops section asserts the same
identity on every CI run.
"""

import random

import pytest

from repro.apps.base import Application
from repro.apps.opstream import OPS_ENV
from repro.apps.synthetic import PrivateWork, UniformRandom
from repro.experiments.common import make_app
from repro.system.machine import Machine
from repro.system.presets import base_config, switch_cache_config

#: small instances of the six paper kernels — big enough to cross
#: block/chunk boundaries and fill the write buffer, small enough that
#: the 24-cell matrix stays cheap
SMALL_SCALE = {
    "FWA": {"n": 12},
    "GS": {"n_vectors": 8, "length": 12},
    "GE": {"n": 12},
    "MM": {"n": 12},
    "SOR": {"n": 16, "iterations": 1},
    "FFT": {"m": 8},
}

APPS = sorted(SMALL_SCALE)
PROTOCOLS = ("msi", "mesi")
SWITCH = ("off", "on")


def _config(protocol, switch, **overrides):
    if switch == "on":
        return switch_cache_config(4, protocol=protocol, **overrides)
    return base_config(4, protocol=protocol, **overrides)


def _small_app(name):
    return make_app(name, "quick", SMALL_SCALE[name])


def machine_state(machine):
    """Per-processor state no stats field shows: write-buffer counters,
    processor counters and the L1 arrays, LRU ticks included."""
    state = []
    for stack in machine.stacks():
        wb, proc, l1 = stack.write_buffer, stack.processor, stack.hierarchy.l1
        state.append((
            wb.stores_retired, wb.stores_merged, wb.full_stalls,
            proc.ops_executed, proc.read_stall_cycles, proc.wb_stall_cycles,
            proc.sync_stall_cycles, proc.finish_time,
            l1.hits, l1.misses, l1.evictions, l1._tick,
            sorted((addr, line.state, line.data, line.lru)
                   for addr, line in l1.resident_blocks()),
        ))
    return state


def fingerprint(config, app, mode, monkeypatch):
    """Everything observable from one run: stats payload, event count,
    per-processor value and write traces, per-processor state."""
    monkeypatch.setenv(OPS_ENV, mode)
    machine = Machine(config, sanitize=False)
    stats = machine.run(app)
    traces = {}
    for stack in machine.stacks():
        traces[("v", stack.proc_id)] = list(stack.processor.value_trace)
        traces[("w", stack.proc_id)] = list(stack.write_trace)
    return (stats.to_payload(), machine.sim.events_fired, traces,
            machine_state(machine))


def assert_identical(config, app_factory, monkeypatch):
    gen = fingerprint(config, app_factory(), "gen", monkeypatch)
    compiled = fingerprint(config, app_factory(), "compiled", monkeypatch)
    assert gen[0] == compiled[0], "stats diverged between front ends"
    assert gen[1] == compiled[1], "event counts diverged between front ends"
    assert gen[2] == compiled[2], "traces diverged between front ends"
    assert gen[3] == compiled[3], "processor state diverged between front ends"


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("switch", SWITCH)
@pytest.mark.parametrize("app_name", APPS)
def test_paper_kernels_bit_identical(app_name, protocol, switch, monkeypatch):
    config = _config(protocol, switch)
    assert_identical(config, lambda: _small_app(app_name), monkeypatch)


@pytest.mark.parametrize("app_name", ["GE", "SOR"])
def test_value_tracing_bit_identical(app_name, monkeypatch):
    # trace_values=True retires reads one by one in the read runs and
    # renders loop kernels without the unchecked whole-iteration path;
    # both modes must still agree
    config = _config("msi", "on", trace_values=True)
    assert_identical(config, lambda: _small_app(app_name), monkeypatch)


def test_object_state_kernels_bit_identical(monkeypatch):
    # the REPRO_STATE=obj reference models lack the slot columns, so
    # loop kernels probe L1 through lookup_data — still bit-identical
    from repro.cache.states import STATE_ENV

    monkeypatch.setenv(STATE_ENV, "obj")
    assert_identical(_config("msi", "on"), lambda: _small_app("GE"),
                     monkeypatch)


def test_synthetic_alias_pattern_bit_identical(monkeypatch):
    # PrivateWork's loop reads and rewrites the same element: each read
    # after the first of a block forwards from the buffered store
    config = _config("msi", "on")
    assert_identical(config, lambda: PrivateWork(), monkeypatch)


def test_synthetic_irregular_stream_bit_identical(monkeypatch):
    # seeded-random streams defeat the peephole almost everywhere:
    # exercises the elementary-op decode loop
    config = _config("msi", "off")
    assert_identical(
        config, lambda: UniformRandom(ops_per_proc=150), monkeypatch
    )


class MacroLoops(Application):
    """Per-processor macro programs over one shared interleaved region.

    ``programs`` maps a processor to its ops; loop slot addresses are
    offsets into the region.  Processors without a program run nothing.
    """

    name = "macro-loops"

    def __init__(self, programs, nbytes):
        self.programs = programs
        self.nbytes = nbytes
        self.base = None

    def setup(self, machine):
        self.base = machine.space.alloc(self.nbytes, interleave=True)

    def macro_ops(self, proc_id, machine):
        base = self.base
        for op in self.programs.get(proc_id, ()):
            if op[0] == "loop":
                body = tuple(slot if slot[0] == "work"
                             else (slot[0], base + slot[1], slot[2])
                             for slot in op[2])
                yield ("loop", op[1], body)
            else:
                yield op


def test_two_store_slots_drain_in_element_order(monkeypatch):
    # stores of one iteration enter the write buffer slot by slot, so
    # the entries drain in element order; a second processor writing
    # the same blocks makes that order visible in the timing
    loop = ("loop", 64, (("w", 0, 8), ("w", 4096, 8)))
    app = lambda: MacroLoops({0: [loop], 1: [loop]}, 8192)  # noqa: E731
    assert_identical(base_config(4), app, monkeypatch)


# ---------------------------------------------------------------------------
# lockstep fuzz: random loop bodies under a tiny write buffer and quantum
# ---------------------------------------------------------------------------

FUZZ_STRIDES = (-64, -8, 0, 8, 16, 64, 384)
FUZZ_ITERS = 24
#: keeps every slot address inside the region whatever its stride
FUZZ_MARGIN = FUZZ_ITERS * 384
#: slot bases fall in this window, so slots and processors share blocks
FUZZ_WINDOW = 2048
FUZZ_PHASES = 3


def random_body(rng):
    body = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("r", "r", "w", "work"))
        if kind == "work":
            body.append(("work", rng.choice((0, 1, 3))))
        else:
            offset = FUZZ_MARGIN + 8 * rng.randrange(FUZZ_WINDOW // 8)
            body.append((kind, offset, rng.choice(FUZZ_STRIDES)))
    return tuple(body)


def random_programs(rng, procs):
    programs = {}
    for proc in range(procs):
        ops = []
        for phase in range(FUZZ_PHASES):
            for _ in range(rng.randint(1, 3)):
                ops.append(("loop", rng.randint(1, FUZZ_ITERS),
                            random_body(rng)))
            ops.append(("barrier", phase))
        programs[proc] = ops
    return programs


@pytest.mark.parametrize("seed", range(32))
def test_random_loop_bodies_bit_identical(seed, monkeypatch):
    rng = random.Random(seed)
    protocol = PROTOCOLS[seed % 2]
    switch = SWITCH[seed // 2 % 2]
    config = _config(
        protocol, switch, trace_values=bool(seed // 4 % 2),
        write_buffer_entries=2, quantum=rng.choice((5, 12, 30, 80)),
        l1_size=256, l2_size=4096,
    )
    programs = random_programs(rng, 4)
    nbytes = 2 * FUZZ_MARGIN + FUZZ_WINDOW
    assert_identical(config, lambda: MacroLoops(programs, nbytes),
                     monkeypatch)
