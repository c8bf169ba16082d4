"""Microbenchmarks of the simulator's hot paths.

These are true pytest-benchmark measurements (many iterations): cache
array probes, BMIN route computation, switch-cache engine operations, and
the event engine itself.  They guard against performance regressions that
would make the paper-scale experiments impractically slow.
"""

from repro.cache.array import CacheArray
from repro.cache.states import LineState
from repro.core.caesar import CaesarEngine
from repro.core.switchcache import SwitchCacheGeometry
from repro.network.message import Message, MsgKind
from repro.network.topology import BminTopology
from repro.sim.engine import Simulator


def test_cache_array_lookup(benchmark):
    array = CacheArray(16 * 1024, 64, 2)
    for block in range(256):
        array.insert(block * 64, LineState.SHARED, 1)

    def probe_all():
        hits = 0
        for block in range(256):
            if array.lookup(block * 64) is not None:
                hits += 1
        return hits

    assert benchmark(probe_all) == 256


def test_bmin_routing(benchmark):
    topo = BminTopology(16)

    def route_all_pairs():
        total = 0
        for a in range(16):
            for b in range(16):
                if a != b:
                    total += len(topo.path(a, b))
        return total

    assert benchmark(route_all_pairs) > 0


def test_event_engine_throughput(benchmark):
    """Steady-state engine load: thousands pending, interleaved cancels.

    Holds a few thousand events pending (a 16-node machine peaks in the
    tens-to-hundreds; paper-scale configs go higher), with the short
    constant delays and the speculative-wakeup cancellations of the real
    machine, so the heap's O(log n) per-op cost at realistic depth is
    what gets measured — a schedule-one/fire-one loop would keep the
    heap at depth one and hide it.
    """
    DEPTH = 3_000
    TOTAL = 15_000

    def run_steady_state():
        sim = Simulator()
        fired = [0]
        cancelled = []

        def tick(delay):
            fired[0] += 1
            if fired[0] + sim.pending < TOTAL:
                # reschedule at the machine's short constant delays, and
                # park a speculative event that is cancelled before firing
                event = sim.call(delay + 200, tick, delay)
                cancelled.append(event)
                sim.call(delay, tick, delay)
                if len(cancelled) >= 16:
                    cancelled.pop().cancel()

        for i in range(DEPTH):
            sim.call(1 + (i % 64), tick, 1 + (i % 7) * 4)
        sim.run()
        return fired[0]

    assert benchmark(run_steady_state) > DEPTH


def test_event_engine_cancellation(benchmark):
    """Timeout-style load: most events are cancelled before they fire.

    Models the simulator's dominant cancellation pattern (speculative
    wakeups superseded by earlier completions) and exercises the
    pop-once ``run(until=...)`` loop plus the O(1) ``pending`` counter.
    """

    def run_with_cancellations():
        sim = Simulator()
        fired = [0]

        def tick():
            fired[0] += 1

        # schedule 4 timeouts per step, cancel 3, run in until-windows
        events = []
        for step in range(2_000):
            t = step * 4
            for slot in range(4):
                events.append(sim.at(t + slot + 1, tick))
        for i, event in enumerate(events):
            if i % 4:
                event.cancel()
        horizon = 0
        while sim.pending:
            horizon += 512
            sim.run(until=horizon)
        return fired[0]

    assert benchmark(run_with_cancellations) == 2_000


def test_caesar_deposit_then_hit(benchmark):
    def deposit_and_intercept():
        sim = Simulator()
        engine = CaesarEngine(sim, (1, 0), SwitchCacheGeometry(size=2048))
        served = 0
        for block in range(64):
            addr = block * 64
            reply = Message(MsgKind.DATA_S, 0, 1, addr, 9, data=1)
            engine.try_deposit(reply)
            request = Message(MsgKind.READ, 2, 0, addr, 1)
            if engine.try_intercept(request) is not None:
                served += 1
            # worms arrive spaced out; keep the engine's ports drained so
            # the busy-bypass policy (correctly) stays out of the way
            sim.now += 16
        return served

    assert benchmark(deposit_and_intercept) == 64
