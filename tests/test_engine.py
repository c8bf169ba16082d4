"""Unit tests for the discrete-event engine."""

import bisect
import random

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def test_initial_state():
    sim = Simulator()
    assert sim.now == 0
    assert sim.pending == 0
    assert sim.events_fired == 0


def test_schedule_and_run_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(10, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [10]
    assert sim.now == 10


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30, lambda: order.append("c"))
    sim.schedule(10, lambda: order.append("a"))
    sim.schedule(20, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_cycle_events_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for tag in "abcde":
        sim.schedule(5, lambda t=tag: order.append(t))
    sim.run()
    assert order == list("abcde")


def test_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.at(42, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [42]


def test_at_in_past_raises():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(5, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_nested_scheduling_from_callback():
    sim = Simulator()
    trail = []

    def first():
        trail.append(("first", sim.now))
        sim.schedule(5, lambda: trail.append(("second", sim.now)))

    sim.schedule(3, first)
    sim.run()
    assert trail == [("first", 3), ("second", 8)]


def test_step_returns_false_on_empty_queue():
    sim = Simulator()
    assert sim.step() is False


def test_step_fires_exactly_one_event():
    sim = Simulator()
    fired = []
    sim.schedule(1, lambda: fired.append("a"))
    sim.schedule(2, lambda: fired.append("b"))
    assert sim.step() is True
    assert fired == ["a"]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(5, lambda: fired.append(5))
    sim.schedule(50, lambda: fired.append(50))
    sim.run(until=10)
    assert fired == [5]
    assert sim.now == 10
    sim.run()
    assert fired == [5, 50]


def test_run_until_stop_stops_on_request():
    sim = Simulator()
    count = []

    def tick():
        count.append(sim.now)
        if len(count) == 5:
            sim.request_stop()
        sim.schedule(1, tick)

    sim.schedule(0, tick)
    sim.run_until_stop()
    assert len(count) == 5
    assert sim.pending == 1  # the sixth tick is still queued
    sim.run(until=sim.now)  # the stop request was consumed
    assert len(count) == 5


def test_run_until_stop_pushes_back_beyond_until():
    sim = Simulator()
    fired = []
    for t in (3, 7, 12):
        sim.call_at(t, fired.append, t)
    sim.run_until_stop(until=7)
    assert fired == [3, 7]
    assert sim.now == 7  # left at the last fired event, not advanced
    assert sim.pending == 1 and sim.next_event_time() == 12
    sim.run_until_stop()
    assert fired == [3, 7, 12]


def test_run_until_stop_drops_beyond_horizon():
    sim = Simulator(horizon=10)
    fired = []
    for t in (5, 20, 30):
        sim.call_at(t, fired.append, t)
    sim.run_until_stop(until=25)  # the horizon bounds before until
    assert fired == [5]
    assert sim.pending == 1  # t=20 was dropped, as step() drops it
    assert sim.events_fired == 1


def test_horizon_stops_run():
    sim = Simulator(horizon=100)
    fired = []
    sim.schedule(50, lambda: fired.append(50))
    sim.schedule(150, lambda: fired.append(150))
    sim.run()
    assert fired == [50]


def test_pending_counts_live_events_only():
    sim = Simulator()
    sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    assert sim.pending == 2
    sim.step()
    assert sim.pending == 1  # every queued event is still to fire
    sim.run()
    assert sim.pending == 0


def test_scheduling_returns_no_handle():
    sim = Simulator()
    assert sim.schedule(1, int) is None
    assert sim.at(2, int) is None
    assert sim.call(3, int) is None
    assert sim.call_at(4, int) is None
    assert sim.pending == 4


def test_next_event_time():
    sim = Simulator()
    assert sim.next_event_time() is None
    sim.schedule(7, lambda: None)
    assert sim.next_event_time() == 7


def test_events_fired_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.events_fired == 4


def test_zero_delay_fires_at_current_time():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    fired = []
    sim.schedule(0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [10]


def test_determinism_across_identical_runs():
    def build_and_run():
        sim = Simulator()
        trail = []

        def spawn(depth):
            trail.append((sim.now, depth))
            if depth < 4:
                sim.schedule(2, lambda: spawn(depth + 1))
                sim.schedule(2, lambda: spawn(depth + 1))

        sim.schedule(0, lambda: spawn(0))
        sim.run()
        return trail

    assert build_and_run() == build_and_run()


def test_callback_exception_propagates():
    sim = Simulator()
    sim.schedule(1, lambda: (_ for _ in ()).throw(ValueError("boom")))
    with pytest.raises(ValueError):
        sim.run()


def test_call_passes_arguments():
    sim = Simulator()
    seen = []
    sim.call(3, seen.append, "a")
    sim.call_at(5, lambda x, y: seen.append((x, y)), 1, 2)
    sim.run()
    assert seen == ["a", (1, 2)]
    assert sim.now == 5


def test_peak_pending_high_water():
    sim = Simulator()
    for t in (4, 1, 9, 2):
        sim.call_at(t, lambda: None)
    sim.run()
    assert sim.peak_pending == 4
    assert sim.pending == 0


# ----------------------------------------------------------------------
# lockstep fuzz against a sorted-list oracle
# ----------------------------------------------------------------------
class _Oracle:
    """Reference model of the engine: a sorted list of queue entries.

    Entries are ``(time, seq, label)`` tuples kept in ``(time, seq)``
    order (``seq`` is unique, so comparison never reaches the label).
    """

    def __init__(self):
        self.now = 0
        self.seq = 0
        self.queue = []
        self.fired = []
        self.peak = 0

    def schedule(self, delay, label):
        self.seq += 1
        bisect.insort(self.queue, (self.now + delay, self.seq, label))
        self.peak = max(self.peak, len(self.queue))

    def fire_next(self, until=None):
        """Fire the earliest event (if at or before ``until``)."""
        if not self.queue or (until is not None and self.queue[0][0] > until):
            return False
        time, _, label = self.queue.pop(0)
        self.now = time
        self.fired.append((label, time))
        return True

    def run(self, until):
        while self.fire_next(until):
            pass
        self.now = max(self.now, until)

    def next_event_time(self):
        return self.queue[0][0] if self.queue else None


def _lockstep(seed, ops=400):
    """Replay a seeded op-script on the engine and the oracle in lockstep.

    The script is adversarial on purpose: same-cycle bursts (the seq
    tie-break), huge time jumps, peek-then-schedule-earlier, and the
    push-backs of ``run(until)`` and of the main loop's
    ``run_until_stop(until)`` bound.
    """
    rng = random.Random(seed)
    sim = Simulator()
    oracle = _Oracle()
    fired = []
    label = 0

    def schedule(delay):
        nonlocal label
        sim.call(delay, lambda label=label: fired.append((label, sim.now)))
        oracle.schedule(delay, label)
        label += 1

    for op_idx in range(ops):
        roll = rng.random()
        if roll < 0.45:
            schedule(rng.choice((0, 1, 1, 2, 4, 4, 8, 30)))
        elif roll < 0.55:
            # same-cycle burst: seq must break the tie
            delay = rng.choice((0, 2, 4))
            for _ in range(rng.randint(2, 5)):
                schedule(delay)
        elif roll < 0.60:
            schedule(rng.choice((10_000, 100_000)))
        elif roll < 0.70:
            assert sim.next_event_time() == oracle.next_event_time()
            schedule(rng.choice((0, 1, 2)))
        elif roll < 0.82:
            for _ in range(rng.randint(1, 8)):
                assert sim.step() == oracle.fire_next()
        elif roll < 0.91:
            until = sim.now + rng.choice((0, 3, 20, 200))
            sim.run_until_stop(until)
            while oracle.fire_next(until):
                pass
        else:
            until = sim.now + rng.choice((0, 3, 20, 200))
            sim.run(until=until)
            oracle.run(until)
        context = f"seed {seed} op {op_idx}"
        assert fired == oracle.fired, context
        assert sim.now == oracle.now, context
        assert sim.pending == len(oracle.queue), context
        assert sim.peak_pending == oracle.peak, context
        assert sim.events_fired == len(oracle.fired), context

    sim.run()
    while oracle.fire_next():
        pass
    assert fired == oracle.fired
    assert sim.pending == len(oracle.queue) == 0
    assert fired  # the script actually fired something


@pytest.mark.parametrize("seed", range(8))
def test_lockstep_fuzz(seed):
    _lockstep(seed)


def test_lockstep_fuzz_long():
    _lockstep(seed=1234, ops=1500)
