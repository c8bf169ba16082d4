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


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(10, lambda: fired.append("no"))
    event.cancel()
    sim.run()
    assert fired == []
    assert sim.events_fired == 0


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(10, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()


def test_cancel_one_of_several():
    sim = Simulator()
    fired = []
    sim.schedule(1, lambda: fired.append(1))
    e2 = sim.schedule(2, lambda: fired.append(2))
    sim.schedule(3, lambda: fired.append(3))
    e2.cancel()
    sim.run()
    assert fired == [1, 3]


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


def test_run_while_predicate():
    sim = Simulator()
    count = []

    def tick():
        count.append(sim.now)
        sim.schedule(1, tick)

    sim.schedule(0, tick)
    sim.run_while(lambda: len(count) < 5)
    assert len(count) == 5


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
    e = sim.schedule(2, lambda: None)
    e.cancel()
    assert sim.pending == 1


def test_next_event_time():
    sim = Simulator()
    assert sim.next_event_time() is None
    sim.schedule(7, lambda: None)
    assert sim.next_event_time() == 7


def test_next_event_time_skips_cancelled():
    sim = Simulator()
    e = sim.schedule(3, lambda: None)
    sim.schedule(9, lambda: None)
    e.cancel()
    assert sim.next_event_time() == 9


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


def test_pending_exact_through_cancellation_storm():
    """The O(1) live-event counter stays exact across every path a
    cancelled event can take: cancelled-then-popped, double-cancelled,
    cancelled after firing, and events pushed back by run(until)."""
    sim = Simulator()
    events = [sim.schedule(t, lambda: None) for t in range(1, 11)]
    assert sim.pending == 10
    for e in events[::2]:
        e.cancel()
        e.cancel()  # idempotent: must not double-count
    assert sim.pending == 5
    sim.run(until=6)  # fires 2,4,6; discards cancelled 1,3,5
    assert sim.pending == 2  # 8 and 10 still live (7, 9 cancelled)
    fired = events[1]
    fired.cancel()  # cancelling an already-fired event is a no-op
    assert sim.pending == 2
    sim.run()
    assert sim.pending == 0


def test_run_until_event_pushed_back_survives_cancel():
    """An event beyond `until` is reinserted; cancelling it afterwards
    must still be honoured (and keep the pending count exact)."""
    sim = Simulator()
    fired = []
    late = sim.schedule(100, lambda: fired.append("late"))
    sim.run(until=50)
    assert sim.now == 50 and sim.pending == 1
    late.cancel()
    assert sim.pending == 0
    sim.run()
    assert fired == []


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


def test_free_list_recycles_unreferenced_events():
    sim = Simulator()
    for _ in range(50):
        sim.call(1, int)  # handle dropped immediately -> recyclable
        sim.run()
    assert len(sim._free) >= 1
    before = len(sim._free)
    sim.call(1, int)
    assert len(sim._free) == before - 1  # scheduling reuses the pool


def test_kept_handle_is_never_recycled():
    sim = Simulator()
    kept = sim.call(1, int)
    sim.run()
    assert kept not in sim._free  # a held reference blocks recycling
    kept.cancel()  # stale handle stays inert (event already fired)
    sim.call(1, int)
    sim.run()
    assert sim.events_fired == 2


# ----------------------------------------------------------------------
# lockstep fuzz against a sorted-list oracle
# ----------------------------------------------------------------------
class _Oracle:
    """Reference model of the engine: a sorted list of queue entries.

    Entries are ``[time, seq, label, state]`` lists kept in ``(time,
    seq)`` order (``seq`` is unique, so comparison never reaches the
    label).  Cancelled entries stay queued until they reach the head,
    mirroring the engine's lazy deletion, so queue lengths compare too.
    """

    def __init__(self):
        self.now = 0
        self.seq = 0
        self.queue = []
        self.fired = []
        self.peak = 0

    def schedule(self, delay, label):
        self.seq += 1
        entry = [self.now + delay, self.seq, label, "live"]
        bisect.insort(self.queue, entry)
        self.peak = max(self.peak, len(self.queue))
        return entry

    @staticmethod
    def cancel(entry):
        if entry[3] == "live":
            entry[3] = "cancelled"

    def _drop_cancelled_heads(self):
        while self.queue and self.queue[0][3] == "cancelled":
            self.queue.pop(0)

    def fire_next(self, until=None):
        """Fire the earliest live event (if at or before ``until``)."""
        self._drop_cancelled_heads()
        if not self.queue or (until is not None and self.queue[0][0] > until):
            return False
        entry = self.queue.pop(0)
        entry[3] = "fired"
        self.now = entry[0]
        self.fired.append((entry[2], entry[0]))
        return True

    def run(self, until):
        while self.fire_next(until):
            pass
        self.now = max(self.now, until)

    def next_event_time(self):
        self._drop_cancelled_heads()
        return self.queue[0][0] if self.queue else None

    @property
    def pending(self):
        return sum(1 for entry in self.queue if entry[3] == "live")


def _lockstep(seed, ops=400):
    """Replay a seeded op-script on the engine and the oracle in lockstep.

    The script is adversarial on purpose: same-cycle bursts (the seq
    tie-break), cancellation storms (lazy deletion), huge time jumps,
    peek-then-schedule-earlier, and ``run(until)`` push-backs.  Half the
    scheduled handles are dropped at once, so the event free list
    recycles them while the kept half stays cancellable.
    """
    rng = random.Random(seed)
    sim = Simulator()
    oracle = _Oracle()
    fired = []
    kept = []  # (engine handle, oracle entry)
    label = 0

    def schedule(delay):
        nonlocal label

        def callback(label=label):
            fired.append((label, sim.now))

        entry = oracle.schedule(delay, label)
        label += 1
        if rng.random() < 0.5:
            kept.append((sim.schedule(delay, callback), entry))
        else:
            sim.schedule(delay, callback)

    for op_idx in range(ops):
        roll = rng.random()
        if roll < 0.40:
            schedule(rng.choice((0, 1, 1, 2, 4, 4, 8, 30)))
        elif roll < 0.50:
            # same-cycle burst: seq must break the tie
            delay = rng.choice((0, 2, 4))
            for _ in range(rng.randint(2, 5)):
                schedule(delay)
        elif roll < 0.55:
            schedule(rng.choice((10_000, 100_000)))
        elif roll < 0.65:
            live = [pair for pair in kept if pair[1][3] != "cancelled"]
            if live:
                handle, entry = live[rng.randrange(len(live))]
                handle.cancel()
                oracle.cancel(entry)
        elif roll < 0.72:
            assert sim.next_event_time() == oracle.next_event_time()
            schedule(rng.choice((0, 1, 2)))
        elif roll < 0.84:
            for _ in range(rng.randint(1, 8)):
                assert sim.step() == oracle.fire_next()
        elif roll < 0.92:
            limit = rng.randint(1, 30)
            budget = [limit]

            def more(budget=budget):
                budget[0] -= 1
                return budget[0] >= 0

            sim.run_while(more)
            for _ in range(limit):  # at most ``limit`` events fire
                if not oracle.fire_next():
                    break
        else:
            until = sim.now + rng.choice((0, 3, 20, 200))
            sim.run(until=until)
            oracle.run(until)
        context = f"seed {seed} op {op_idx}"
        assert fired == oracle.fired, context
        assert sim.now == oracle.now, context
        assert sim.pending == oracle.pending, context
        assert len(sim._queue) == len(oracle.queue), context
        assert sim.peak_pending == oracle.peak, context
        assert sim.events_fired == len(oracle.fired), context

    sim.run()
    while oracle.fire_next():
        pass
    assert fired == oracle.fired
    assert sim.pending == oracle.pending == 0
    assert fired  # the script actually fired something


@pytest.mark.parametrize("seed", range(8))
def test_lockstep_fuzz(seed):
    _lockstep(seed)


def test_lockstep_fuzz_long():
    _lockstep(seed=1234, ops=1500)
