"""Deterministic discrete-event simulation engine.

The whole machine model is built on this small engine.  Components interact
only by scheduling callbacks at future cycle counts; there is no implicit
global step.  Two properties matter for a reproduction study:

* **Determinism** — events scheduled for the same cycle fire in scheduling
  order (a monotonically increasing sequence number breaks ties), so a run
  is a pure function of the configuration and the seeds.
* **Cheap idle time** — nothing happens between events, which lets the
  processor models fast-forward through long runs of cache hits without
  touching the queue (see :mod:`repro.node.processor`).

The event queue is one binary heap of ``(time, seq, fn, args)`` tuples
(see DESIGN.md §9): ordering uses C-level tuple comparisons, and ``seq``
is unique, so the callback is never compared.  Scheduling is
closure-free — ``sim.call(delay, fn, *args)`` stores the function and its
arguments in the entry instead of requiring a per-event lambda — and an
event is nothing but its heap entry: there is no event object and no
handle to keep, and a scheduled event always fires.

Time is measured in integer *cycles* of the system clock (the paper's
switches, links and processors all run at 200 MHz, so a single clock domain
suffices; components with slower logic express their latency as a cycle
count).
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from ..errors import SimulationError

Callback = Callable[..., Any]

#: one queue entry: (time, seq, fn, args) — compared as a C-level tuple
Entry = Tuple[int, int, Callback, Tuple[Any, ...]]

#: "no bound" for the main loop's single per-event time comparison
#: (larger than any cycle count a run can reach)
_NO_BOUND = sys.maxsize


class Simulator:
    """Event queue and clock for one simulated machine.

    Typical component code::

        sim.call(4, port.grant, msg)            # relative delay, no lambda
        sim.call_at(sim.now + latency, self._finish, txn)

    (``schedule``/``at`` remain as zero-argument conveniences.)  The
    engine never advances past ``horizon`` (if set), which the tests use
    to bound runaway models.
    """

    __slots__ = (
        "now", "_seq", "_heap", "_peak", "_events_fired", "horizon",
        "tracer", "_stop",
    )

    def __init__(self, horizon: Optional[int] = None) -> None:
        self.now: int = 0
        self._seq: int = 0
        self._heap: List[Entry] = []
        self._peak: int = 0  # high-water queue depth
        self._events_fired: int = 0
        self._stop: bool = False  # set by request_stop(), read per event
        self.horizon = horizon
        # observability hook: components reach the run's Tracer through
        # the simulator they already hold (None = tracing disabled; every
        # instrumentation site guards on that, which is the whole of the
        # disabled path's overhead)
        self.tracer: Optional[Any] = None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callback) -> None:
        """Schedule ``callback`` to fire ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.call_at(self.now + delay, callback)

    def at(self, time: int, callback: Callback) -> None:
        """Schedule ``callback`` at absolute cycle ``time`` (>= now)."""
        self.call_at(time, callback)

    def call(self, delay: int, fn: Callback, *args: Any) -> None:
        """Schedule ``fn(*args)`` ``delay`` cycles from now, closure-free."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.call_at(self.now + delay, fn, *args)

    def call_at(self, time: int, fn: Callback, *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute cycle ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now {self.now}"
            )
        self._seq = seq = self._seq + 1
        heap = self._heap
        heappush(heap, (time, seq, fn, args))
        if len(heap) > self._peak:
            self._peak = len(heap)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event.  Returns False if there is none.

        An event beyond ``horizon`` is dropped, and the step fires nothing.
        """
        heap = self._heap
        if not heap:
            return False
        time, _, fn, args = heappop(heap)
        if self.horizon is not None and time > self.horizon:
            return False
        self.now = time
        self._events_fired += 1
        fn(*args)
        return True

    def run(self, until: Optional[int] = None) -> int:
        """Run until the queue drains (or ``until`` cycles).  Returns now.

        Each event is popped exactly once: an event beyond ``until`` is
        pushed back and the loop stops.  Events beyond ``horizon`` are
        dropped, as :meth:`step` drops them.
        """
        heap = self._heap
        horizon = self.horizon
        if until is None:
            while heap:
                time, _, fn, args = heappop(heap)
                if horizon is not None and time > horizon:
                    break
                self.now = time
                self._events_fired += 1
                fn(*args)
        else:
            while heap:
                entry = heappop(heap)
                time = entry[0]
                if time > until:
                    heappush(heap, entry)  # not ours to fire; put it back
                    break
                if horizon is not None and time > horizon:
                    continue
                self.now = time
                self._events_fired += 1
                entry[2](*entry[3])
            self.now = max(self.now, until)
        return self.now

    def request_stop(self) -> None:
        """Ask the running :meth:`run_until_stop` loop to exit.

        Takes effect before the next event fires.
        """
        self._stop = True

    def run_until_stop(self, until: Optional[int] = None) -> int:
        """Run events until :meth:`request_stop` or the queue drains.

        This is the main loop of a :class:`~repro.system.machine.Machine`,
        whose only stop condition is "every processor finished", so the
        per-event stop test is one attribute load.  ``until`` bounds the
        loop as well: the first event beyond it is pushed back (as
        :meth:`run` does) and the loop returns.  It shares the per-event
        comparison with ``horizon``, so a bound costs nothing per event.
        Unlike :meth:`run`, the clock is left at the last fired event.
        """
        heap = self._heap
        horizon = self.horizon
        bound = _NO_BOUND if horizon is None else horizon
        if until is not None and until < bound:
            bound = until
        fired = 0
        try:
            while not self._stop and heap:
                time, seq, fn, args = heappop(heap)
                if time > bound:
                    # beyond ``until`` only: not ours to fire, put it
                    # back; beyond the horizon: dropped, as step() does
                    if horizon is None or time <= horizon:
                        heappush(heap, (time, seq, fn, args))
                    break
                self.now = time
                fired += 1
                fn(*args)
            return self.now
        finally:
            self._stop = False
            # counted locally in the loop; published even on an exception
            self._events_fired += fired

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)

    @property
    def peak_pending(self) -> int:
        """High-water queue depth."""
        return self._peak

    @property
    def events_fired(self) -> int:
        return self._events_fired

    def next_event_time(self) -> Optional[int]:
        heap = self._heap
        return heap[0][0] if heap else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now} pending={self.pending}>"
