"""SCSan: opt-in runtime invariant layer for live simulations.

The model checker (:mod:`repro.verify.modelcheck`) proves the protocol
sound on a small abstract configuration; SCSan re-checks the same
invariants on the *real* component models while a full simulation runs,
plus the kernel-level properties the abstraction cannot see:

* **SWMR** — after every message delivery, at most one processor stack
  holds an owned (MODIFIED/EXCLUSIVE) copy of the delivered block, and
  no switch-cache copy runs ahead of the home directory's image.
* **Flit conservation** — every worm injected into (or fabricated
  inside) the fabric is delivered exactly once; nothing is dropped or
  duplicated.  Checked with a ledger keyed on message identity.
* **Engine integrity** — event times never move the clock backwards and
  the O(1) live-event counter (``Simulator.pending``) periodically
  agrees with an O(n) recount of the queue.
* **Drain-before-release** — a processor arriving at a barrier or
  releasing a lock must have an empty write buffer (the fence semantics
  :mod:`repro.node.processor` promises).
* **Final audit** — at end of run the ledger is empty, write buffers
  are empty, and the whole-system coherence audit
  (:meth:`~repro.system.machine.Machine.check_coherence`) is clean.

Enable with ``Machine(config, sanitize=True)``, ``--sanitize`` on the
``repro-sim``/``repro-experiments`` CLIs, or ``REPRO_SANITIZE=1`` in the
environment (the pytest hook).  Violations raise
:class:`~repro.errors.SanitizerError` at the detection point, so the
offending event is at the top of the traceback.

The fabric ledger covers the message-granularity :class:`Fabric`; the
flit-granularity reference model (``network_model="flit"``) runs with
the coherence, engine, and sync checks only.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import SanitizerError
from ..network.fabric import Fabric
from ..network.message import Message
from ..sim.engine import Event, Simulator

#: fired events between O(n) engine queue audits
AUDIT_PERIOD = 2048


class Sanitizer:
    """Shared state for one machine's runtime checks.

    One instance is threaded through the sanitized engine, the sanitized
    fabric, and the wrappers installed on the machine's NIs and sync
    managers.  ``violations`` keeps everything detected (for reporting);
    detection also raises immediately so the failing event is on the
    stack.
    """

    def __init__(self) -> None:
        self.violations: List[str] = []
        self.events_checked = 0
        self.deliveries_checked = 0
        self.sync_checks = 0
        self._machine = None

    # ------------------------------------------------------------------
    # violation sink
    # ------------------------------------------------------------------
    def violation(self, kind: str, message: str) -> None:
        report = f"[{kind}] {message}"
        self.violations.append(report)
        raise SanitizerError(f"SCSan: {report}")

    # ------------------------------------------------------------------
    # machine hookup
    # ------------------------------------------------------------------
    def attach_machine(self, machine) -> None:
        """Install delivery and sync wrappers on a fully built machine."""
        self._machine = machine
        for node in machine.nodes:
            self._wrap_dispatch(node)
        self._wrap_sync(machine)

    def _wrap_dispatch(self, node) -> None:
        original = node.ni._dispatch
        if original is None:  # pragma: no cover - nodes attach in __init__
            return

        def checked(msg: Message, _orig=original) -> None:
            _orig(msg)
            self.deliveries_checked += 1
            self.check_block(msg.addr)

        node.ni._dispatch = checked

    def _wrap_sync(self, machine) -> None:
        stacks = {stack.proc_id: stack for stack in machine.stacks()}

        def require_drained(proc_id: int, action: str) -> None:
            self.sync_checks += 1
            stack = stacks.get(proc_id)
            if stack is not None and not stack.write_buffer.is_empty():
                blocks = ", ".join(
                    f"{b:#x}" for b in sorted(stack.write_buffer.pending_blocks())
                )
                self.violation(
                    "sync",
                    f"proc {proc_id} {action} with non-empty write buffer "
                    f"({blocks})",
                )

        barrier_arrive = machine.barriers.arrive

        def arrive(barrier_id: int, node_id: int, resume,
                   _orig=barrier_arrive) -> None:
            require_drained(node_id, f"arrived at barrier {barrier_id}")
            _orig(barrier_id, node_id, resume)

        machine.barriers.arrive = arrive

        lock_release = machine.locks.release

        def release(lock_id: int, node_id: int, _orig=lock_release) -> None:
            require_drained(node_id, f"released lock {lock_id}")
            _orig(lock_id, node_id)

        machine.locks.release = release

    # ------------------------------------------------------------------
    # per-delivery block check
    # ------------------------------------------------------------------
    def check_block(self, addr: int) -> None:
        """SWMR + switch-copy freshness for one block, valid mid-flight."""
        machine = self._machine
        bs = machine.config.block_size
        block = (addr // bs) * bs
        owners = []
        for node in machine.nodes:
            for stack in node.stacks:
                line = stack.hierarchy.l2.probe(block)
                if line is not None and line.state.owned():
                    owners.append(stack.proc_id)
        if len(owners) > 1:
            self.violation(
                "swmr",
                f"block {block:#x}: owned copies at procs {owners}",
            )
        # a switch-cache copy is deposited from a DATA_S carrying the home
        # image, so it may lag the directory (a purge INV is in flight)
        # but must never run ahead of it
        home = machine.nodes[machine.space.home_of(block)]
        entry = home.directory.peek(block)
        if entry is None:
            return
        for switch in machine.fabric.switches.values():
            engine = switch.cache_engine
            if engine is None:
                continue
            line = engine.array.probe(block)
            if line is not None and line.data > entry.version:
                self.violation(
                    "switch",
                    f"block {block:#x}: switch {switch.id} copy "
                    f"v{line.data} ahead of home image v{entry.version}",
                )

    # ------------------------------------------------------------------
    # end-of-run audit
    # ------------------------------------------------------------------
    def final_check(self, machine) -> None:
        """Ledger, write-buffer, engine, and coherence audit at quiescence."""
        problems: List[str] = []
        fabric = machine.fabric
        if isinstance(fabric, SanitizedFabric):
            for msg in fabric.in_flight():
                problems.append(
                    f"[fabric] {msg.kind.name} for {msg.addr:#x} "
                    f"({msg.src}->{msg.dst}, {msg.flits} flits) never delivered"
                )
        for stack in machine.stacks():
            if not stack.write_buffer.is_empty():
                problems.append(
                    f"[sync] proc {stack.proc_id} finished with a non-empty "
                    f"write buffer"
                )
        sim = machine.sim
        if isinstance(sim, SanitizedSimulator):
            drift = sim.counter_drift()
            if drift is not None:
                problems.append(f"[engine] {drift}")
        problems.extend(
            f"[coherence] {problem}" for problem in machine.check_coherence()
        )
        if problems:
            self.violations.extend(problems)
            raise SanitizerError(
                "SCSan: end-of-run audit failed:\n  " + "\n  ".join(problems)
            )


class SanitizedSimulator(Simulator):
    """Engine overlay: monotonic clock + periodic live-counter audits.

    Re-implements the run loops in terms of a checked single step.  The
    base class inlines these loops for speed; the sanitized variant
    trades that for a check per event, preserving the exact pop/drop
    semantics of :meth:`Simulator.run` (``until=None`` stops at a
    beyond-horizon head, ``until=X`` drops beyond-horizon events and
    pushes back the first event beyond ``until``).
    """

    def __init__(self, sanitizer: Sanitizer,
                 horizon: Optional[int] = None) -> None:
        super().__init__(horizon)
        self._san = sanitizer

    # -- checked firing -------------------------------------------------
    def _fire(self, event: Event) -> None:
        san = self._san
        if event.time < self.now:
            san.violation(
                "engine",
                f"event t={event.time} would move the clock backwards "
                f"from {self.now}",
            )
        self.now = event.time
        self._events_fired += 1
        san.events_checked += 1
        if san.events_checked % AUDIT_PERIOD == 0:
            self.audit()
        event.callback(*event.args)

    def audit(self) -> None:
        """O(n) recount of live events vs the O(1) ``pending`` counter."""
        drift = self.counter_drift()
        if drift is not None:
            self._san.violation("engine", drift)

    def counter_drift(self) -> Optional[str]:
        live = sum(1 for event in self._queue if not event.cancelled)
        if live != self.pending:
            return (
                f"live-event counter drift: pending={self.pending} "
                f"but {live} live events queued"
            )
        return None

    # -- run loops (same external semantics as the base class) ----------
    # These go through the queue interface (push/pop/iterate) rather
    # than the base class's inlined heapq calls.  Events are deliberately
    # never recycled here: a stale free-list reuse would be exactly the
    # kind of bug SCSan exists to catch, so the sanitized engine keeps
    # every fired event distinct.
    def step(self) -> bool:
        queue = self._queue
        while True:
            event = queue.pop()
            if event is None:
                return False
            event._sim = None
            if event.cancelled:
                self._cancelled_queued -= 1
                continue
            if self.horizon is not None and event.time > self.horizon:
                return False
            self._fire(event)
            return True

    def run(self, until: Optional[int] = None) -> int:
        if until is None:
            while self.step():
                pass
            return self.now
        queue = self._queue
        while True:
            event = queue.pop()
            if event is None:
                break
            if event.cancelled:
                event._sim = None
                self._cancelled_queued -= 1
                continue
            if event.time > until:
                queue.push(event)  # not ours to fire
                break
            event._sim = None
            if self.horizon is not None and event.time > self.horizon:
                continue  # beyond the horizon: drop, as the base run() does
            self._fire(event)
        self.now = max(self.now, until)
        return self.now

    def run_while(self, predicate: Callable[[], bool]) -> int:
        while predicate() and self.step():
            pass
        return self.now


class SanitizedFabric(Fabric):
    """Fabric overlay: a conservation ledger over every worm.

    A worm is registered when it enters the fabric — through
    :meth:`inject`, or at first :meth:`_forward` for replies the
    switch-cache service fabricates mid-network — and must be delivered
    exactly once.  The ledger holds strong references, so ``id(msg)``
    cannot be reused while an entry is outstanding.
    """

    def __init__(self, sanitizer: Sanitizer, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._san = sanitizer
        self._ledger: Dict[int, Message] = {}
        # the base fabric records the per-hop route trace only when a
        # tracer is attached; sanitized runs force it on so violation
        # reports and the end-of-run audit can show where a worm has been
        self._record_route = True

    def in_flight(self) -> List[Message]:
        return list(self._ledger.values())

    def inject(self, msg: Message) -> None:
        if id(msg) in self._ledger:
            self._san.violation(
                "fabric",
                f"{msg.kind.name} for {msg.addr:#x} ({msg.src}->{msg.dst}) "
                f"injected while already in flight",
            )
        self._ledger[id(msg)] = msg
        super().inject(msg)

    def _forward(self, msg: Message, hop: int, header_at: int) -> None:
        # fabricated switch replies enter the network here, not via inject
        self._ledger.setdefault(id(msg), msg)
        super()._forward(msg, hop, header_at)

    def _deliver(self, msg: Message) -> None:
        if self._ledger.pop(id(msg), None) is None:
            self._san.violation(
                "fabric",
                f"{msg.kind.name} for {msg.addr:#x} ({msg.src}->{msg.dst}) "
                f"delivered twice or never injected",
            )
        super()._deliver(msg)
