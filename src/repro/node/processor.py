"""In-order processor front-end with fast-forward execution.

The processor executes an application's operation stream:

``('r', addr)`` / ``('w', addr)`` — shared-memory loads and stores;
``('work', n)`` — n cycles of local computation (models the non-memory
instructions RSIM would execute);
``('barrier', k)`` / ``('lock', k)`` / ``('unlock', k)`` — synchronization.

**Fast-forward on hits.**  Cache hits and local work advance a *local
clock* without touching the event queue; the processor re-enters the
queue only on a miss, a synchronization point, a full write buffer, or
after running ``quantum`` cycles ahead of global time (which bounds the
causality skew of applying remote invalidations at event time — see
DESIGN.md).  This is what makes an execution-driven multiprocessor
simulation tractable in Python.

**Release consistency.**  Stores retire into the write buffer in one
cycle and the processor continues; loads that match a pending buffered
store are forwarded.  Barrier arrival and lock release first wait for
the write buffer to drain (the release fence), then perform a real
read-modify-write coherence transaction on the synchronization variable.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from ..apps.opstream import (
    OP_BARRIER,
    OP_LOCK,
    OP_LOOP,
    OP_R,
    OP_R_RUN,
    OP_UNLOCK,
    OP_W,
    OP_W_RUN,
    OP_WORK,
)
from ..cache.states import LineState
from ..coherence.messages import Transaction
from ..errors import SimulationError
from ..sim.engine import Simulator
from .loopkernel import (
    LOOP_DONE,
    LOOP_MISS,
    LOOP_WB_FULL,
    LOOP_YIELD,
    Options,
    loop_kernel,
)

Op = Tuple

_SHARED = LineState.SHARED
#: _run_compiled's exit status for a synchronization op (next to the
#: loop kernels' LOOP_* statuses)
_SYNC = 4


class Processor:
    """One in-order processor executing an operation stream."""

    def __init__(
        self,
        sim: Simulator,
        node,  # Node (late-bound to avoid an import cycle)
        l1_cycles: int = 1,
        l2_cycles: int = 10,
        store_cycles: int = 1,
        quantum: int = 500,
        trace_values: bool = False,
    ) -> None:
        self.sim = sim
        self.node = node
        self.l1_cycles = l1_cycles
        self.l2_cycles = l2_cycles
        self.store_cycles = store_cycles
        self.quantum = quantum
        self.trace_values = trace_values
        self.time = 0  # local clock (>= sim.now except never behind on entry)
        self.done = False
        self.finish_time: Optional[int] = None
        self._ops: Optional[Iterator[Op]] = None
        self._pending_op: Optional[Op] = None
        # compiled front end (REPRO_OPS=compiled, DESIGN.md §13): the
        # processor constants _run_compiled works with, built once by
        # start_compiled, and the cursor, written back at every exit —
        # (chunk, ip, run op, run addr, run stride, run elements left,
        # loop iterations left (current included), next loop slot, loop
        # kernel) — so a miss, a full write buffer or a quantum yield can
        # suspend a run/loop mid-flight and resume it element-exact
        self._compiled = False
        self._chunks: Optional[Iterator[List[int]]] = None
        self._hoisted: Tuple = ()
        self._cursor: Tuple = ([], 0, 0, 0, 0, 0, 0, 0, None)
        self._stall_started: Optional[int] = None
        self._sync_label = "sync"  # span name for the current sync stall
        self.value_trace: List[Tuple[str, int, int, int]] = []
        # statistics
        self.ops_executed = 0
        self.read_stall_cycles = 0
        self.sync_stall_cycles = 0
        self.wb_stall_cycles = 0

    # ------------------------------------------------------------------
    # control
    # ------------------------------------------------------------------
    def start(self, ops: Iterable[Op]) -> None:
        self._ops = iter(ops)
        self.sim.schedule(0, self._resume)

    def start_compiled(self, chunks: Iterable[List[int]]) -> None:
        """Begin executing an integer-coded chunk stream (DESIGN.md §13)."""
        self._chunks = iter(chunks)
        self._compiled = True
        node = self.node
        wb = node.write_buffer
        l1 = node.hierarchy.l1
        # _run_compiled's processor constants, unpacked there in one
        # statement.  The coded L1's columns are probed inline (the obj
        # model has none: its reads call lookup_data); the list holds the
        # current loop body's (kind, base|cycles, stride) triples.
        columns = ((l1._slot.get, l1._states, l1._data, l1._lrus,
                    l1._block_shift, l1._lru) if hasattr(l1, "_slot")
                   else (None, None, None, None, 0, False))
        self._hoisted = (
            self.kernel_options(), self.quantum, self.l1_cycles,
            self.l2_cycles, self.store_cycles, self.trace_values,
            wb, wb._entries, wb._neg_mask, wb.block_size, wb.push,
            node.kick_drain, l1, l1.lookup_data,
            node.hierarchy.l2.lookup_data, l1.insert) + columns + (
            [], node.stats.add_read_hits, node.node_id)
        self.sim.schedule(0, self._resume)

    def kernel_options(self) -> Options:
        """This processor's template options for the loop kernels."""
        node = self.node
        l1 = node.hierarchy.l1
        block = node.write_buffer.block_size
        if l1.block_size != block:
            raise SimulationError("L1 and write-buffer block sizes differ")
        return (block, self.l1_cycles, self.l2_cycles, self.store_cycles,
                l1._lru, self.trace_values, hasattr(l1, "_slot"))

    def _resume(self) -> None:
        """(Re-)enter the execution loop at global time."""
        self.time = max(self.time, self.sim.now)
        if self._compiled:
            self._run_compiled()
        else:
            self._run()

    def _run(self) -> None:
        # The simulator's hottest loop: every cache hit and local-work op
        # executes here without touching the event queue.  Attribute
        # lookups are hoisted into locals, and the local clock / op
        # counter live in locals, written back before any exit (the
        # helpers called on exit paths read ``self.time``).  ``sim.now``
        # is constant for the whole loop — no events fire inside it.
        node = self.node
        stats = node.stats
        sim = self.sim
        now = sim.now
        quantum = self.quantum
        l1_cycles = self.l1_cycles
        l2_cycles = self.l2_cycles
        store_cycles = self.store_cycles
        trace_values = self.trace_values
        write_buffer = node.write_buffer
        wb_entries = write_buffer._entries
        wb_mask = write_buffer._neg_mask
        wb_push = write_buffer.push
        kick_drain = node.kick_drain
        # the two-level read probe is inlined below (instead of calling
        # CacheHierarchy.read) so the per-load ReadResult allocation and
        # call overhead disappear; the probe sequence — L1 lookup, L2
        # lookup, L1 refill on an L2 hit — is identical.  Hit statistics
        # accumulate in locals (hit_wb/hit_l1/hit_l2) and flush in one
        # bulk call at every loop exit.
        hierarchy = node.hierarchy
        l1 = hierarchy.l1
        l1_lookup_data = l1.lookup_data
        l2_lookup_data = hierarchy.l2.lookup_data
        l1_insert = l1.insert
        # coded-model L1 probe, inlined below (kept in lockstep with
        # CacheArray.lookup_data — same stats, same LRU updates): the
        # slot dict and column lists are stable for the array's
        # lifetime.  The obj escape hatch has no columns and keeps the
        # method call.
        l1_slot = getattr(l1, "_slot", None)
        if l1_slot is not None:
            l1_slot_get = l1_slot.get
            l1_states = l1._states
            l1_data = l1._data
            l1_lrus = l1._lrus
            l1_shift = l1._block_shift
            l1_is_lru = l1._lru
        else:
            l1_slot_get = None
        shared = LineState.SHARED
        node_id = node.node_id
        add_read_hits = stats.add_read_hits
        ops_iter = self._ops
        time = self.time
        ops_executed = self.ops_executed
        hit_wb = hit_l1 = hit_l2 = 0
        # a pending op exists only on re-entry after a full write buffer;
        # resolving it here keeps the per-op fetch a bare next()
        op = self._pending_op
        if op is not None:
            self._pending_op = None
        else:
            op = next(ops_iter, None)
        while True:
            if op is None:
                self.time = time
                self.ops_executed = ops_executed
                add_read_hits(node_id, hit_wb, hit_l1, hit_l2)
                self._begin_finish()
                return
            code = op[0]
            if code == "r":
                addr = op[1]
                # inlined WriteBuffer.contains (pending stores forward)
                block = addr & wb_mask
                if block in wb_entries or block == write_buffer._draining:
                    time += l1_cycles
                    ops_executed += 1
                    hit_wb += 1
                else:
                    if l1_slot_get is not None:
                        i = l1_slot_get(addr >> l1_shift)
                        if i is None or not l1_states[i]:
                            l1.misses += 1
                            data = None
                        else:
                            if l1_is_lru:
                                l1._tick = tick = l1._tick + 1
                                l1_lrus[i] = tick
                            l1.hits += 1
                            data = l1_data[i]
                    else:
                        data = l1_lookup_data(addr)
                    if data is not None:
                        time += l1_cycles
                        ops_executed += 1
                        hit_l1 += 1
                        if trace_values:
                            self.value_trace.append(("r", addr, data, time))
                    else:
                        data = l2_lookup_data(addr)
                        if data is None:
                            self.time = time
                            self.ops_executed = ops_executed
                            add_read_hits(node_id, hit_wb, hit_l1, hit_l2)
                            self._start_read_miss(addr)
                            return
                        # L1 is no-write-allocate/write-through: refill clean
                        l1_insert(addr, shared, data)
                        time += l2_cycles
                        ops_executed += 1
                        hit_l2 += 1
                        if trace_values:
                            self.value_trace.append(("r", addr, data, time))
            elif code == "w":
                if wb_push(op[1]):
                    time += store_cycles
                    ops_executed += 1
                    # kick_drain()'s first check, hoisted: while a drain
                    # is in flight the call would return immediately
                    if write_buffer._draining is None:
                        kick_drain()
                else:
                    # buffer full: wait for a drain to complete, then retry
                    self.time = time
                    self.ops_executed = ops_executed
                    add_read_hits(node_id, hit_wb, hit_l1, hit_l2)
                    self._pending_op = op
                    self._stall_started = time
                    node.wait_wb_change(self._retry_after_wb)
                    return
            elif code == "work":
                time += op[1]
                ops_executed += 1
            else:
                self.time = time
                self.ops_executed = ops_executed
                add_read_hits(node_id, hit_wb, hit_l1, hit_l2)
                if code == "barrier":
                    self._start_sync(op, is_barrier=True)
                    return
                if code == "lock":
                    self._start_sync(op, is_barrier=False)
                    return
                if code == "unlock":
                    self._start_unlock(op)
                    return
                raise SimulationError(f"unknown op {op!r}")
            # the retired op advanced the local clock; yield once it has
            # run a quantum ahead of global time.  Every entry into this
            # loop satisfies time - now < quantum (each exit path above
            # resumes at or after the saved local time), so checking
            # after each op matches checking before the next one.
            if time - now >= quantum:
                self.time = time
                self.ops_executed = ops_executed
                add_read_hits(node_id, hit_wb, hit_l1, hit_l2)
                sim.at(time, self._resume)
                return
            op = next(ops_iter, None)

    def _run_compiled(self) -> None:
        # Compiled twin of _run, kept in lockstep op for op: it consumes
        # integer-coded chunks (apps/opstream.py) instead of a generator
        # and expands run/loop superops arithmetically.  The hoists, the
        # per-op costs, the quantum arithmetic and every exit path match
        # the generator loop exactly — the differential suites pin the
        # two modes bit-identical — but a hit run retires a whole cache
        # block per probe instead of re-entering the dispatch per
        # element, and a loop runs in its shape's generated kernel.
        # Processor constants come from start_compiled's tuple, superop
        # progress from the cursor; both unpack in one statement each, and
        # every exit leaves the loop with a status and writes back below.
        (options, quantum, l1_cycles, l2_cycles, store_cycles, trace_values,
         write_buffer, wb_entries, wb_mask, wb_block, wb_push, kick_drain,
         l1, l1_lookup_data, l2_lookup_data, l1_insert, l1_slot_get,
         l1_states, l1_data, l1_lrus, l1_shift, l1_is_lru, body,
         add_read_hits, node_id) = self._hoisted
        (code, ip, run_op, run_addr, run_stride, run_left, loop_iters,
         loop_slot, kernel) = self._cursor
        now = self.sim.now
        stop = now + quantum
        end = len(code)
        time = self.time
        ops_executed = self.ops_executed
        hit_wb = hit_l1 = hit_l2 = 0
        status = LOOP_DONE  # set, with addr for a miss, to leave the loop
        while True:
            # ---- pending stride run -----------------------------------
            while run_left:
                if run_op == OP_WORK:
                    # repeated equal-cost work ops: charge as many as
                    # fit before the quantum boundary in one step
                    c = run_addr  # cycles per op
                    k = run_left
                    if c:
                        m = (quantum - (time - now) + c - 1) // c
                        if k > m:
                            k = m
                    time += k * c
                    ops_executed += k
                    run_left -= k
                    if time - now >= quantum:
                        status = LOOP_YIELD
                        break
                    continue
                addr = run_addr
                stride = run_stride
                if run_op == OP_W_RUN:
                    # stores retire through the write buffer one per
                    # cycle; push/merge/drain-kick exactly as _run
                    if not wb_push(addr):
                        status = LOOP_WB_FULL
                        break
                    time += store_cycles
                    ops_executed += 1
                    run_left -= 1
                    run_addr = addr + stride
                    if write_buffer._draining is None:
                        kick_drain()
                    # the rest of this block's stores are pure merges
                    # once the entry is settled: after the first push
                    # the drain engine is busy, so no kick can pop
                    # the entry mid-block and every push coalesces.
                    # Retire them in one step, quantum-capped like
                    # the read-run bulk.
                    if run_left and stride > 0:
                        block = addr & wb_mask
                        addr = run_addr
                        if (block in wb_entries
                                and block != write_buffer._draining
                                and addr - block < wb_block):
                            k = (block + wb_block - addr
                                 + stride - 1) // stride
                            if k > run_left:
                                k = run_left
                            if store_cycles:
                                m = (quantum - (time - now)
                                     + store_cycles - 1) // store_cycles
                                if k > m:
                                    k = m
                            if k > 0:
                                wb_entries[block] += k
                                write_buffer.stores_retired += k
                                write_buffer.stores_merged += k
                                time += k * store_cycles
                                ops_executed += k
                                run_left -= k
                                run_addr = addr + stride * k
                    if time - now >= quantum:
                        status = LOOP_YIELD
                        break
                    continue
                # read run: bulk-retire the hits of one cache block per
                # probe.  k = elements from addr that stay in the block
                # (the L1 and the write buffer share the block size:
                # kernel_options), capped at the run length and at the
                # quantum boundary (retiring the op that crosses it
                # yields, exactly as the generator path checks after
                # every op).
                block = addr & wb_mask
                if stride > 0:
                    k = (block + wb_block - addr + stride - 1) // stride
                    if k > run_left:
                        k = run_left
                else:
                    k = 1
                if l1_cycles:
                    m = (quantum - (time - now) + l1_cycles - 1) // l1_cycles
                    if k > m:
                        k = m
                if block in wb_entries or block == write_buffer._draining:
                    # forwarded from pending stores (no value trace, as
                    # in _run); the whole block span forwards alike
                    time += k * l1_cycles
                    ops_executed += k
                    hit_wb += k
                    run_left -= k
                    run_addr = addr + stride * k
                else:
                    if l1_slot_get is None:
                        # obj-model escape hatch: one element per probe
                        k = 1
                        data = l1_lookup_data(addr)
                    else:
                        i = l1_slot_get(addr >> l1_shift)
                        if i is not None and l1_states[i]:
                            if l1_is_lru:
                                # one bump per element, final tick wins
                                l1._tick = tick = l1._tick + k
                                l1_lrus[i] = tick
                            l1.hits += k
                            data = l1_data[i]
                        else:
                            l1.misses += 1
                            data = None
                    if data is not None:
                        hit_l1 += k
                        ops_executed += k
                        run_left -= k
                        run_addr = addr + stride * k
                        if trace_values:
                            trace = self.value_trace
                            for _ in range(k):
                                time += l1_cycles
                                trace.append(("r", addr, data, time))
                                addr += stride
                        else:
                            time += k * l1_cycles
                    else:
                        run_left -= 1
                        run_addr = addr + stride
                        data = l2_lookup_data(addr)
                        if data is None:
                            status = LOOP_MISS
                            break
                        # L1 refill; the rest of the block hits L1 next
                        l1_insert(addr, _SHARED, data)
                        time += l2_cycles
                        ops_executed += 1
                        hit_l2 += 1
                        if trace_values:
                            self.value_trace.append(("r", addr, data, time))
                if time - now >= quantum:
                    status = LOOP_YIELD
                    break
            else:
                # ---- pending fixed-slot loop --------------------------
                if loop_iters:
                    # the shape's generated kernel (node/loopkernel.py)
                    # runs elements until the loop ends or one exits
                    (status, time, loop_iters, loop_slot, n, nwb, nl1, nl2,
                     addr) = kernel(
                        body, loop_iters, loop_slot, time, stop, wb_entries,
                        write_buffer, wb_push, kick_drain, l1, l1_slot_get,
                        l1_states, l1_data, l1_lrus, l1_lookup_data,
                        l2_lookup_data, l1_insert, self.value_trace)
                    ops_executed += n
                    hit_wb += nwb
                    hit_l1 += nl1
                    hit_l2 += nl2
            if status:
                break
            # ---- decode the next instruction --------------------------
            if ip >= end:
                nxt = next(self._chunks, None)
                if nxt is None:
                    break  # the stream ended: status is LOOP_DONE
                code = nxt
                end = len(code)
                ip = 0
                continue
            opcode = code[ip]
            if opcode == OP_R:
                run_op = OP_R_RUN
                run_addr = code[ip + 1]
                run_stride = 0
                run_left = 1
                ip += 2
            elif opcode == OP_R_RUN:
                run_op = OP_R_RUN
                run_addr = code[ip + 1]
                run_stride = code[ip + 2]
                run_left = code[ip + 3]
                ip += 4
            elif opcode == OP_W:
                run_op = OP_W_RUN
                run_addr = code[ip + 1]
                run_stride = 0
                run_left = 1
                ip += 2
            elif opcode == OP_W_RUN:
                run_op = OP_W_RUN
                run_addr = code[ip + 1]
                run_stride = code[ip + 2]
                run_left = code[ip + 3]
                ip += 4
            elif opcode == OP_WORK:
                run_op = OP_WORK
                run_addr = code[ip + 1]  # cycles per op
                run_stride = 0
                run_left = code[ip + 2]
                ip += 3
            elif opcode == OP_LOOP:
                n3 = code[ip + 2] * 3
                body[:] = code[ip + 3:ip + 3 + n3]
                loop_iters = code[ip + 1]
                loop_slot = 0
                kernel = loop_kernel(body, options)
                ip += 3 + n3
            else:
                # synchronization (or a bad opcode): a cold exit
                status = _SYNC
                ip += 2
                break
        # ---- every exit: write the loop state back, then act ---------
        self.time = time
        self.ops_executed = ops_executed
        self._cursor = (code, ip, run_op, run_addr, run_stride, run_left,
                        loop_iters, loop_slot, kernel)
        add_read_hits(node_id, hit_wb, hit_l1, hit_l2)
        if status == LOOP_WB_FULL:
            self._stall_started = time
            self.node.wait_wb_change(self._retry_after_wb)
        elif status == LOOP_YIELD:
            self.sim.at(time, self._resume)
        elif status == LOOP_MISS:
            self._start_read_miss(addr)
        elif status == LOOP_DONE:
            self._begin_finish()
        elif opcode == OP_BARRIER:
            self._start_sync(("barrier", code[ip - 1]), is_barrier=True)
        elif opcode == OP_LOCK:
            self._start_sync(("lock", code[ip - 1]), is_barrier=False)
        elif opcode == OP_UNLOCK:
            self._start_unlock(("unlock", code[ip - 1]))
        else:
            raise SimulationError(f"bad opcode {opcode} at {ip - 2}")

    # ------------------------------------------------------------------
    # read misses
    # ------------------------------------------------------------------
    def _start_read_miss(self, addr: int) -> None:
        self._stall_started = self.time
        issue_at = self.time + self.l2_cycles  # miss detection through L1+L2
        if issue_at > self.sim.now:
            self.sim.call_at(issue_at, self._issue_read, addr)
        else:
            self._issue_read(addr)

    def _issue_read(self, addr: int) -> None:
        self.node.l2ctrl.issue_read(addr, self._read_done)

    def _read_done(self, txn: Transaction) -> None:
        stall = self.sim.now - self._stall_started
        self.read_stall_cycles += stall
        self._stall_started = None
        self.ops_executed += 1
        self.node.stats.record_read_txn(self.node.node_id, txn, stall)
        if self.trace_values:
            self.value_trace.append(("r", txn.addr, txn.data, self.sim.now))
        self._resume()

    def _retry_after_wb(self) -> None:
        if self._stall_started is not None:
            stall = max(0, self.sim.now - self._stall_started)
            self.wb_stall_cycles += stall
            tracer = self.sim.tracer
            if tracer is not None and stall > 0:
                tracer.complete(
                    f"proc{self.node.node_id}", "wb_full",
                    self.sim.now - stall, stall,
                )
            self._stall_started = None
        self._resume()

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------
    def _start_sync(self, op: Op, is_barrier: bool) -> None:
        """Barrier arrival / lock acquire: fence, RMW, then wait."""
        self._stall_started = self.time
        self._sync_label = "barrier" if is_barrier else "lock"
        self._fence_then(lambda: self._sync_rmw(op, is_barrier))

    def _fence_then(self, action: Callable[[], None]) -> None:
        """Wait (at local time) for the write buffer to drain, then act."""
        node = self.node

        def check() -> None:
            if node.write_buffer.is_empty():
                action()
            else:
                node.wait_wb_change(check)

        if self.time > self.sim.now:
            self.sim.at(self.time, check)
        else:
            check()

    def _sync_rmw(self, op: Op, is_barrier: bool) -> None:
        kind, sync_id = op[0], op[1]
        addr = self.node.sync_addr(kind if kind != "lock" else "lock", sync_id)
        self._rmw(addr, lambda: self._sync_arrived(op, is_barrier))

    def _rmw(self, addr: int, then: Callable[[], None]) -> None:
        """Read-modify-write the synchronization variable coherently."""
        node = self.node
        hierarchy = node.hierarchy
        probe = hierarchy.write_probe(addr)
        if probe.action == "hit":
            hierarchy.perform_write(addr, hierarchy.l2.probe_data(addr) + 1)
            self.sim.schedule(2, then)
        else:
            def owned(txn: Transaction) -> None:
                hierarchy.perform_write(addr, hierarchy.l2.probe_data(addr) + 1)
                then()

            node.l2ctrl.issue_write(addr, owned)

    def _sync_arrived(self, op: Op, is_barrier: bool) -> None:
        node = self.node
        if is_barrier:
            node.barriers.arrive(op[1], node.node_id, self._sync_done)
        else:
            node.locks.acquire(op[1], node.node_id, self._sync_done)

    def _sync_done(self) -> None:
        if self._stall_started is not None:
            stall = max(0, self.sim.now - self._stall_started)
            self.sync_stall_cycles += stall
            tracer = self.sim.tracer
            if tracer is not None and stall > 0:
                tracer.complete(
                    f"proc{self.node.node_id}", self._sync_label,
                    self.sim.now - stall, stall,
                )
            self._stall_started = None
        self._resume()

    def _start_unlock(self, op: Op) -> None:
        self._stall_started = self.time
        self._sync_label = "unlock"

        def release() -> None:
            addr = self.node.sync_addr("lock", op[1])
            self._rmw(addr, lambda: self._finish_unlock(op[1]))

        self._fence_then(release)

    def _finish_unlock(self, lock_id: int) -> None:
        self.node.locks.release(lock_id, self.node.node_id)
        self._sync_done()

    # ------------------------------------------------------------------
    # termination
    # ------------------------------------------------------------------
    def _begin_finish(self) -> None:
        def finished() -> None:
            if not self.done:
                self.done = True
                self.finish_time = max(self.time, self.sim.now)
                self.node.on_processor_done()

        self._fence_then(finished)
