"""The wormhole BMIN fabric: injection, per-hop forwarding, delivery.

Timing model (message-granularity wormhole, Section 5 of DESIGN.md):

* injection — the worm queues for its node's injection link (NI send
  module); the header enters the stage-0 switch one flit time after the
  grant.
* per hop — the header waits ``switch_delay`` cycles (arbitration +
  crossbar traversal), then queues FIFO for the output link; the link is
  occupied ``flits * cycles_per_flit`` cycles (serialization); the header
  reaches the next switch one flit time after the grant.
* delivery — the worm is handed to the destination NI when its tail has
  fully crossed the ejection link.

Switch-cache integration: as a worm's header arrives at a switch the
fabric invokes the embedded CAESAR engine —

* ``INV`` worms snoop (purge matching blocks),
* ``DATA_S`` worms deposit their block,
* ``READ`` worms may be intercepted: the engine supplies the data, the
  fabric fabricates a ``DATA_S`` reply that retraces the request's path,
  and the request itself shrinks to a 1-flit ``DIR_UPDATE`` that continues
  to the home node so the full-map directory stays exact.

Each worm costs one scheduled event per hop plus one for delivery;
DESIGN.md §12 records why hops are not fused into fewer events.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..errors import NetworkError
from ..sim.engine import Simulator
from .link import Link
from .message import Message, MessagePool, MsgKind
from .switch import Switch
from .topology import BminTopology, SwitchId

if TYPE_CHECKING:
    from ..trace.tracer import Tracer

DeliverFn = Callable[[Message], None]

#: one resolved route hop: (switch, out-link toward the next hop / the node)
Hop = Tuple[Switch, Link]

#: request kinds that open a flow arrow toward their eventual reply
_FLOW_REQUESTS = frozenset(
    {MsgKind.READ, MsgKind.READX, MsgKind.UPGRADE}
)
#: reply kinds that close a transaction's flow arrow
_FLOW_REPLIES = frozenset(
    {MsgKind.DATA_S, MsgKind.DATA_X, MsgKind.DATA_E, MsgKind.UPGR_ACK}
)

#: hoisted members for the per-hop engine dispatch in ``_arrive``
_INV = MsgKind.INV            # snoops_switch_caches
_DATA_S = MsgKind.DATA_S      # switch_cacheable
_READ = MsgKind.READ          # interceptable

class FabricStats:
    """Aggregate network statistics."""

    __slots__ = (
        "msgs_injected", "msgs_delivered", "flits_injected", "switch_hits",
        "switch_replies", "dir_updates", "hits_by_stage",
    )

    def __init__(self) -> None:
        self.msgs_injected = 0
        self.msgs_delivered = 0
        self.flits_injected = 0
        self.switch_hits = 0
        self.switch_replies = 0
        self.dir_updates = 0
        # defaultdict: the hot recording path is a bare increment
        self.hits_by_stage: Dict[int, int] = defaultdict(int)

    def record_switch_hit(self, stage: int) -> None:
        self.switch_hits += 1
        self.switch_replies += 1
        self.dir_updates += 1
        self.hits_by_stage[stage] += 1


class Fabric:
    """A BMIN of :class:`Switch` elements plus node attachment points."""

    __slots__ = (
        "sim", "topo", "switch_delay", "cycles_per_flit", "stats",
        "switches", "_inject_links", "_handlers", "_tracer", "_route_objs",
        "_route_lists", "_reply_routes", "pool", "_record_route",
    )

    def __init__(
        self,
        sim: Simulator,
        topology: BminTopology,
        switch_delay: int = 4,
        cycles_per_flit: int = 4,
        pool: Optional[MessagePool] = None,
    ) -> None:
        self.sim = sim
        # captured once: Machine installs the tracer on the simulator
        # before any component is built, and never swaps it mid-run
        self._tracer = sim.tracer
        # the per-hop route trace costs one list append per hop on the
        # hottest path; it only feeds the tracer's hop attribution and
        # test introspection, so it is recorded only when tracing (or,
        # via SanitizedFabric, sanitizing) is enabled.  The switch-served
        # reply retrace derives the traversed prefix from the resolved
        # route + hop index instead.
        self._record_route = sim.tracer is not None
        self.topo = topology
        self.switch_delay = switch_delay
        self.cycles_per_flit = cycles_per_flit
        # the machine shares one pool across fabric + controllers so the
        # whole machine draws one message-id stream; standalone fabrics
        # (unit tests, examples) get a private pool
        self.pool = pool if pool is not None else MessagePool()
        self.stats = FabricStats()
        self.switches: Dict[SwitchId, Switch] = {}
        self._inject_links: Dict[int, Link] = {}
        # indexed by node id: a flat list beats a dict probe on the
        # delivery path (one per worm); None = no NI attached yet
        self._handlers: List[Optional[DeliverFn]] = (
            [None] * topology.num_nodes
        )
        self._route_objs: Dict[Tuple[int, int], Tuple[Hop, ...]] = {}
        self._route_lists: Dict[Tuple[int, int], List[SwitchId]] = {}
        # switch-served replies retrace the request's traversed prefix;
        # routes are deterministic per (src, dst), so (src, dst, hop)
        # names the prefix exactly and the reversed route plus its
        # resolution are cached like the forward tables above
        self._reply_routes: Dict[
            Tuple[int, int, int],
            Tuple[List[SwitchId], Tuple[Hop, ...]],
        ] = {}
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        for sid in self.topo.switches():
            self.switches[sid] = Switch(
                self.sim, sid, self.switch_delay, self.cycles_per_flit
            )
        # inter-switch links (both directions)
        for sid, switch in self.switches.items():
            for up in self.topo.up_neighbors(sid):
                switch.add_output(up)
                self.switches[up].add_output(sid)
        # node attachment: ejection link lives on the stage-0 switch,
        # injection link is owned by the fabric per node
        for node in range(self.topo.num_nodes):
            sw = self.switches[self.topo.node_switch(node)]
            sw.add_output(node)
            self._inject_links[node] = Link(
                self.sim, f"ni{node}->sw", cycles_per_flit=self.cycles_per_flit
            )
        # resolve every (src, dst) route once into (switch, out-link) hop
        # tuples, so the per-worm hot path never consults the topology or
        # the switches' output dicts again
        for src in range(self.topo.num_nodes):
            for dst in range(self.topo.num_nodes):
                if src != dst:
                    route = self.topo.path(src, dst)
                    self._route_lists[(src, dst)] = route
                    self._route_objs[(src, dst)] = self._resolve(route, dst)

    def _resolve(
        self, route: List[SwitchId], dst: int
    ) -> Tuple[Hop, ...]:
        """Turn a switch-id route into ``((switch, out_link), ...)`` hops."""
        switches = self.switches
        last = len(route) - 1
        return tuple(
            (switches[sid],
             switches[sid].output_to(dst if i == last else route[i + 1]))
            for i, sid in enumerate(route)
        )

    def attach_node(self, node: int, handler: DeliverFn) -> None:
        """Register the delivery callback for a node's NI receive module."""
        self._handlers[node] = handler

    def install_cache_engines(self, factory: Callable[[SwitchId], object]) -> None:
        """Embed a cache engine in every switch (``factory`` may return None)."""
        for sid, switch in self.switches.items():
            switch.cache_engine = factory(sid)

    # ------------------------------------------------------------------
    # injection
    # ------------------------------------------------------------------
    def inject(self, msg: Message) -> None:
        """Send ``msg`` from its source node's NI into the network."""
        if msg.src == msg.dst:
            raise NetworkError("local messages must not enter the fabric")
        sim = self.sim
        if msg.created_at < 0:
            msg.created_at = sim.now
        # the cached route list is shared across worms (read-only by
        # convention); resolving per-inject was a measurable allocation
        msg.route = self._route_lists[(msg.src, msg.dst)]
        msg.hops = self._route_objs[(msg.src, msg.dst)]
        link = self._inject_links[msg.src]
        grant, _tail = link.reserve(msg.flits, earliest=sim.now)
        msg.injected_at = grant
        self.stats.msgs_injected += 1
        self.stats.flits_injected += msg.flits
        header_at_switch = grant + self.cycles_per_flit
        sim.call_at(header_at_switch, self._arrive, msg, 0)

    # ------------------------------------------------------------------
    # per-hop processing
    # ------------------------------------------------------------------
    def _arrive(self, msg: Message, hop: int) -> None:
        # hot path: one call per worm per hop; route pre-resolved.  Every
        # switch and link shares the fabric-wide switch_delay and
        # cycles_per_flit (see _build), so those load from self — one
        # bound attribute each — instead of per-switch/per-link fields.
        sim = self.sim
        now = sim.now
        hops = msg.hops
        switch, link = hops[hop]
        if self._record_route:
            msg.trace.append(switch.id)
        kind = msg.kind
        tracer = self._tracer
        if tracer is not None:
            tracer.instant(
                switch.trace_track, "hop", now,
                {"msg": msg.id, "kind": kind.value, "addr": msg.addr},
            )
        engine = switch.cache_engine
        if engine is not None:
            # identity checks against the hoisted members, not the
            # MsgKind convenience properties: once per worm per switch
            if kind is _INV:
                engine.snoop(msg, now)
            elif kind is _DATA_S:
                engine.try_deposit(msg, now)
            elif kind is _READ:
                served = engine.try_intercept(msg, now)
                if served is not None:
                    data, ready_at = served
                    self._serve_from_switch(msg, switch, hop, data, ready_at)
                    return
        # _forward inlined for the header-just-arrived case (the grant
        # arithmetic must stay in lockstep with Link.reserve): this body
        # runs once per worm per hop and the call levels measurably show
        # up.  Worms that enter the fabric here were all registered at
        # inject, so SanitizedFabric's _forward ledger hook — needed only
        # for fabricated switch replies — is not required on this path.
        cycles_per_flit = self.cycles_per_flit
        flits = msg.flits
        duration = flits * cycles_per_flit
        timeline = link.timeline
        request_at = now + self.switch_delay
        grant = timeline._free_at
        if grant < request_at:
            grant = request_at
        timeline._free_at = grant + duration
        timeline.busy_cycles += duration
        timeline.reservations += 1
        timeline.queued_cycles += grant - request_at
        link.msgs += 1
        link.flits += flits
        switch.msgs_routed += 1
        switch.flits_routed += flits
        hop += 1
        if hop == len(hops):
            sim.call_at(grant + duration, self._deliver, msg)
        else:
            sim.call_at(grant + cycles_per_flit, self._arrive, msg, hop)

    def _forward(self, msg: Message, hop: int, header_at: int) -> None:
        """Grant the hop's output link and move the worm one stage on.

        Only reached for worms entering the network mid-fabric (the
        switch-served DIR_UPDATE continuation); the per-hop fast path in
        :meth:`_arrive` inlines this same sequence.  SanitizedFabric
        wraps this method to register fabricated worms.
        """
        hops = msg.hops
        switch, link = hops[hop]
        flits = msg.flits
        grant, tail_done = link.reserve(flits, header_at + switch.switch_delay)
        switch.msgs_routed += 1
        switch.flits_routed += flits
        next_hop = hop + 1
        call_at = self.sim.call_at
        if next_hop == len(hops):
            call_at(tail_done, self._deliver, msg)
        else:
            call_at(
                grant + switch.cycles_per_flit, self._arrive, msg, next_hop
            )

    def _deliver(self, msg: Message) -> None:
        msg.delivered_at = self.sim.now
        self.stats.msgs_delivered += 1
        tracer = self._tracer
        if tracer is not None:
            self._trace_delivery(msg, tracer)
        handler = self._handlers[msg.dst]
        if handler is None:
            raise NetworkError(f"no NI handler attached for node {msg.dst}")
        handler(msg)
        # worm recycling: after the handler returns, a message nothing
        # retained (acks, invalidations, writebacks) goes back to the
        # pool; the refcount guard in release vetoes anything still held
        # by a transaction, a home slot, or the sanitizer
        self.pool.release(msg)

    def _trace_delivery(self, msg: Message, tracer: Tracer) -> None:
        """Record the delivered worm's leg span and its flow linkage."""
        kind = msg.kind
        track = f"ni{msg.src}"
        args = {
            "msg": msg.id, "addr": msg.addr, "src": msg.src, "dst": msg.dst,
            "flits": msg.flits,
        }
        txn = msg.transaction
        if txn is not None:
            args["txn"] = txn.id
        start = msg.created_at if msg.created_at >= 0 else msg.injected_at
        tracer.async_span(
            track, kind.value, "msg", msg.id, start, msg.delivered_at, args
        )
        if txn is not None:
            # flow arrows bind the request leg to its reply leg, across
            # whatever track the reply ends up on (home or a switch)
            if kind in _FLOW_REQUESTS:
                tracer.flow_start(track, "txn", txn.id, start)
            elif kind in _FLOW_REPLIES:
                tracer.flow_end(track, "txn", txn.id, msg.delivered_at)

    # ------------------------------------------------------------------
    # switch-cache service
    # ------------------------------------------------------------------
    def _serve_from_switch(
        self,
        msg: Message,
        switch: Switch,
        hop: int,
        data: int,
        ready_at: int,
    ) -> None:
        """A READ hit in ``switch``'s cache: reply + directory update."""
        now = self.sim.now
        stage = switch.stage
        self.stats.record_switch_hit(stage)
        tracer = self._tracer
        if tracer is not None:
            tracer.instant(
                switch.trace_track, "sc_hit", now,
                {"addr": msg.addr, "requester": msg.src, "stage": stage},
            )
            # an intercepted request never reaches _deliver, so its leg
            # span and flow arrow are recorded here: the leg truthfully
            # ends at the serving switch, not at the home
            txn = msg.transaction
            track = f"ni{msg.src}"
            start = msg.created_at if msg.created_at >= 0 else msg.injected_at
            args = {
                "msg": msg.id, "addr": msg.addr, "src": msg.src,
                "dst": msg.dst, "flits": msg.flits, "served_by": "switch",
            }
            if txn is not None:
                args["txn"] = txn.id
            tracer.async_span(
                track, msg.kind.value, "msg", msg.id, start, now, args,
            )
            if txn is not None and msg.kind in _FLOW_REQUESTS:
                tracer.flow_start(track, "txn", txn.id, start)
        reply = self.pool.make(
            MsgKind.DATA_S,
            src=msg.dst,  # protocol-wise the reply stands in for the home's
            dst=msg.src,
            addr=msg.addr,
            flits=1 + _data_flits(msg),
            data=data,
            payload={
                "served_by": "switch",
                "served_stage": stage,
                "served_switch": switch.id,
                "proc": msg.payload.get("proc"),
            },
            transaction=msg.transaction,
        )
        reply.created_at = now
        reply.injected_at = ready_at
        # retrace the request's traversed prefix back to the requester:
        # routes are deterministic per (src, dst), so (src, dst, hop)
        # names the prefix exactly — derived from the resolved route, not
        # from the per-hop msg.trace, which is only recorded when tracing
        # (cached: the route list is shared across worms, read-only by
        # convention, exactly like the forward tables)
        key = (msg.src, msg.dst, hop)
        cached = self._reply_routes.get(key)
        if cached is None:
            route = msg.route[hop::-1]
            cached = (route, self._resolve(route, msg.src))
            self._reply_routes[key] = cached
        reply.route, reply.hops = cached
        if self._record_route:
            reply.trace.append(switch.id)
        self._forward(reply, 0, header_at=ready_at)
        # the request continues to the home as a 1-flit directory update;
        # it carries the version the switch served so the home can detect
        # staleness even after an intervening writer has written back
        msg.kind = MsgKind.DIR_UPDATE
        msg.flits = 1
        msg.payload["requester"] = msg.src
        msg.payload["sc_version"] = data
        self._forward(msg, hop, header_at=now)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def switch_cache_blocks(self) -> List[Tuple[SwitchId, int, int]]:
        """All (switch, block_addr, version) resident in switch caches."""
        found = []
        for sid, switch in self.switches.items():
            engine = switch.cache_engine
            if engine is None:
                continue
            for addr, line in engine.array.resident_blocks():
                found.append((sid, addr, line.data))
        return found

    def utilization_by_stage(self) -> Dict[int, float]:
        """Mean output-link utilization per MIN stage (0..stages-1)."""
        sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for sid, switch in self.switches.items():
            stage = sid[0]
            for link in switch.outputs().values():
                sums[stage] = sums.get(stage, 0.0) + link.utilization()
                counts[stage] = counts.get(stage, 0) + 1
        return {
            stage: sums[stage] / counts[stage]
            for stage in sorted(sums)
        }

    def hottest_links(self, top: int = 5):
        """The ``top`` busiest links as (switch, toward, msgs, mean queue)."""
        rows = []
        for sid, switch in self.switches.items():
            for neighbor, link in switch.outputs().items():
                if link.msgs:
                    rows.append(
                        (sid, neighbor, link.msgs, link.mean_queueing_delay())
                    )
        rows.sort(key=lambda r: (-r[3], -r[2]))
        return rows[:top]

    def injection_queue_delay(self) -> float:
        """Mean NI injection queueing delay across all nodes (cycles)."""
        delays = [
            link.mean_queueing_delay() for link in self._inject_links.values()
        ]
        return sum(delays) / len(delays) if delays else 0.0


def _data_flits(msg: Message) -> int:
    """Payload flits for the block size implied by the request's transaction."""
    txn = msg.transaction
    block_size = getattr(txn, "block_size", 64) if txn is not None else 64
    return block_size // 8
