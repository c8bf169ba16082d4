"""Unit tests for links and the crossbar switch timing model."""

import random

import pytest

from repro.errors import NetworkError
from repro.network.link import Link
from repro.network.switch import Switch
from repro.sim.engine import Simulator


class TestLink:
    def test_serialization_time(self):
        sim = Simulator()
        link = Link(sim, "l", cycles_per_flit=4)
        grant, tail = link.reserve(flits=9, earliest=0)
        assert grant == 0
        assert tail == 36

    def test_fifo_grants(self):
        sim = Simulator()
        link = Link(sim, "l", cycles_per_flit=4)
        g1, t1 = link.reserve(2, earliest=0)
        g2, t2 = link.reserve(2, earliest=0)
        assert (g1, t1) == (0, 8)
        assert (g2, t2) == (8, 16)

    def test_earliest_respected(self):
        sim = Simulator()
        link = Link(sim, "l")
        grant, _tail = link.reserve(1, earliest=100)
        assert grant == 100

    def test_stats(self):
        sim = Simulator()
        link = Link(sim, "l")
        link.reserve(3, earliest=0)
        link.reserve(2, earliest=0)
        assert link.msgs == 2
        assert link.flits == 5


class TestSwitch:
    def test_add_and_get_output(self):
        sim = Simulator()
        sw = Switch(sim, (1, 0))
        link = sw.add_output((2, 0))
        assert sw.output_to((2, 0)) is link
        assert sw.has_output((2, 0))

    def test_duplicate_output_rejected(self):
        sim = Simulator()
        sw = Switch(sim, (1, 0))
        sw.add_output((2, 0))
        with pytest.raises(NetworkError):
            sw.add_output((2, 0))

    def test_missing_output_raises(self):
        sim = Simulator()
        sw = Switch(sim, (1, 0))
        with pytest.raises(NetworkError):
            sw.output_to((9, 9))

    def test_forward_timing_uncontended(self):
        sim = Simulator()
        sw = Switch(sim, (1, 0), switch_delay=4, cycles_per_flit=4)
        sw.add_output((2, 0))
        grant, header_next, tail_done = sw.forward(9, (2, 0), header_at=100)
        # arbitration+crossbar = 4 cycles, then the header takes one flit
        # time to cross; the tail clears after 9 flit times
        assert grant == 104
        assert header_next == 108
        assert tail_done == 104 + 36

    def test_forward_contention_serializes(self):
        sim = Simulator()
        sw = Switch(sim, (1, 0))
        sw.add_output((2, 0))
        g1, _h1, t1 = sw.forward(9, (2, 0), header_at=0)
        g2, _h2, _t2 = sw.forward(9, (2, 0), header_at=0)
        assert g2 == t1  # second worm waits for the first to clear the link

    def test_forward_different_outputs_independent(self):
        sim = Simulator()
        sw = Switch(sim, (1, 0))
        sw.add_output((2, 0))
        sw.add_output((2, 1))
        g1, _h, _t = sw.forward(9, (2, 0), header_at=0)
        g2, _h, _t = sw.forward(9, (2, 1), header_at=0)
        assert g1 == g2 == 4

    def test_stats_accumulate(self):
        sim = Simulator()
        sw = Switch(sim, (1, 0))
        sw.add_output((2, 0))
        sw.forward(9, (2, 0), header_at=0)
        sw.forward(1, (2, 0), header_at=0)
        assert sw.msgs_routed == 2
        assert sw.flits_routed == 10

    def test_node_port_output(self):
        sim = Simulator()
        sw = Switch(sim, (0, 0))
        sw.add_output(1)  # ejection port to node 1
        grant, _h, tail = sw.forward(9, 1, header_at=10)
        assert grant == 14
        assert tail == 14 + 36


class TestGrantLockstep:
    """Grant arithmetic lives in hand-inlined copies besides Link.reserve.

    ``Fabric._arrive`` inlines the reservation for the per-hop path.
    These property tests drive fuzzed (flits, earliest, free_at) streams
    through a real fabric route and through reference ``Link.reserve``
    calls with the same tuples, asserting identical (grant, tail_done)
    timing and identical timeline counters — so the copies cannot drift
    apart silently.
    """

    SWITCH_DELAY = 4
    CYCLES_PER_FLIT = 4

    def _reference(self, worms, eject_busy_until=0):
        """Chained Link.reserve over the same (flits, inject_at) stream.

        ``free_at`` on the ejection link is fuzzed two ways: an initial
        planted occupancy (``eject_busy_until``) and, for every later
        worm, the accumulated occupancy left by its predecessors — the
        same contended values the fabric's inlined copies see.
        """
        sim = Simulator()
        inj = Link(sim, "ref-inj", cycles_per_flit=self.CYCLES_PER_FLIT)
        ej = Link(sim, "ref-ej", cycles_per_flit=self.CYCLES_PER_FLIT)
        ej.timeline._free_at = eject_busy_until
        timings = []
        for flits, inject_at in worms:
            g_inj, _ = inj.reserve(flits, earliest=inject_at)
            header_at = g_inj + self.CYCLES_PER_FLIT
            grant, tail = ej.reserve(
                flits, earliest=header_at + self.SWITCH_DELAY
            )
            timings.append((g_inj, grant, tail))
        return timings, self._counters(inj), self._counters(ej)

    @staticmethod
    def _counters(link):
        tl = link.timeline
        return (
            tl._free_at, tl.busy_cycles, tl.reservations, tl.queued_cycles,
            link.msgs, link.flits,
        )

    def _fabric_run(self, worms, eject_busy_until=0):
        """The same stream through a real single-switch fabric route."""
        from repro.network.fabric import Fabric
        from repro.network.message import Message, MsgKind
        from repro.network.topology import BminTopology

        sim = Simulator()
        fabric = Fabric(sim, BminTopology(4))
        for node in range(4):
            fabric.attach_node(node, lambda m: None)
        eject = fabric._route_objs[(0, 1)][-1][1]
        eject.timeline._free_at = eject_busy_until
        msgs = []
        for flits, inject_at in worms:
            msg = Message(MsgKind.READ, 0, 1, 0x40, flits)
            msgs.append(msg)
            sim.call_at(inject_at, fabric.inject, msg)
        sim.run()
        inj = fabric._inject_links[0]
        return (
            [(m.injected_at, m.delivered_at - m.flits * self.CYCLES_PER_FLIT,
              m.delivered_at) for m in msgs],
            self._counters(inj),
            self._counters(eject),
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_fabric_inline_matches_link_reserve(self, seed):
        rng = random.Random(seed)
        when = 0
        worms = []
        for _ in range(30):
            # bursty gaps: frequent overlap keeps the ejection link
            # contended, so the grant > request_at (queued worm) branch
            # and the idle grant == request_at branch both run
            when += rng.randrange(0, 40)
            worms.append((rng.randrange(1, 12), when))
        busy = rng.randrange(0, 64)  # planted initial occupancy
        want_timing, want_inj, want_ej = self._reference(worms, busy)
        got_timing, got_inj, got_ej = self._fabric_run(worms, busy)
        assert got_timing == want_timing
        assert got_inj == want_inj
        assert got_ej == want_ej

    def test_back_to_back_worms_chain_identically(self):
        # all injected at cycle 0: the inject link serializes them and the
        # ejection link sees strictly ordered, contended requests
        worms = [(f, 0) for f in (1, 9, 2, 9, 1, 5)]
        assert self._fabric_run(worms) == self._reference(worms)
