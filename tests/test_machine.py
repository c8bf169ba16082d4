"""Tests of machine assembly, the coherence audit, and failure modes."""

import pytest

from repro.apps.synthetic import UniformRandom
from repro.cache.states import LineState
from repro.errors import DeadlockError
from repro.system.machine import Machine
from repro.system.presets import switch_cache_config

from conftest import ScriptedApp, run_scripted, tiny_config


class TestAssembly:
    def test_node_count_and_wiring(self):
        machine = Machine(tiny_config())
        assert len(machine.nodes) == 4
        assert len(machine.fabric.switches) == 2 * 2  # 2 stages x 2 rows

    def test_switch_caches_installed_only_when_enabled(self):
        base = Machine(tiny_config())
        assert all(s.cache_engine is None for s in base.fabric.switches.values())
        sc = Machine(tiny_config(switch_cache_size=512))
        assert all(s.cache_engine is not None for s in sc.fabric.switches.values())

    def test_netcache_installed_only_when_enabled(self):
        base = Machine(tiny_config())
        assert all(n.netcache is None for n in base.nodes)
        nc = Machine(tiny_config(netcache_size=4096))
        assert all(n.netcache is not None for n in nc.nodes)

    def test_sync_addr_stable_and_unique(self):
        machine = Machine(tiny_config())
        a = machine.sync_addr("barrier", 1)
        b = machine.sync_addr("barrier", 2)
        c = machine.sync_addr("lock", 1)
        assert a == machine.sync_addr("barrier", 1)
        assert len({a, b, c}) == 3

    def test_sixteen_node_machine_builds(self):
        machine = Machine(tiny_config(num_nodes=16))
        assert len(machine.fabric.switches) == 4 * 8


class TestRunLoop:
    def test_deadlock_detection_on_mismatched_barriers(self):
        app = ScriptedApp(
            {0: [("barrier", 1)], 1: [], 2: [], 3: []}, blocks=1
        )
        machine = Machine(tiny_config())
        with pytest.raises(DeadlockError):
            machine.run(app)

    def test_quiesce_after_completion(self):
        machine, _stats = run_scripted(
            {p: [("w", ("blk", 0))] for p in range(4)}, blocks=1, home=0
        )
        assert machine.sim.pending == 0

    def test_exec_time_is_max_finish(self):
        machine, stats = run_scripted(
            {0: [("work", 100)], 1: [("work", 9000)]}, blocks=1
        )
        assert stats.exec_time == max(stats.finish_times.values())


def _random_rw():
    return UniformRandom(ops_per_proc=100, nbytes=8192, write_fraction=0.3,
                         seed=1)


def _run_fingerprint(max_cycles=None):
    machine = Machine(switch_cache_config(4))
    stats = machine.run(_random_rw(), max_cycles=max_cycles)
    return stats.exec_time, machine.sim.events_fired, stats.to_payload()


class TestMaxCycles:
    """``max_cycles`` bounds the main phase, not just the quiesce."""

    def test_bound_below_exec_time_raises(self):
        exec_time = _run_fingerprint()[0]
        for bound in (100, exec_time - 1):
            machine = Machine(switch_cache_config(4))
            with pytest.raises(DeadlockError,
                               match=rf"max_cycles={bound} reached with "
                                     r"processors \[.+\] unfinished at "
                                     r"cycle \d+"):
                machine.run(_random_rw(), max_cycles=bound)
            assert machine.sim.now <= bound

    def test_bound_at_exec_time_finishes(self):
        exec_time = _run_fingerprint()[0]
        assert _run_fingerprint(max_cycles=exec_time)[0] == exec_time

    def test_generous_bound_is_bit_identical(self):
        assert _run_fingerprint(max_cycles=10**9) == _run_fingerprint()


class TestCoherenceAudit:
    def test_clean_machine_audits_clean(self):
        machine, _stats = run_scripted(
            {p: [("r", ("blk", 0)), ("w", ("blk", 1))] for p in range(4)},
            blocks=2, home=0,
        )
        assert machine.check_coherence() == []

    def test_audit_detects_hidden_sharer(self):
        machine, _stats = run_scripted(
            {1: [("r", ("blk", 0))]}, blocks=1, home=0
        )
        # corrupt: node 2 conjures a copy the directory doesn't know about
        block_addr = machine.nodes[1].processor.value_trace[0][1]
        machine.nodes[2].hierarchy.l2.insert(block_addr, LineState.SHARED, 0)
        problems = machine.check_coherence()
        assert any("not a registered sharer" in p for p in problems)

    def test_audit_detects_version_mismatch(self):
        machine, _stats = run_scripted(
            {1: [("r", ("blk", 0))]}, blocks=1, home=0
        )
        block_addr = machine.nodes[1].processor.value_trace[0][1]
        machine.nodes[1].hierarchy.l2.probe(block_addr).data = 99
        problems = machine.check_coherence()
        assert any("v99" in p for p in problems)

    def test_audit_detects_rogue_owner(self):
        machine, _stats = run_scripted(
            {1: [("w", ("blk", 0))]}, blocks=1, home=0
        )
        block_addr = next(machine.nodes[1].hierarchy.l2.resident_blocks())[0]
        machine.nodes[2].hierarchy.l2.insert(block_addr, LineState.MODIFIED, 5)
        problems = machine.check_coherence()
        assert problems

    def test_audit_detects_stale_switch_copy(self):
        config = tiny_config(switch_cache_size=1024)
        machine, _stats = run_scripted(
            {1: [("r", ("blk", 0))]}, config=config, blocks=1, home=0
        )
        copies = machine.fabric.switch_cache_blocks()
        assert copies  # the read deposited along its path
        sid, addr, _v = copies[0]
        machine.fabric.switches[sid].cache_engine.array.probe(addr).data = 77
        problems = machine.check_coherence()
        assert any("switch" in p for p in problems)

    def test_memory_version_accessor(self):
        machine, _stats = run_scripted(
            {1: [("w", ("blk", 0))]}, blocks=1, home=0
        )
        block_addr = next(machine.nodes[1].hierarchy.l2.resident_blocks())[0]
        # block is still MODIFIED at node 1; the home version is the
        # pre-write one (0) until a writeback happens
        assert machine.memory_version(block_addr) == 0
