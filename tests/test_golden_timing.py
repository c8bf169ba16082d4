"""Golden end-to-end timing pins.

These pin the uncontended latency of canonical operations on the default
16-node machine.  They are regression locks on the timing model: any
change to switch delay, flit serialization, memory timing, or protocol
hops will move them and must be a conscious decision.

Derivation of the components (default parameters):

* miss detection through L1+L2: 10 cycles (charged before issue)
* local bus hop: 2 cycles each way (intra-node messages)
* memory: 6 (bus) + 40 (array) + 6 (bus) = 52 cycles
* network per hop: 4 (switch) + 4 (header flit on link); a 9-flit data
  reply serializes 36 cycles on each link
"""

from repro.system.config import SystemConfig
from repro.system.machine import Machine

from conftest import ScriptedApp

GOLDEN = {
    # (reader, home, switch_cache_size) -> (category, latency)
    "local": 68,          # detect 10 + bus 2 + mem 52 + bus 2 + complete
    "adjacent_remote": 120,   # one switch each way
    "far_remote": 216,        # seven switches each way (turn at stage 3)
}

def one_read(reader, home, sc_size=0):
    config = SystemConfig(num_nodes=16, switch_cache_size=sc_size)
    machine = Machine(config)
    app = ScriptedApp({reader: [("r", ("blk", 0))]}, blocks=1, home=home)
    stats = machine.run(app)
    return stats


def test_local_read_latency_pinned():
    stats = one_read(0, 0)
    assert stats.read_latency["local_mem"] == GOLDEN["local"]


def test_adjacent_remote_read_latency_pinned():
    stats = one_read(1, 0)
    assert stats.read_latency["remote_mem"] == GOLDEN["adjacent_remote"]


def test_far_remote_read_latency_pinned():
    stats = one_read(15, 0)
    assert stats.read_latency["remote_mem"] == GOLDEN["far_remote"]


def test_distance_ordering():
    local = one_read(0, 0).read_latency["local_mem"]
    near = one_read(1, 0).read_latency["remote_mem"]
    far = one_read(15, 0).read_latency["remote_mem"]
    assert local < near < far


def test_switch_cache_hit_cheaper_than_full_path():
    """A read served at the last switch before the home skips the memory
    subsystem: its latency must undercut the same read served at the
    home by roughly the memory access time."""
    config = SystemConfig(num_nodes=16, switch_cache_size=2048)
    machine = Machine(config)
    scripts = {p: [("barrier", 1)] for p in range(16)}
    scripts[1] = [("r", ("blk", 0)), ("barrier", 1)]
    scripts[5] = [("barrier", 1), ("r", ("blk", 0))]
    app = ScriptedApp(scripts, blocks=1, home=0)
    stats = machine.run(app)
    assert stats.read_counts["switch"] == 1
    hit_latency = stats.read_latency["switch"]

    base = Machine(SystemConfig(num_nodes=16))
    scripts2 = {p: [("barrier", 1)] for p in range(16)}
    scripts2[1] = [("r", ("blk", 0)), ("barrier", 1)]
    scripts2[5] = [("barrier", 1), ("r", ("blk", 0))]
    app2 = ScriptedApp(scripts2, blocks=1, home=0)
    base_stats = base.run(app2)
    memory_served = base_stats.read_latency["remote_mem"] / 2  # two reads
    # saving is roughly the memory subsystem time (52 cycles) minus the
    # switch cache's own tag+stream delay
    assert hit_latency < memory_served


def test_memory_time_dominates_local_read():
    config = SystemConfig(num_nodes=16)
    uncontended = (
        config.memory_access_cycles + 2 * config.memory_bus_cycles
    )
    assert GOLDEN["local"] - uncontended < 20  # overheads are small


def test_write_ownership_roundtrip_close_to_read():
    """An uncontended READX costs the same network+memory path as a READ."""
    config = SystemConfig(num_nodes=16, trace_values=True)
    machine = Machine(config)
    app = ScriptedApp({1: [("w", ("blk", 0))]}, blocks=1, home=0)
    machine.run(app)
    # drain transaction recorded by the stats
    assert machine.stats.writes_completed == 1
    mean_write = machine.stats.write_latency
    assert abs(mean_write - GOLDEN["adjacent_remote"]) < 30
