"""Differential tests: integer-coded hot state vs the object models.

PR 6 recodes the simulator's hot state — directory sharer sets become int
bitmasks, cache sets become struct-of-arrays int lists, message kinds get
table-driven predicates, and worms recycle through a per-machine pool —
while keeping every simulation bit-identical.  The original object models
survive as ``REPRO_STATE=obj`` (DESIGN.md §10), and these tests hold the
two halves together:

* lockstep fuzzers drive a coded and an object instance through one
  seeded op-script, comparing every observable after every op;
* a golden test pins the seeded random-replacement victim to the *old*
  algorithm (``rng.choice(sorted(tags))``) computed independently;
* full machines run every paper app under both models and must agree on
  the cycle count, the event count, and every statistics counter.
"""

import random

import pytest

from repro.cache.array import CacheArray, CacheArrayObj, make_cache_array
from repro.cache.states import (
    CODE_EXCLUSIVE,
    CODE_INVALID,
    CODE_MODIFIED,
    CODE_SHARED,
    LINE_STATE_BY_CODE,
    STATE_ENV,
    LineState,
    state_model,
)
from repro.coherence.directory import DirEntry, DirEntryObj, Directory
from repro.errors import ConfigError, ProtocolError
from repro.network.message import (
    CARRIES_DATA,
    INTERCEPTABLE,
    SNOOPS_SWITCH_CACHES,
    SWITCH_CACHEABLE,
    Message,
    MessagePool,
    MsgKind,
)

STATE_MODELS = ("coded", "obj")


# ----------------------------------------------------------------------
# state-model selection
# ----------------------------------------------------------------------
def test_state_model_env(monkeypatch):
    monkeypatch.delenv(STATE_ENV, raising=False)
    assert state_model() == "coded"
    assert isinstance(make_cache_array(512, 32, 2), CacheArray)
    assert isinstance(Directory(0, 32).entry(0), DirEntry)
    assert not isinstance(Directory(0, 32).entry(0), DirEntryObj)
    monkeypatch.setenv(STATE_ENV, "obj")
    assert state_model() == "obj"
    assert isinstance(make_cache_array(512, 32, 2), CacheArrayObj)
    assert isinstance(Directory(0, 32).entry(0), DirEntryObj)


def test_unknown_state_model_rejected(monkeypatch):
    monkeypatch.setenv(STATE_ENV, "simd")
    with pytest.raises(ConfigError):
        state_model()


def test_line_state_codes_round_trip():
    assert (CODE_INVALID, CODE_SHARED, CODE_EXCLUSIVE, CODE_MODIFIED) == (
        0, 1, 2, 3,
    )
    for state in LineState:
        assert LINE_STATE_BY_CODE[state.code] is state
        assert state.readable() == (state.code > CODE_INVALID)
        assert state.writable() == (state.code >= CODE_EXCLUSIVE)
        assert state.owned() == (state.code >= CODE_EXCLUSIVE)


# ----------------------------------------------------------------------
# cache-array lockstep fuzz
# ----------------------------------------------------------------------
def _array_pair(replacement):
    kwargs = dict(size=512, block_size=32, assoc=2, replacement=replacement)
    return (
        make_cache_array(model="coded", **kwargs),
        make_cache_array(model="obj", **kwargs),
    )


def _array_observables(arr):
    resident = sorted(
        (addr, line.tag, line.state, line.data)
        for addr, line in arr.resident_blocks()
    )
    return (
        arr.hits, arr.misses, arr.evictions, arr.invalidations,
        arr.occupancy(),
        tuple(arr.set_len(s) for s in range(arr.num_sets)),
        tuple(resident),
    )


def _lockstep_arrays(seed, replacement, ops=600):
    """One seeded op-script through both models, compared every step."""
    rng = random.Random(seed)
    # a small address pool over few sets forces conflicts and evictions
    addrs = [b * 32 for b in range(64)]
    states = (LineState.SHARED, LineState.EXCLUSIVE, LineState.MODIFIED,
              LineState.INVALID)
    coded, obj = _array_pair(replacement)
    for op_idx in range(ops):
        roll = rng.random()
        addr = rng.choice(addrs)
        if roll < 0.35:
            state = rng.choice(states)
            data = rng.randrange(1 << 16)
            assert coded.insert(addr, state, data) == obj.insert(
                addr, state, data
            ), (op_idx, "insert", addr)
        elif roll < 0.50:
            a, b = coded.lookup(addr), obj.lookup(addr)
            assert (a is None) == (b is None), (op_idx, "lookup", addr)
            if a is not None:
                assert (a.tag, a.state, a.data) == (b.tag, b.state, b.data)
        elif roll < 0.58:
            a, b = coded.probe(addr), obj.probe(addr)
            assert (a is None) == (b is None), (op_idx, "probe", addr)
            if a is not None:
                assert (a.state, a.data) == (b.state, b.data)
        elif roll < 0.64:
            assert coded.probe_data(addr) == obj.probe_data(addr)
            assert coded.probe_state(addr) == obj.probe_state(addr)
        elif roll < 0.70:
            assert coded.lookup_data(addr) == obj.lookup_data(addr)
            assert coded.lookup_state(addr) == obj.lookup_state(addr)
        elif roll < 0.76:
            data = rng.randrange(1 << 16)
            assert coded.write_owned(addr, data) == obj.write_owned(addr, data)
        elif roll < 0.80:
            data = rng.randrange(1 << 16)
            assert coded.set_data(addr, data) == obj.set_data(addr, data)
        elif roll < 0.84:
            assert coded.downgrade_owned(addr) == obj.downgrade_owned(addr)
        elif roll < 0.90:
            assert coded.invalidate(addr) == obj.invalidate(addr)
        elif roll < 0.96:
            state = rng.choice(states)
            outcomes = []
            for arr in (coded, obj):
                try:
                    arr.set_state(addr, state)
                    outcomes.append("ok")
                except KeyError:
                    outcomes.append("keyerror")
            assert outcomes[0] == outcomes[1], (op_idx, "set_state", addr)
        else:
            coded.clear()
            obj.clear()
        assert _array_observables(coded) == _array_observables(obj), (
            op_idx, "observables",
        )


@pytest.mark.parametrize("replacement", CacheArray.REPLACEMENT_POLICIES)
@pytest.mark.parametrize("seed", range(4))
def test_array_lockstep_fuzz(seed, replacement):
    _lockstep_arrays(seed, replacement)


def test_array_lockstep_fuzz_long():
    _lockstep_arrays(seed=1234, replacement="random", ops=3000)


def test_random_victim_matches_legacy_choice():
    """The coded random victim must equal ``rng.choice(sorted(tags))``.

    The object model used to re-sort the set per eviction and draw with
    ``random.Random.choice``; the coded model keeps the occupied prefix
    tag-sorted and draws an index.  Both are pinned here against the old
    algorithm computed independently with a twin RNG.
    """
    for model in STATE_MODELS:
        arr = make_cache_array(
            256, 32, 4, replacement="random", model=model
        )  # 2 sets, 4 ways
        twin = random.Random(0xCAE5A)  # same default seed as the array
        resident = []
        for tag in (7, 3, 11, 5):  # insertion order deliberately unsorted
            addr = (tag * arr.num_sets) * 32  # all land in set 0
            arr.insert(addr, LineState.SHARED, tag)
            resident.append(tag)
        victim = arr.insert((13 * arr.num_sets) * 32, LineState.SHARED, 13)
        expected_tag = twin.choice(sorted(resident))
        assert victim is not None, model
        assert victim[0] == (expected_tag * arr.num_sets) * 32, model


def test_invalid_state_lines_occupy_slots():
    """INVALID-state lines stay resident-but-unreadable in both models."""
    for model in STATE_MODELS:
        arr = make_cache_array(256, 32, 4, model=model)
        arr.insert(0, LineState.INVALID, 1)
        assert arr.probe(0) is None, model
        assert arr.occupancy() == 1, model  # the slot is held
        assert arr.invalidate(0) is None, model  # nothing valid to purge
        assert arr.occupancy() == 1, model
        arr.insert(0, LineState.SHARED, 2)  # in-place revalidation
        assert arr.occupancy() == 1 and arr.evictions == 0, model
        assert arr.probe(0).data == 2, model


# ----------------------------------------------------------------------
# directory lockstep fuzz
# ----------------------------------------------------------------------
def _entry_observables(d):
    out = []
    for addr, entry in sorted(d.entries()):
        out.append((
            addr, entry.state, entry.owner, entry.version,
            entry.num_sharers(), tuple(entry.sorted_sharers()),
            set(entry.sharers),
        ))
    return out


def _lockstep_directories(seed, ops=500, nodes=16):
    rng = random.Random(seed)
    mask_dir = Directory(0, 64, model="coded")
    set_dir = Directory(0, 64, model="obj")
    blocks = [b * 64 for b in range(8)]
    for op_idx in range(ops):
        roll = rng.random()
        block = rng.choice(blocks)
        node = rng.randrange(nodes)
        pair = (mask_dir, set_dir)
        if roll < 0.40:
            outcomes = []
            for d in pair:
                try:
                    d.add_sharer(block, node)
                    outcomes.append("ok")
                except ProtocolError:
                    outcomes.append("protoerr")
            assert outcomes[0] == outcomes[1], (op_idx, "add_sharer")
        elif roll < 0.55:
            version = rng.randrange(1 << 12)
            for d in pair:
                d.set_owner(block, node, version=version)
        elif roll < 0.70:
            version = rng.randrange(4)
            outcomes = []
            for d in pair:
                try:
                    d.writeback(block, node, version=version)
                    outcomes.append("ok")
                except ProtocolError:
                    outcomes.append("protoerr")
            assert outcomes[0] == outcomes[1], (op_idx, "writeback")
        elif roll < 0.85:
            assert mask_dir.clear_sharers(block) == set_dir.clear_sharers(
                block
            ), (op_idx, "clear_sharers")
        else:
            e_m, e_s = mask_dir.entry(block), set_dir.entry(block)
            assert e_m.has_sharer(node) == e_s.has_sharer(node)
            assert mask_dir.version_of(block) == set_dir.version_of(block)
            assert (mask_dir.peek(block) is None) == (
                set_dir.peek(block) is None
            )
        assert _entry_observables(mask_dir) == _entry_observables(set_dir), (
            op_idx, "observables",
        )


@pytest.mark.parametrize("seed", range(6))
def test_directory_lockstep_fuzz(seed):
    _lockstep_directories(seed)


def test_sorted_sharers_is_ascending():
    d = Directory(0, 64, model="coded")
    for node in (9, 2, 14, 0, 5):
        d.add_sharer(0x40, node)
    assert d.entry(0x40).sorted_sharers() == [0, 2, 5, 9, 14]
    assert d.entry(0x40).sharers == {0, 2, 5, 9, 14}


# ----------------------------------------------------------------------
# message kinds and the worm pool
# ----------------------------------------------------------------------
def test_kind_tables_match_properties():
    for kind in MsgKind:
        assert kind.carries_data == CARRIES_DATA[kind.code]
        assert kind.switch_cacheable == SWITCH_CACHEABLE[kind.code]
        assert kind.interceptable == INTERCEPTABLE[kind.code]
        assert kind.snoops_switch_caches == SNOOPS_SWITCH_CACHES[kind.code]
    data_kinds = {k for k in MsgKind if k.carries_data}
    assert data_kinds == {
        MsgKind.DATA_S, MsgKind.DATA_X, MsgKind.DATA_E,
        MsgKind.RECALL_REPLY, MsgKind.WRITEBACK,
    }
    assert [k.code for k in MsgKind] == list(range(len(MsgKind)))


def test_pool_id_streams_are_independent():
    a, b = MessagePool(64), MessagePool(64)
    ids_a = [a.make(MsgKind.READ, 0, 1, 0x40).id for _ in range(3)]
    ids_b = [b.make(MsgKind.READ, 0, 1, 0x40).id for _ in range(3)]
    assert ids_a == [0, 1, 2]
    assert ids_b == [0, 1, 2]  # a second machine replays the same stream


def test_pool_default_flits_by_kind():
    pool = MessagePool(block_size=64)
    assert pool.make(MsgKind.READ, 0, 1, 0x40).flits == 1
    assert pool.make(MsgKind.DATA_S, 1, 0, 0x40, data=7).flits == 1 + 64 // 8
    # RECALL_REPLY is a data kind even when it carries no payload
    no_data = pool.make(
        MsgKind.RECALL_REPLY, 1, 0, 0x40, payload={"no_data": True}
    )
    assert no_data.flits == 1 + 64 // 8
    assert pool.make(MsgKind.DATA_S, 1, 0, 0x40, flits=3).flits == 3


def test_pool_recycles_unreferenced_worms():
    pool = MessagePool(64)
    holder = [pool.make(MsgKind.INV, 0, 1, 0x40, payload={"x": 1})]
    msg = holder[0]
    msg.trace.append((0, 0))
    # refs here: `msg` + `holder[0]` + release's parameter + getrefcount
    pool.release(msg)
    assert len(pool._free) == 1
    reused = pool.make(MsgKind.INV_ACK, 1, 0, 0x80)
    assert reused is msg  # the worm was recycled...
    assert reused.id == 1 and reused.kind is MsgKind.INV_ACK
    assert reused.payload == {} and reused.trace == []  # ...fully reset
    assert reused.route is None and reused.hops is None
    assert reused.created_at == -1 and reused.delivered_at == -1


def test_pool_release_vetoed_by_retained_reference():
    pool = MessagePool(64)
    msg = pool.make(MsgKind.DATA_S, 0, 1, 0x40, data=9)
    retainer = {"reply_msg": msg}  # e.g. a Transaction keeps the reply
    holder = [msg]
    pool.release(msg)
    assert pool._free == []  # the extra reference vetoes reuse
    assert retainer["reply_msg"].data == 9  # retained worm untouched
    del holder


def test_bare_message_uses_global_fallback_ids():
    first = Message(MsgKind.READ, 0, 1, 0x40, flits=1)
    second = Message(MsgKind.READ, 0, 1, 0x40, flits=1)
    assert second.id == first.id + 1
    assert Message(MsgKind.READ, 0, 1, 0x40, flits=1, msg_id=77).id == 77


# ----------------------------------------------------------------------
# whole-machine cross-model identity (every paper app)
# ----------------------------------------------------------------------
def _machine_fingerprint(app_name):
    from repro.experiments.common import make_app
    from repro.system.machine import Machine
    from repro.system.presets import switch_cache_config

    machine = Machine(switch_cache_config(4), sanitize=False)
    stats = machine.run(make_app(app_name, "quick"))
    assert machine.check_coherence() == []
    return (
        stats.exec_time,
        machine.sim.now,
        machine.sim.events_fired,
        dict(stats.read_counts),
        tuple(stats.per_node_reads),
        machine.fabric.stats.msgs_delivered,
        machine.pool._next_id,  # the full message-id stream length
    )


@pytest.mark.parametrize(
    "app_name", ("FWA", "GS", "GE", "MM", "SOR", "FFT")
)
def test_machine_identical_across_state_models(app_name, monkeypatch):
    results = {}
    for model in STATE_MODELS:
        monkeypatch.setenv(STATE_ENV, model)
        results[model] = _machine_fingerprint(app_name)
    assert results["coded"] == results["obj"]
