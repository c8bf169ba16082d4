"""Set-associative SRAM cache array mechanics.

This is pure state bookkeeping — hit/miss decisions, LRU replacement,
invalidation — with no timing.  Timing lives in the controllers that own an
array (the node-side hierarchy, the network cache, and the CAESAR switch
cache), because each of those clocks its array differently.

Lines carry a ``data`` payload.  Throughout the simulator the payload is a
*version number* for the block (incremented by every write), which lets the
test suite check coherence end-to-end: a read must never observe a version
older than the last write that completed before it.

Two implementations share one API (DESIGN.md §10):

* :class:`CacheArray` — the default *coded* kernel.  Each set is a slice
  of four flat parallel int lists (``tag``/``state``/``data``/``lru``),
  states are the small-int codes from :mod:`repro.cache.states`, and the
  occupied slots of a set are kept sorted by tag so the seeded random
  victim is a direct index (no per-victim sort).  ``probe``/``lookup``
  return a :class:`LineView` over the slot; the allocation-free
  ``*_data``/``*_state`` variants are what the simulation hot paths use.
* :class:`CacheArrayObj` — the original dict-of-:class:`CacheLine` model,
  kept byte-for-byte as the ``REPRO_STATE=obj`` escape hatch and as the
  reference half of the differential fuzzer.

Both must be observationally identical — same hits/misses/evictions, same
victims, same seeded-random victim choices — which the lockstep fuzzer in
``tests/test_state_differential.py`` enforces op by op.
"""

from __future__ import annotations

import random as _random
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..errors import ConfigError
from .states import LINE_STATE_BY_CODE, LineState, state_model


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


#: hoisted enum member: ``line.state is _INVALID`` in the probe hot path
_INVALID = LineState.INVALID

#: hoisted decode table and codes (module-level lookups in hot methods)
_DECODE = LINE_STATE_BY_CODE
_CODE_SHARED = LineState.SHARED.code
_CODE_MODIFIED = LineState.MODIFIED.code
_CODE_EXCLUSIVE = LineState.EXCLUSIVE.code


class CacheLine:
    """One cache line: tag, MSI state, payload, and LRU timestamp."""

    __slots__ = ("tag", "state", "data", "lru")

    def __init__(self, tag: int, state: LineState, data: int, lru: int) -> None:
        self.tag = tag
        self.state = state
        self.data = data
        self.lru = lru

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Line tag={self.tag:#x} {self.state.value} v{self.data}>"


class LineView:
    """A live window onto one occupied slot of the coded array.

    Reads and writes go straight through to the parallel lists, so a view
    behaves like the :class:`CacheLine` it replaces for snoop-style
    callers.  Views are transient: holding one across an ``insert`` or
    ``invalidate`` that reshuffles the set is undefined (the old model had
    the same caveat — an evicted ``CacheLine`` silently detached).
    """

    __slots__ = ("_arr", "_slot")

    def __init__(self, arr: "CacheArray", slot: int) -> None:
        self._arr = arr
        self._slot = slot

    @property
    def tag(self) -> int:
        return self._arr._tags[self._slot]

    @property
    def state(self) -> LineState:
        return _DECODE[self._arr._states[self._slot]]

    @state.setter
    def state(self, value: LineState) -> None:
        self._arr._states[self._slot] = value.code

    @property
    def data(self) -> int:
        return self._arr._data[self._slot]

    @data.setter
    def data(self, value: int) -> None:
        self._arr._data[self._slot] = value

    @property
    def lru(self) -> int:
        return self._arr._lrus[self._slot]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Line tag={self.tag:#x} {self.state.value} v{self.data}>"


class CacheArrayBase:
    """Geometry, statistics, and the policy knobs shared by both models.

    Parameters mirror a hardware description: total ``size`` in bytes,
    ``block_size`` in bytes, ``assoc`` ways.  ``size`` must be a multiple of
    ``block_size * assoc`` and the resulting set count a power of two (the
    paper's caches are all power-of-two sized).

    ``replacement`` selects the victim policy: ``'lru'`` (true LRU,
    default), ``'fifo'`` (insertion order; cheaper hardware since hits do
    not touch the replacement state), or ``'random'`` (seeded, so runs
    stay deterministic).
    """

    REPLACEMENT_POLICIES = ("lru", "fifo", "random")

    __slots__ = (
        "replacement", "_lru", "_rng", "size", "block_size", "assoc",
        "num_sets", "name", "_tick", "hits", "misses", "evictions",
        "invalidations",
    )

    def __init__(
        self,
        size: int,
        block_size: int,
        assoc: int,
        name: str = "",
        replacement: str = "lru",
        seed: int = 0xCAE5A,
    ) -> None:
        if replacement not in self.REPLACEMENT_POLICIES:
            raise ConfigError(f"unknown replacement policy {replacement!r}")
        self.replacement = replacement
        self._lru = replacement == "lru"  # hot-path flag (no str compare)
        self._rng = _random.Random(seed) if replacement == "random" else None
        if block_size <= 0 or not _is_power_of_two(block_size):
            raise ConfigError(f"block_size must be a power of two, got {block_size}")
        if assoc <= 0:
            raise ConfigError(f"assoc must be positive, got {assoc}")
        if size <= 0 or size % (block_size * assoc) != 0:
            raise ConfigError(
                f"cache size {size} not a multiple of block_size*assoc "
                f"({block_size}*{assoc})"
            )
        num_sets = size // (block_size * assoc)
        if not _is_power_of_two(num_sets):
            raise ConfigError(f"set count {num_sets} is not a power of two")
        self.size = size
        self.block_size = block_size
        self.assoc = assoc
        self.num_sets = num_sets
        self.name = name
        self._tick = 0
        # statistics
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # address helpers
    # ------------------------------------------------------------------
    def block_of(self, addr: int) -> int:
        return addr // self.block_size

    def _index(self, block: int) -> Tuple[int, int]:
        return block % self.num_sets, block // self.num_sets

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name or ''} {self.size}B "
            f"{self.num_sets}x{self.assoc}x{self.block_size}B>"
        )

    # ------------------------------------------------------------------
    # the common API both models implement
    # ------------------------------------------------------------------
    def probe(self, addr: int) -> Optional[Union[CacheLine, LineView]]:
        raise NotImplementedError

    def lookup(self, addr: int) -> Optional[Union[CacheLine, LineView]]:
        raise NotImplementedError

    def insert(
        self, addr: int, state: LineState, data: int
    ) -> Optional[Tuple[int, LineState, int]]:
        raise NotImplementedError

    def set_state(self, addr: int, state: LineState) -> None:
        raise NotImplementedError

    def invalidate(self, addr: int) -> Optional[Tuple[LineState, int]]:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError

    def resident_blocks(
        self,
    ) -> Iterator[Tuple[int, Union[CacheLine, LineView]]]:
        raise NotImplementedError

    def occupancy(self) -> int:
        raise NotImplementedError

    def set_len(self, set_idx: int) -> int:
        """Occupied slots in one set (valid *and* INVALID-state lines)."""
        raise NotImplementedError

    # allocation-free variants used by the simulation hot paths ---------
    def probe_data(self, addr: int) -> Optional[int]:
        raise NotImplementedError

    def probe_state(self, addr: int) -> int:
        raise NotImplementedError

    def lookup_data(self, addr: int) -> Optional[int]:
        raise NotImplementedError

    def lookup_state(self, addr: int) -> int:
        raise NotImplementedError

    def write_owned(self, addr: int, data: int) -> bool:
        raise NotImplementedError

    def set_data(self, addr: int, data: int) -> bool:
        raise NotImplementedError

    def downgrade_owned(self, addr: int) -> Optional[int]:
        raise NotImplementedError


class CacheArray(CacheArrayBase):
    """The coded struct-of-arrays model (default kernel).

    Set ``s`` owns slots ``[s*assoc, (s+1)*assoc)`` of four flat parallel
    lists.  ``_tags[slot] == -1`` marks an empty slot; occupied slots form
    a prefix of the set, **sorted by tag**, so the seeded random victim
    (``rng.choice`` over the sorted tag list in the object model) becomes
    ``slot = base + rng.choice(range(assoc))`` — same entropy draw, same
    victim, no sort.  States are small-int codes (``states.py``).
    """

    __slots__ = (
        "_tags", "_states", "_data", "_lrus", "_occ", "_occupied",
        "_set_mask", "_set_bits", "_block_shift", "_victim_range", "_slot",
    )

    def __init__(
        self,
        size: int,
        block_size: int,
        assoc: int,
        name: str = "",
        replacement: str = "lru",
        seed: int = 0xCAE5A,
    ) -> None:
        super().__init__(size, block_size, assoc, name, replacement, seed)
        slots = self.num_sets * assoc
        self._tags: List[int] = [-1] * slots
        self._states: List[int] = [0] * slots
        self._data: List[int] = [0] * slots
        self._lrus: List[int] = [0] * slots
        self._occ: List[int] = [0] * self.num_sets
        self._occupied = 0
        self._set_mask = self.num_sets - 1
        self._set_bits = self.num_sets.bit_length() - 1
        self._block_shift = block_size.bit_length() - 1
        self._victim_range = range(assoc)
        # block -> slot index over the parallel lists.  The dict is pure
        # acceleration (the lists alone are authoritative): a hit is one
        # hash probe instead of a bounded list.index with a ValueError on
        # every miss, which profiling showed dominating the lookup cost.
        self._slot: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def probe(self, addr: int) -> Optional[LineView]:
        """Hit test *without* updating LRU or statistics (snoop-style)."""
        i = self._slot.get(addr >> self._block_shift)
        if i is not None and self._states[i]:
            return LineView(self, i)
        return None

    def lookup(self, addr: int) -> Optional[LineView]:
        """Hit test that updates LRU and hit/miss statistics."""
        i = self._slot.get(addr >> self._block_shift)
        if i is None or not self._states[i]:
            self.misses += 1
            return None
        if self._lru:
            self._tick += 1
            self._lrus[i] = self._tick
        self.hits += 1
        return LineView(self, i)

    # -- allocation-free variants (simulation hot paths) ----------------
    def probe_data(self, addr: int) -> Optional[int]:
        i = self._slot.get(addr >> self._block_shift)
        if i is not None and self._states[i]:
            return self._data[i]
        return None

    def probe_state(self, addr: int) -> int:
        """State code of a resident block (0 when absent or INVALID)."""
        i = self._slot.get(addr >> self._block_shift)
        return self._states[i] if i is not None else 0

    def lookup_data(self, addr: int) -> Optional[int]:
        """`lookup` returning the payload directly (same stats/LRU)."""
        i = self._slot.get(addr >> self._block_shift)
        if i is None or not self._states[i]:
            self.misses += 1
            return None
        if self._lru:
            self._tick += 1
            self._lrus[i] = self._tick
        self.hits += 1
        return self._data[i]

    def lookup_state(self, addr: int) -> int:
        """`lookup` returning the state code (0 on miss; same stats/LRU)."""
        i = self._slot.get(addr >> self._block_shift)
        if i is None or not self._states[i]:
            self.misses += 1
            return 0
        if self._lru:
            self._tick += 1
            self._lrus[i] = self._tick
        self.hits += 1
        return self._states[i]

    def write_owned(self, addr: int, data: int) -> bool:
        """Commit a store if the copy is writable (E/M); M-promote it."""
        i = self._slot.get(addr >> self._block_shift)
        if i is None or self._states[i] < _CODE_EXCLUSIVE:
            return False
        self._states[i] = _CODE_MODIFIED
        self._data[i] = data
        return True

    def set_data(self, addr: int, data: int) -> bool:
        """Update the payload of a resident block (no state change)."""
        i = self._slot.get(addr >> self._block_shift)
        if i is not None and self._states[i]:
            self._data[i] = data
            return True
        return False

    def downgrade_owned(self, addr: int) -> Optional[int]:
        """M/E -> S; returns the payload, or None if not resident-owned."""
        i = self._slot.get(addr >> self._block_shift)
        if i is None or self._states[i] < _CODE_EXCLUSIVE:
            return None
        self._states[i] = _CODE_SHARED
        return self._data[i]

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(
        self, addr: int, state: LineState, data: int
    ) -> Optional[Tuple[int, LineState, int]]:
        """Install a block, evicting per policy if the set is full.

        Returns ``(victim_addr, victim_state, victim_data)`` when a valid
        line was displaced, else None.  Inserting over an existing line for
        the same block updates it in place (no eviction).
        """
        block = addr >> self._block_shift
        set_idx = block & self._set_mask
        tag = block >> self._set_bits
        assoc = self.assoc
        num_sets = self.num_sets
        base = set_idx * assoc
        tags = self._tags
        states = self._states
        datas = self._data
        lrus = self._lrus
        slot = self._slot
        self._tick += 1
        tick = self._tick
        i = slot.get(block)
        if i is not None:
            states[i] = state.code
            datas[i] = data
            lrus[i] = tick
            return None
        victim_info = None
        n = self._occ[set_idx]
        if n >= assoc:
            rng = self._rng
            if rng is not None:
                # same entropy draw as rng.choice(sorted(tags)): the
                # occupied prefix is kept tag-sorted, so the k-th choice
                # IS slot base+k
                v = base + rng.choice(self._victim_range)
            else:
                # LRU and FIFO both evict the minimum timestamp; they
                # differ in whether hits refresh it (see lookup).  A
                # manual scan beats min(key=lambda) at these small assocs
                v = base
                victim_lru = lrus[base]
                for j in range(base + 1, base + n):
                    if lrus[j] < victim_lru:
                        v, victim_lru = j, lrus[j]
            victim_block = tags[v] * num_sets + set_idx
            if states[v]:
                self.evictions += 1
                victim_info = (
                    victim_block * self.block_size,
                    _DECODE[states[v]],
                    datas[v],
                )
            del slot[victim_block]
            # close the gap left by the victim (keeps the prefix sorted)
            for j in range(v, base + n - 1):
                tags[j] = tags[j + 1]
                states[j] = states[j + 1]
                datas[j] = datas[j + 1]
                lrus[j] = lrus[j + 1]
                slot[tags[j] * num_sets + set_idx] = j
            n -= 1
            tags[base + n] = -1
            self._occupied -= 1
        # sorted insertion into the occupied prefix
        pos = base
        end = base + n
        while pos < end and tags[pos] < tag:
            pos += 1
        for j in range(end, pos, -1):
            tags[j] = tags[j - 1]
            states[j] = states[j - 1]
            datas[j] = datas[j - 1]
            lrus[j] = lrus[j - 1]
            slot[tags[j] * num_sets + set_idx] = j
        tags[pos] = tag
        states[pos] = state.code
        datas[pos] = data
        lrus[pos] = tick
        slot[block] = pos
        self._occ[set_idx] = n + 1
        self._occupied += 1
        return victim_info

    def set_state(self, addr: int, state: LineState) -> None:
        """Change the state of a resident line (line must be present)."""
        i = self._slot.get(addr >> self._block_shift)
        if i is None or not self._states[i]:
            raise KeyError(f"set_state on non-resident block {addr:#x}")
        self._states[i] = state.code

    def invalidate(self, addr: int) -> Optional[Tuple[LineState, int]]:
        """Drop a block if present; returns its former (state, data)."""
        block = addr >> self._block_shift
        set_idx = block & self._set_mask
        slot = self._slot
        i = slot.get(block)
        if i is None or not self._states[i]:
            return None
        former = (_DECODE[self._states[i]], self._data[i])
        tags = self._tags
        states = self._states
        datas = self._data
        lrus = self._lrus
        num_sets = self.num_sets
        base = set_idx * self.assoc
        n = self._occ[set_idx]
        del slot[block]
        for j in range(i, base + n - 1):
            tags[j] = tags[j + 1]
            states[j] = states[j + 1]
            datas[j] = datas[j + 1]
            lrus[j] = lrus[j + 1]
            slot[tags[j] * num_sets + set_idx] = j
        tags[base + n - 1] = -1
        self._occ[set_idx] = n - 1
        self._occupied -= 1
        self.invalidations += 1
        return former

    def clear(self) -> None:
        slots = self.num_sets * self.assoc
        self._tags[:] = [-1] * slots
        self._occ[:] = [0] * self.num_sets
        self._occupied = 0
        self._slot.clear()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def resident_blocks(self) -> Iterator[Tuple[int, LineView]]:
        """Yield ``(block_start_addr, line)`` for every valid line."""
        assoc = self.assoc
        tags = self._tags
        states = self._states
        for set_idx in range(self.num_sets):
            base = set_idx * assoc
            for i in range(base, base + self._occ[set_idx]):
                if states[i]:
                    block = tags[i] * self.num_sets + set_idx
                    yield block * self.block_size, LineView(self, i)

    def occupancy(self) -> int:
        """Number of occupied slots (valid and INVALID-state lines)."""
        return self._occupied

    def set_len(self, set_idx: int) -> int:
        return self._occ[set_idx]


class CacheArrayObj(CacheArrayBase):
    """The original dict-of-``CacheLine`` model (``REPRO_STATE=obj``).

    Kept byte-for-byte faithful to the pre-coded implementation: it is the
    reference half of the lockstep differential fuzzer and the escape
    hatch for debugging the coded kernel.
    """

    __slots__ = ("_sets",)

    def __init__(
        self,
        size: int,
        block_size: int,
        assoc: int,
        name: str = "",
        replacement: str = "lru",
        seed: int = 0xCAE5A,
    ) -> None:
        super().__init__(size, block_size, assoc, name, replacement, seed)
        self._sets: List[Dict[int, CacheLine]] = [
            dict() for _ in range(self.num_sets)
        ]

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def probe(self, addr: int) -> Optional[CacheLine]:
        """Hit test *without* updating LRU or statistics (snoop-style)."""
        block = addr // self.block_size
        line = self._sets[block % self.num_sets].get(block // self.num_sets)
        if line is not None and line.state is not _INVALID:
            return line
        return None

    def lookup(self, addr: int) -> Optional[CacheLine]:
        """Hit test that updates LRU and hit/miss statistics."""
        block = addr // self.block_size
        line = self._sets[block % self.num_sets].get(block // self.num_sets)
        if line is None or line.state is _INVALID:
            self.misses += 1
            return None
        if self._lru:
            self._tick += 1
            line.lru = self._tick
        self.hits += 1
        return line

    # -- allocation-free variants (same observable behavior) ------------
    def probe_data(self, addr: int) -> Optional[int]:
        line = self.probe(addr)
        return None if line is None else line.data

    def probe_state(self, addr: int) -> int:
        line = self.probe(addr)
        return 0 if line is None else line.state.code

    def lookup_data(self, addr: int) -> Optional[int]:
        line = self.lookup(addr)
        return None if line is None else line.data

    def lookup_state(self, addr: int) -> int:
        line = self.lookup(addr)
        return 0 if line is None else line.state.code

    def write_owned(self, addr: int, data: int) -> bool:
        line = self.probe(addr)
        if line is None or not line.state.writable():
            return False
        line.state = LineState.MODIFIED
        line.data = data
        return True

    def set_data(self, addr: int, data: int) -> bool:
        line = self.probe(addr)
        if line is None:
            return False
        line.data = data
        return True

    def downgrade_owned(self, addr: int) -> Optional[int]:
        line = self.probe(addr)
        if line is None or not line.state.owned():
            return None
        line.state = LineState.SHARED
        return line.data

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(
        self, addr: int, state: LineState, data: int
    ) -> Optional[Tuple[int, LineState, int]]:
        """Install a block, evicting per policy if the set is full."""
        block = self.block_of(addr)
        set_idx, tag = self._index(block)
        cache_set = self._sets[set_idx]
        self._tick += 1
        existing = cache_set.get(tag)
        if existing is not None:
            existing.state = state
            existing.data = data
            existing.lru = self._tick
            return None
        victim_info = None
        if len(cache_set) >= self.assoc:
            if self._rng is not None:
                victim_tag = self._rng.choice(sorted(cache_set))
                victim = cache_set[victim_tag]
            else:
                victim_tag = -1
                victim_lru = None
                for tag_i, line_i in cache_set.items():
                    if victim_lru is None or line_i.lru < victim_lru:
                        victim_tag, victim_lru = tag_i, line_i.lru
                victim = cache_set[victim_tag]
            del cache_set[victim_tag]
            if victim.state is not LineState.INVALID:
                self.evictions += 1
                victim_block = victim_tag * self.num_sets + set_idx
                victim_info = (
                    victim_block * self.block_size, victim.state, victim.data
                )
        cache_set[tag] = CacheLine(tag, state, data, self._tick)
        return victim_info

    def set_state(self, addr: int, state: LineState) -> None:
        """Change the state of a resident line (line must be present)."""
        line = self.probe(addr)
        if line is None:
            raise KeyError(f"set_state on non-resident block {addr:#x}")
        line.state = state

    def invalidate(self, addr: int) -> Optional[Tuple[LineState, int]]:
        """Drop a block if present; returns its former (state, data)."""
        set_idx, tag = self._index(self.block_of(addr))
        cache_set = self._sets[set_idx]
        line = cache_set.get(tag)
        if line is None or line.state is LineState.INVALID:
            return None
        del cache_set[tag]
        self.invalidations += 1
        return line.state, line.data

    def clear(self) -> None:
        for cache_set in self._sets:
            cache_set.clear()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def resident_blocks(self) -> Iterator[Tuple[int, CacheLine]]:
        """Yield ``(block_start_addr, line)`` for every valid line."""
        for set_idx, cache_set in enumerate(self._sets):
            for tag, line in cache_set.items():
                if line.state is not LineState.INVALID:
                    block = tag * self.num_sets + set_idx
                    yield block * self.block_size, line

    def occupancy(self) -> int:
        """Number of occupied slots (valid and INVALID-state lines)."""
        return sum(len(s) for s in self._sets)

    def set_len(self, set_idx: int) -> int:
        return len(self._sets[set_idx])


def make_cache_array(
    size: int,
    block_size: int,
    assoc: int,
    name: str = "",
    replacement: str = "lru",
    seed: int = 0xCAE5A,
    model: Optional[str] = None,
) -> CacheArrayBase:
    """Build a cache array for the configured state model.

    ``model`` overrides the ``REPRO_STATE`` environment selection
    (``coded`` by default, ``obj`` for the reference kernel).
    """
    cls = CacheArrayObj if (model or state_model()) == "obj" else CacheArray
    return cls(size, block_size, assoc, name, replacement, seed)
