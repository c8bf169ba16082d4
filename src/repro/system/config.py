"""System configuration (the knobs of the paper's Table 2).

Defaults describe the paper's base 16-node system: 200 MHz processors
with 16 KB L1 / 128 KB L2, full-map MSI directory, release consistency
with an 8-entry write buffer, a 4-stage wormhole BMIN of 4x4 switches
(4-cycle switch, 4 cycles/flit on 16-bit links), and a 40-cycle memory
that costs >50 cycles end to end.  Switch caches and network caches are
disabled by default; presets in :mod:`repro.system.presets` turn them on.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Set

from ..errors import ConfigError

KB = 1024


@dataclasses.dataclass
class SystemConfig:
    """Every parameter of one simulated machine."""

    # machine shape
    num_nodes: int = 16
    procs_per_node: int = 1  # >1 = bus-based clusters (DASH-style [14])
    block_size: int = 64

    # processor caches
    l1_size: int = 16 * KB
    l1_assoc: int = 2
    l1_hit_cycles: int = 1
    l2_size: int = 128 * KB
    l2_assoc: int = 4
    l2_hit_cycles: int = 10
    l2_write_cycles: int = 3
    write_buffer_entries: int = 8

    # memory subsystem
    memory_access_cycles: int = 40
    memory_bus_cycles: int = 6
    local_bus_cycles: int = 2

    # interconnect (Cavallino/Spider parameters)
    switch_delay: int = 4
    cycles_per_flit: int = 4
    # 'message' = fast per-hop pipelined model (default); 'flit' = the
    # flit-accurate wormhole reference (slower; used for validation)
    network_model: str = "message"

    # switch cache (CAESAR); size 0 disables
    switch_cache_size: int = 0
    switch_cache_assoc: int = 2
    switch_cache_banks: int = 1
    switch_cache_width_bits: int = 64
    switch_cache_bypass_threshold: int = 4
    switch_cache_deposit_threshold: int = 16
    switch_cache_stages: Optional[Set[int]] = None  # None = all stages
    switch_cache_replacement: str = "lru"  # 'lru' | 'fifo' | 'random'

    # network cache (remote data cache); size 0 disables
    netcache_size: int = 0
    netcache_assoc: int = 4
    netcache_access_cycles: int = 12

    # coherence protocol: the paper's MSI, or the MESI extension (adds a
    # clean-exclusive state with silent E->M upgrade and replacement
    # notifications so the directory's owner tracking stays exact)
    protocol: str = "msi"

    # synchronization idealizations (see DESIGN.md substitutions)
    barrier_wakeup_cycles: int = 120
    lock_handoff_cycles: int = 80

    # simulation controls
    quantum: int = 500
    trace_values: bool = False

    def __post_init__(self) -> None:
        if self.num_nodes < 2 or self.num_nodes & (self.num_nodes - 1):
            raise ConfigError(
                f"num_nodes must be a power of two >= 2, got {self.num_nodes}"
            )
        if self.block_size < 8 or self.block_size & (self.block_size - 1):
            # caches and write buffers index blocks by mask and shift
            raise ConfigError(f"block_size must be a power of two >= the "
                              f"8-byte flit, got {self.block_size}")
        if self.switch_cache_size < 0 or self.netcache_size < 0:
            raise ConfigError("cache sizes must be non-negative")
        if self.quantum < 1:
            raise ConfigError("quantum must be positive")
        if self.procs_per_node < 1:
            raise ConfigError("procs_per_node must be >= 1")
        if self.write_buffer_entries < 1:
            # a store retires only through a buffer slot: with none, the
            # first write stalls its processor forever
            raise ConfigError(
                f"write_buffer_entries must be >= 1, got "
                f"{self.write_buffer_entries}"
            )
        if self.protocol not in ("msi", "mesi"):
            raise ConfigError(f"protocol must be 'msi' or 'mesi', got {self.protocol!r}")
        if self.switch_cache_replacement not in ("lru", "fifo", "random"):
            raise ConfigError(
                f"bad switch_cache_replacement {self.switch_cache_replacement!r}"
            )
        if self.network_model not in ("message", "flit"):
            raise ConfigError(f"bad network_model {self.network_model!r}")


    # convenience
    @property
    def switch_caches_enabled(self) -> bool:
        return self.switch_cache_size > 0

    @property
    def netcache_enabled(self) -> bool:
        return self.netcache_size > 0

    def label(self) -> str:
        if self.switch_caches_enabled:
            kind = "CAESAR+" if self.switch_cache_banks > 1 else "CAESAR"
            return f"SC-{kind}-{self.switch_cache_size}B"
        if self.netcache_enabled:
            return f"NC-{self.netcache_size // KB}KB"
        return "base"

    def replaced(self, **changes) -> "SystemConfig":
        """A copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)
