"""Tests for SystemConfig validation and the canonical presets."""

import pytest

from repro.errors import ConfigError
from repro.system.config import KB, SystemConfig
from repro.system.presets import (
    base_config,
    caesar_plus_config,
    netcache_config,
    switch_cache_config,
)


class TestValidation:
    def test_defaults_match_paper_table2(self):
        cfg = SystemConfig()
        assert cfg.num_nodes == 16
        assert cfg.l1_size == 16 * KB
        assert cfg.l2_size == 128 * KB
        assert cfg.memory_access_cycles == 40
        assert cfg.memory_access_cycles + 2 * cfg.memory_bus_cycles > 50
        assert cfg.switch_delay == 4
        assert cfg.cycles_per_flit == 4
        assert cfg.write_buffer_entries == 8

    @pytest.mark.parametrize("n", [0, 1, 3, 6])
    def test_bad_node_counts(self, n):
        with pytest.raises(ConfigError):
            SystemConfig(num_nodes=n)

    def test_block_must_be_flit_multiple(self):
        with pytest.raises(ConfigError):
            SystemConfig(block_size=20)

    @pytest.mark.parametrize("block", [0, 24, 96])
    def test_block_must_be_power_of_two(self, block):
        # 96 passed the flit check, then Machine() failed in the cache
        # array; the config itself must refuse it
        with pytest.raises(ConfigError, match="power of two"):
            SystemConfig(block_size=block)

    @pytest.mark.parametrize("block", [8, 32, 128])
    def test_power_of_two_blocks_build(self, block):
        from repro.system.machine import Machine

        Machine(base_config(2, block_size=block), sanitize=False)

    def test_negative_cache_sizes_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(switch_cache_size=-1)
        with pytest.raises(ConfigError):
            SystemConfig(netcache_size=-1)

    @pytest.mark.parametrize("entries", [0, -1])
    def test_write_buffer_needs_an_entry(self, entries):
        # a zero-entry buffer was accepted and then deadlocked the run
        with pytest.raises(ConfigError):
            SystemConfig(write_buffer_entries=entries)

    def test_quantum_positive(self):
        with pytest.raises(ConfigError):
            SystemConfig(quantum=0)

    def test_replaced_creates_modified_copy(self):
        cfg = SystemConfig()
        other = cfg.replaced(switch_cache_size=512)
        assert other.switch_cache_size == 512
        assert cfg.switch_cache_size == 0


class TestPresets:
    def test_base_has_no_extra_caches(self):
        cfg = base_config()
        assert not cfg.switch_caches_enabled
        assert not cfg.netcache_enabled
        assert cfg.label() == "base"

    def test_netcache_preset(self):
        cfg = netcache_config()
        assert cfg.netcache_enabled
        assert cfg.label().startswith("NC-")

    def test_switch_cache_preset(self):
        cfg = switch_cache_config(size=512)
        assert cfg.switch_caches_enabled
        assert cfg.switch_cache_size == 512
        assert "CAESAR-512B" in cfg.label()

    def test_caesar_plus_preset(self):
        cfg = caesar_plus_config()
        assert cfg.switch_cache_banks == 2
        assert "CAESAR+" in cfg.label()

    def test_presets_accept_overrides(self):
        cfg = switch_cache_config(size=1024, num_nodes=4, quantum=50)
        assert cfg.num_nodes == 4
        assert cfg.quantum == 50

    def test_stage_restriction_passthrough(self):
        cfg = switch_cache_config(stages={2, 3})
        assert cfg.switch_cache_stages == {2, 3}
