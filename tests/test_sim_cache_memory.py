"""Direct unit tests for the cache model and the simulated memory.

These two modules underpin every timing and correctness result in the
repo (the cycle simulator charges stall cycles from ``sim/cache.py``;
both functional engines read and write through ``sim/memory.py``), but
until now they were only exercised indirectly.  The tests pin down
hit/miss accounting, LRU replacement, stride behaviour, the guard
region, alignment and typed round-trips.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.arch.machine import CacheConfig, MachineConfigError
from repro.frontend import compile_c
from repro.ir.types import F32, F64, I1, I8, I16, I32, I64, IntType, PointerType
from repro.sim import Cache, Memory, ProgramImage, make_cache
from repro.sim.memory import MemoryError_


def small_cache(associativity: int = 2) -> Cache:
    # 4 sets x 32-byte lines x `associativity` ways.
    return Cache(CacheConfig(size_bytes=128 * associativity, line_bytes=32,
                             associativity=associativity, hit_latency=1,
                             miss_penalty=10))


class TestCacheAccounting:
    def test_first_touch_misses_then_hits(self):
        cache = small_cache()
        assert cache.access(0x100) == 1 + 10      # cold miss
        assert cache.access(0x100) == 1           # same address hits
        assert cache.access(0x11F) == 1           # same 32-byte line hits
        assert cache.stats.accesses == 3
        assert cache.stats.misses == 1
        assert cache.stats.hits == 2
        assert cache.stats.miss_rate == pytest.approx(1 / 3)

    def test_sequential_stride_one_line_per_miss(self):
        cache = small_cache()
        for address in range(0, 4 * 32, 4):       # 4 lines, word stride
            cache.access(address)
        assert cache.stats.accesses == 32
        assert cache.stats.misses == 4            # one cold miss per line

    def test_line_stride_misses_every_access_when_cold(self):
        cache = small_cache()
        for line in range(4):
            cache.access(line * 32)
        assert cache.stats.misses == 4
        for line in range(4):                     # working set fits: all hit
            cache.access(line * 32)
        assert cache.stats.misses == 4

    def test_lru_eviction_order(self):
        cache = small_cache(associativity=2)
        sets = cache.num_sets
        a, b, c = 0, sets * 32, 2 * sets * 32     # three tags, same set
        cache.access(a)
        cache.access(b)
        cache.access(a)                           # a is now most recent
        cache.access(c)                           # evicts b (LRU), not a
        assert cache.access(a) == 1               # hit
        assert cache.access(b) == 11              # miss: was evicted

    def test_direct_mapped_conflict_thrash(self):
        cache = small_cache(associativity=1)
        sets = cache.num_sets
        a, b = 0, sets * 32                       # same set, different tags
        for _ in range(4):
            cache.access(a)
            cache.access(b)
        assert cache.stats.misses == 8            # every access evicts the other

    def test_associativity_absorbs_the_same_conflict(self):
        cache = small_cache(associativity=2)
        sets = cache.num_sets
        a, b = 0, sets * 32
        for _ in range(4):
            cache.access(a)
            cache.access(b)
        assert cache.stats.misses == 2            # only the two cold misses

    def test_reset_statistics(self):
        cache = small_cache()
        cache.access(0x40)
        cache.reset_statistics()
        assert cache.stats.accesses == 0
        assert cache.stats.misses == 0
        assert cache.stats.miss_rate == 0.0
        assert cache.access(0x40) == 1            # contents survived the reset

    def test_make_cache_none_for_uncached_machines(self):
        assert make_cache(None) is None
        assert isinstance(make_cache(CacheConfig()), Cache)

    def test_config_must_tile(self):
        with pytest.raises(MachineConfigError):
            CacheConfig(size_bytes=100, line_bytes=32, associativity=2)


    @pytest.mark.parametrize("associativity", [1, 2, 4])
    def test_batched_line_access_matches_single_accesses(self, associativity):
        rng = random.Random(associativity)
        single, batched = small_cache(associativity), small_cache(associativity)
        for _ in range(200):
            burst = [rng.choice((0, 32, 64, 512, 4096)) + rng.randrange(0, 96)
                     for _ in range(rng.randint(1, 6))]
            for address in burst:
                single.access(address)
            batched.access_lines([batched.line(a) for a in burst])
            assert single.stats == batched.stats
            assert single._sets == batched._sets


class TestMemory:
    @pytest.mark.parametrize("type_", [
        I1, I8, I16, I32, I64, IntType(8, signed=False),
        IntType(16, signed=False), IntType(32, signed=False),
        IntType(64, signed=False), F32, F64, PointerType(I32)])
    def test_scalar_load_decodes_little_endian_bytes(self, type_):
        memory = Memory(size=256)
        rng = random.Random(str(type_))
        for _ in range(50):
            address = rng.randrange(Memory.GUARD, 256 - 8)
            raw = bytes(rng.randrange(256) for _ in range(max(1, type_.size)))
            memory.data[address:address + len(raw)] = raw
            if type_.is_float():
                expected = struct.unpack("<f" if type_.bits == 32 else "<d",
                                         raw)[0]
                loaded = memory.load(address, type_)
                assert loaded == expected or (loaded != loaded
                                              and expected != expected)
                continue
            expected = int.from_bytes(raw, "little")
            if isinstance(type_, IntType):
                expected = type_.wrap(expected)
            assert memory.load(address, type_) == expected
        size = max(1, type_.size)
        for address in (Memory.GUARD - 1, 256 - size + 1, -size):
            with pytest.raises(MemoryError_) as excinfo:
                memory.load(address, type_)
            assert str(excinfo.value) == (
                f"access of {size} bytes at {address} is out of range")

    def test_allocate_is_aligned_and_monotonic(self):
        memory = Memory()
        first = memory.allocate(5, alignment=8)
        second = memory.allocate(3, alignment=8)
        assert first % 8 == 0 and second % 8 == 0
        assert second >= first + 5
        assert memory.bytes_allocated >= 8

    def test_guard_region_rejects_null_ish_accesses(self):
        memory = Memory()
        with pytest.raises(MemoryError_):
            memory.load(0, I32)
        with pytest.raises(MemoryError_):
            memory.store(Memory.GUARD - 4, 1, I32)

    def test_out_of_range_and_negative_allocation(self):
        memory = Memory(size=1 << 10)
        with pytest.raises(MemoryError_):
            memory.load(memory.size - 2, I32)
        with pytest.raises(MemoryError_):
            memory.allocate(-1)
        with pytest.raises(MemoryError_):
            memory.allocate(memory.size)

    def test_signed_round_trips_wrap_per_type(self):
        memory = Memory()
        address = memory.allocate(16)
        memory.store(address, -1, I8)
        assert memory.load(address, I8) == -1
        memory.store(address, 200, I8)            # wraps to -56 as signed char
        assert memory.load(address, I8) == -56
        memory.store(address, 40_000, I16)
        assert memory.load(address, I16) == 40_000 - 65_536
        memory.store(address, -(2**31), I32)
        assert memory.load(address, I32) == -(2**31)

    def test_unsigned_types_do_not_sign_extend(self):
        memory = Memory()
        address = memory.allocate(4)
        u8 = IntType(8, signed=False)
        memory.store(address, 200, u8)
        assert memory.load(address, u8) == 200

    def test_float_round_trip_is_f32_precise(self):
        memory = Memory()
        address = memory.allocate(4)
        memory.store(address, 1.5, F32)
        assert memory.load(address, F32) == 1.5
        memory.store(address, 0.1, F32)           # not representable exactly
        assert memory.load(address, F32) == pytest.approx(0.1, rel=1e-6)

    def test_write_array_strides_by_element_size(self):
        memory = Memory()
        address = memory.allocate(2 * 8)
        values = [1, -2, 300, -400, 5, -6, 7, -8]
        memory.write_array(address, values, I16)
        assert memory.read_array(address, len(values), I16) == values
        # The I16 array occupies exactly 2 bytes per element.
        tail = memory.load(address + 2 * (len(values) - 1), I16)
        assert tail == values[-1]

    def test_little_endian_layout(self):
        memory = Memory()
        address = memory.allocate(4)
        memory.store(address, 0x01020304, I32)
        assert memory.load(address, I8) == 0x04   # low byte first


class TestProgramImage:
    def test_globals_loaded_with_initializers(self):
        module = compile_c("""
int table[4] = {10, 20, 30, 40};
int scale = 7;
int f(int i) { return table[i & 3] * scale; }
""")
        image = ProgramImage(module)
        address = image.address_of("table")
        assert image.memory.read_array(address, 4, I32) == [10, 20, 30, 40]
        assert image.memory.load(image.address_of("scale"), I32) == 7
        assert address >= Memory.GUARD
