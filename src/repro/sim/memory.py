"""Byte-addressed simulated memory shared by the functional and cycle simulators."""

from __future__ import annotations

import ctypes
import struct
from typing import Dict, List, Optional, Sequence

from ..ir import ArrayType, FloatType, IntType, Module, PointerType, Type


class MemoryError_(Exception):
    """Raised for out-of-range or misaligned simulated memory accesses."""


#: precompiled little-endian codecs of the full-width scalar types.
_SIGNED = {8: struct.Struct("<b"), 16: struct.Struct("<h"),
           32: struct.Struct("<i"), 64: struct.Struct("<q")}
_UNSIGNED = {8: struct.Struct("<B"), 16: struct.Struct("<H"),
             32: struct.Struct("<I"), 64: struct.Struct("<Q")}
_FLOATS = {32: struct.Struct("<f"), 64: struct.Struct("<d")}
_POINTER = _UNSIGNED[32]


class Memory:
    """A flat little-endian byte-addressed memory.

    Address zero is intentionally left unmapped (a 64-byte guard region) so
    that null-pointer dereferences in kernel code fail loudly instead of
    silently reading zeros.
    """

    GUARD = 64

    def __init__(self, size: int = 1 << 20) -> None:
        self.size = size
        self.data = bytearray(size)
        self._next_free = self.GUARD

    def reset(self) -> None:
        """Zero every byte in place and rewind the allocator.

        ``memset`` through a temporary ctypes view takes about 30 us per
        MiB; ``data[:] = bytes(size)`` takes about 0.8 ms.
        """
        ctypes.memset((ctypes.c_char * self.size).from_buffer(self.data),
                      0, self.size)
        self._next_free = self.GUARD

    # ------------------------------------------------------------------
    # Allocation.
    # ------------------------------------------------------------------
    def allocate(self, nbytes: int, alignment: int = 4) -> int:
        """Bump-allocate ``nbytes`` with the requested alignment."""
        if nbytes < 0:
            raise MemoryError_("cannot allocate a negative size")
        address = (self._next_free + alignment - 1) // alignment * alignment
        if address + nbytes > self.size:
            raise MemoryError_(
                f"out of simulated memory: need {nbytes} bytes at {address}"
            )
        self._next_free = address + nbytes
        return address

    @property
    def bytes_allocated(self) -> int:
        return self._next_free - self.GUARD

    # ------------------------------------------------------------------
    # Scalar access.
    # ------------------------------------------------------------------
    def _check(self, address: int, nbytes: int) -> None:
        if address < self.GUARD or address + nbytes > self.size:
            raise MemoryError_(f"access of {nbytes} bytes at {address} is out of range")

    def load(self, address: int, type_: Type) -> int | float:
        """Load a scalar of ``type_`` from ``address``."""
        # Full-width scalars take one precompiled unpack; the byte-wise
        # path below computes the same value.
        cls = type_.__class__
        if cls is IntType:
            unpacker = (_SIGNED if type_.signed else _UNSIGNED).get(type_.bits)
        elif cls is PointerType:
            unpacker = _POINTER
        elif cls is FloatType:
            unpacker = _FLOATS.get(type_.bits)
        else:
            unpacker = None
        if unpacker is not None:
            if address < self.GUARD or address + unpacker.size > self.size:
                raise MemoryError_(f"access of {unpacker.size} bytes at "
                                   f"{address} is out of range")
            return unpacker.unpack_from(self.data, address)[0]
        nbytes = max(1, type_.size)
        self._check(address, nbytes)
        raw = bytes(self.data[address:address + nbytes])
        if isinstance(type_, FloatType):
            return struct.unpack("<f" if type_.bits == 32 else "<d", raw)[0]
        value = int.from_bytes(raw, "little", signed=False)
        if isinstance(type_, IntType):
            return type_.wrap(value)
        return value  # pointers behave as unsigned 32-bit

    def store(self, address: int, value: int | float, type_: Type) -> None:
        """Store a scalar of ``type_`` to ``address``."""
        nbytes = max(1, type_.size)
        self._check(address, nbytes)
        if isinstance(type_, FloatType):
            raw = struct.pack("<f" if type_.bits == 32 else "<d", float(value))
        else:
            width_bits = 8 * nbytes
            masked = int(value) & ((1 << width_bits) - 1)
            raw = masked.to_bytes(nbytes, "little", signed=False)
        self.data[address:address + nbytes] = raw

    # ------------------------------------------------------------------
    # Bulk access (arrays).
    # ------------------------------------------------------------------

    #: struct codes for full-width integer elements (bulk fast path).
    _INT_CODES = {(8, True): "b", (8, False): "B", (16, True): "h",
                  (16, False): "H", (32, True): "i", (32, False): "I",
                  (64, True): "q", (64, False): "Q"}

    def _bulk_code(self, element: Type) -> Optional[str]:
        """One-element struct code when the scalar path is pure pack/unpack."""
        if isinstance(element, FloatType) and element.bits in (32, 64):
            return "f" if element.bits == 32 else "d"
        if (isinstance(element, IntType)
                and element.bits == 8 * element.size):
            return self._INT_CODES.get((element.bits, element.signed))
        if isinstance(element, PointerType):
            return "I"
        return None

    def write_array(self, address: int, values: Sequence, element: Type) -> None:
        code = self._bulk_code(element)
        if code and len(values) > 1:
            nbytes = element.size
            total = nbytes * len(values)
            self._check(address, total)
            if code in ("f", "d"):
                packed = [float(v) for v in values]
            else:
                # store() masks to the element width, so out-of-range ints
                # wrap instead of raising in struct.pack.
                mask = (1 << 8 * nbytes) - 1
                half = (mask + 1) >> 1 if code.islower() else 0
                packed = [((int(v) & mask) ^ half) - half for v in values]
            self.data[address:address + total] = struct.pack(
                f"<{len(values)}{code}", *packed)
            return
        for i, value in enumerate(values):
            self.store(address + i * element.size, value, element)

    def read_array(self, address: int, count: int, element: Type) -> List:
        code = self._bulk_code(element)
        if code and count > 1:
            nbytes = element.size
            total = nbytes * count
            self._check(address, total)
            return list(struct.unpack(
                f"<{count}{code}", bytes(self.data[address:address + total])))
        return [self.load(address + i * element.size, element) for i in range(count)]


class ProgramImage:
    """A module loaded into memory: global addresses plus the memory itself."""

    def __init__(self, module: Module, memory: Optional[Memory] = None) -> None:
        self.module = module
        self.memory = memory or Memory()
        self.global_addresses: Dict[str, int] = {}
        self._load_globals()

    def reset(self) -> None:
        """Zero the memory and lay the globals out again, as on load."""
        self.memory.reset()
        self.global_addresses.clear()
        self._load_globals()

    def _load_globals(self) -> None:
        for name, gvar in self.module.globals.items():
            vtype = gvar.value_type
            if isinstance(vtype, ArrayType):
                address = self.memory.allocate(max(4, vtype.size), vtype.alignment)
                if gvar.initializer:
                    self.memory.write_array(address, gvar.initializer, vtype.element)
            else:
                address = self.memory.allocate(max(4, vtype.size), vtype.alignment)
                if gvar.initializer is not None:
                    self.memory.store(address, gvar.initializer, vtype)
            gvar.address = address
            self.global_addresses[name] = address

    def address_of(self, name: str) -> int:
        return self.global_addresses[name]
