"""Byte-addressed simulated memory and the one program layout.

Every engine (interpreter, compiled, native, cycle, trace capture) loads
a program through :class:`ProgramImage`, and the code generators read
the same :func:`global_layout`, so an address means the same thing on
each of them.

A :class:`Memory` is a private anonymous mapping: its pages read as zero
until first written, so building one costs no zero-fill and a run keeps
resident only the pages it touches.
"""

from __future__ import annotations

import ctypes
import mmap
import struct
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir import (
    I32, ArrayType, FloatType, IntType, Module, PointerType, Type,
)
from ..ir.semantics import wrapper


class MemoryError_(Exception):
    """Raised for out-of-range or misaligned simulated memory accesses."""


#: precompiled little-endian codecs of the full-width scalar types.
_SIGNED = {8: struct.Struct("<b"), 16: struct.Struct("<h"),
           32: struct.Struct("<i"), 64: struct.Struct("<q")}
_UNSIGNED = {8: struct.Struct("<B"), 16: struct.Struct("<H"),
             32: struct.Struct("<I"), 64: struct.Struct("<Q")}
_FLOATS = {32: struct.Struct("<f"), 64: struct.Struct("<d")}
_POINTER = _UNSIGNED[32]


#: Linux refills private anonymous pages dropped by ``MADV_DONTNEED``
#: with zeros; other systems may keep their contents.
_DROPPED_PAGES_READ_ZERO = sys.platform.startswith("linux")


class Memory:
    """A flat little-endian byte-addressed memory.

    Address zero is intentionally left unmapped (a 64-byte guard region) so
    that null-pointer dereferences in kernel code fail loudly instead of
    silently reading zeros.
    """

    GUARD = 64

    def __init__(self, size: int = 1 << 20) -> None:
        self.size = size
        self.data = mmap.mmap(-1, size,
                              flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        self._next_free = self.GUARD

    def reset(self) -> None:
        """Zero every byte in place and rewind the allocator.

        The mapping (and any buffer view of it) stays where it is.  On
        Linux the written pages are dropped and read as zero again, a
        few microseconds per reset; elsewhere ``memset`` through a
        temporary ctypes view writes the zeros (about 30 us per MiB).
        """
        if _DROPPED_PAGES_READ_ZERO:
            self.data.madvise(mmap.MADV_DONTNEED)
        else:
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
            layout = f"<{len(values)}{code}"
            try:
                # Numbers the element type holds as they are pack directly.
                raw = struct.pack(layout, *values)
            except struct.error:
                if code in ("f", "d"):
                    packed = [float(v) for v in values]
                else:
                    # store() masks to the element width, so out-of-range
                    # ints wrap instead of raising in struct.pack.
                    mask = (1 << 8 * nbytes) - 1
                    half = (mask + 1) >> 1 if code.islower() else 0
                    packed = [((int(v) & mask) ^ half) - half for v in values]
                raw = struct.pack(layout, *packed)
            self.data[address:address + total] = raw
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


#: the spill area every engine reserves right after the globals (size,
#: alignment); the cycle simulator's spill traffic probes its d-cache there.
SPILL_AREA_BYTES = 4096
SPILL_AREA_ALIGN = 16


def global_layout(module: Module) -> Tuple[Dict[str, int], int]:
    """Where ``module``'s globals live: name -> address, in declaration
    order from :attr:`Memory.GUARD`, and the first address after them.

    This is the one layout of a program's data: simulators load it, the
    translator, the C renderer and the binary encoder bake its addresses
    into code.
    """
    addresses: Dict[str, int] = {}
    cursor = Memory.GUARD
    for name, gvar in module.globals.items():
        vtype = gvar.value_type
        alignment = vtype.alignment
        address = (cursor + alignment - 1) // alignment * alignment
        addresses[name] = address
        cursor = address + max(4, vtype.size)
    return addresses, cursor


class ProgramImage:
    """A module loaded into memory, laid out the same for every engine.

    From the bottom up: the guard, the globals at :func:`global_layout`'s
    addresses, the spill area (``spill_area``), then, from ``first_free``,
    the arguments :meth:`lower` copies in and the run's ALLOCAs.
    """

    def __init__(self, module: Module, memory: Optional[Memory] = None) -> None:
        self.module = module
        self.memory = memory or Memory()
        self.global_addresses, self._globals_end = global_layout(module)
        self._load()

    def reset(self) -> None:
        """Zero the memory and load the program again, as on construction."""
        self.memory.reset()
        self._load()

    def _load(self) -> None:
        memory = self.memory
        memory.allocate(self._globals_end - Memory.GUARD, 1)
        for name, gvar in self.module.globals.items():
            if isinstance(gvar.value_type, ArrayType):
                if gvar.initializer:
                    memory.write_array(self.global_addresses[name],
                                       gvar.initializer,
                                       gvar.value_type.element)
            elif gvar.initializer is not None:
                memory.store(self.global_addresses[name], gvar.initializer,
                             gvar.value_type)
        self.spill_area = memory.allocate(SPILL_AREA_BYTES, SPILL_AREA_ALIGN)
        self.first_free = self.spill_area + SPILL_AREA_BYTES

    def address_of(self, name: str) -> int:
        return self.global_addresses[name]

    def lower(self, types: Sequence[Type], args: Sequence,
              copy_back: bool = True) -> Tuple[List, List]:
        """Pass Python ``args`` to formals of ``types``.

        Numbers are passed by value, wrapped to the formal's type.  Lists
        and tuples are copied into memory (as the pointee of a pointer
        formal, else as ``i32``) and passed as their address.  Returns the
        lowered values and the write-backs :meth:`write_back` applies
        after the call: one per list, unless ``copy_back`` is False.
        """
        lowered: List = []
        writebacks: List = []
        for formal, actual in zip(types, args):
            if isinstance(actual, (list, tuple)):
                element = I32
                if isinstance(formal, PointerType) and formal.pointee is not None:
                    element = formal.pointee
                address = self.memory.allocate(
                    max(4, element.size * len(actual)), element.alignment)
                self.memory.write_array(address, list(actual), element)
                lowered.append(address)
                if copy_back and isinstance(actual, list):
                    writebacks.append((actual, address, element))
            else:
                lowered.append(wrapper(formal)(actual))
        return lowered, writebacks

    def write_back(self, writebacks: List) -> None:
        """Copy each lowered list's final contents back into it."""
        for target, address, element in writebacks:
            target[:] = self.memory.read_array(address, len(target), element)
