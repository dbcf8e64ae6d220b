"""Values of the repro IR: constants, virtual registers, globals, arguments.

The IR is a load/store, three-address, *non-SSA* representation built on
virtual registers.  Virtual registers may be assigned more than once (the
front end emits straight-line assignments for mutable C locals), which keeps
the representation simple while still allowing per-basic-block dataflow
graphs — the unit on which instruction-set extensions are identified — to be
extracted precisely.
"""

from __future__ import annotations

import struct
from typing import Optional

from .types import FloatType, IntType, PointerType, Type, I32, F32


class Value:
    """Anything that can appear as an operand of an instruction."""

    def __init__(self, type_: Type, name: str = "") -> None:
        self.type = type_
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return str(self)


class Constant(Value):
    """An immediate integer or floating-point constant."""

    def __init__(self, value, type_: Optional[Type] = None) -> None:
        if type_ is None:
            type_ = F32 if isinstance(value, float) else I32
        super().__init__(type_)
        if isinstance(type_, IntType):
            value = type_.wrap(int(value))
        elif isinstance(type_, FloatType):
            # Round-trip through binary32 so the IR sees the same rounding
            # behaviour the simulated hardware will.
            if type_.bits == 32:
                value = struct.unpack("<f", struct.pack("<f", float(value)))[0]
            else:
                value = float(value)
        self.value = value

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Constant)
            and other.type == self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((type(self), self.type, self.value))

    def __str__(self) -> str:
        return f"{self.value}:{self.type}"


class VirtualRegister(Value):
    """A compiler temporary.  Identified by a unique integer id."""

    _counter = 0

    def __init__(self, type_: Type, name: str = "") -> None:
        super().__init__(type_, name)
        VirtualRegister._counter += 1
        self.id = VirtualRegister._counter

    def __setstate__(self, state) -> None:
        # An unpickled register keeps its id (a module read back from a
        # disk store); fresh registers made later must not reuse it.
        self.__dict__.update(state)
        VirtualRegister._counter = max(VirtualRegister._counter, self.id)

    def __str__(self) -> str:
        if self.name:
            return f"%{self.name}.{self.id}"
        return f"%t{self.id}"

    def __hash__(self) -> int:
        return hash(self.id)

    def __eq__(self, other) -> bool:
        return isinstance(other, VirtualRegister) and other.id == self.id


class Argument(VirtualRegister):
    """A formal parameter of a function.  Behaves like a virtual register."""

    def __init__(self, type_: Type, name: str, index: int) -> None:
        super().__init__(type_, name)
        self.index = index

    def __str__(self) -> str:
        return f"%arg.{self.name}"


class GlobalVariable(Value):
    """A module-level variable.

    ``initializer`` is either ``None`` (zero-filled), a list of numbers
    (array contents) or a single number.  Its address is not part of the
    IR: :func:`repro.sim.memory.global_layout` places it.
    """

    def __init__(self, name: str, type_: Type, initializer=None) -> None:
        super().__init__(PointerType(type_), name)
        self.value_type = type_
        self.initializer = initializer

    def __str__(self) -> str:
        return f"@{self.name}"


class UndefValue(Value):
    """A value with unspecified contents (used for uninitialised locals)."""

    def __str__(self) -> str:
        return f"undef:{self.type}"
