"""What each IR operation computes.

The one definition of operation values that the threaded-code translator
(and with it the compiled engine, the cycle simulator and trace capture),
the constant folder, custom-op patterns (:meth:`repro.core.patterns.
Pattern.evaluate`) and argument lowering share.  The reference
interpreter (:mod:`repro.sim.functional`) keeps its own handlers on
purpose: it is the independent oracle this table is tested against, and
the native engine's C renderer mirrors it separately.

- :data:`BINARY` and :data:`UNARY` map an opcode to a Python function of
  its operand values; :func:`select` is SELECT's.  The functions compute
  the unwrapped result: integers are Python ints of any size.
- :func:`wrapper` gives the register-write wrap of a destination type:
  integers wrap to their width, f32 rounds, pointers are 32-bit.
- A division by zero raises :class:`SimulationError`, with the message
  every engine reports.
"""

from __future__ import annotations

import operator
import struct
from typing import Callable, Dict

from .instructions import Opcode
from .types import FloatType, IntType, PointerType, Type


class SimulationError(Exception):
    """Raised when the simulated program performs an illegal operation."""


def _div(a, b):
    if b == 0:
        raise SimulationError("integer division by zero")
    quotient = abs(a) // abs(b)
    return quotient if (a >= 0) == (b >= 0) else -quotient


def _rem(a, b):
    if b == 0:
        raise SimulationError("integer remainder by zero")
    quotient = abs(a) // abs(b)
    signed_q = quotient if (a >= 0) == (b >= 0) else -quotient
    return a - signed_q * b


def _fdiv(a, b):
    if b == 0:
        raise SimulationError("floating division by zero")
    return a / b


#: opcode -> function of the two operand values.
BINARY: Dict[Opcode, Callable] = {
    Opcode.ADD: operator.add,
    Opcode.SUB: operator.sub,
    Opcode.MUL: operator.mul,
    Opcode.DIV: _div,
    Opcode.REM: _rem,
    Opcode.AND: operator.and_,
    Opcode.OR: operator.or_,
    Opcode.XOR: operator.xor,
    Opcode.SHL: lambda a, b: a << (b & 31),
    Opcode.SHR: lambda a, b: (a & 0xFFFFFFFF) >> (b & 31),
    Opcode.SAR: lambda a, b: a >> (b & 31),
    Opcode.MIN: lambda a, b: min(a, b),
    Opcode.MAX: lambda a, b: max(a, b),
    Opcode.FADD: operator.add,
    Opcode.FSUB: operator.sub,
    Opcode.FMUL: operator.mul,
    Opcode.FDIV: _fdiv,
    Opcode.CMPEQ: lambda a, b: int(a == b),
    Opcode.FCMPEQ: lambda a, b: int(a == b),
    Opcode.CMPNE: lambda a, b: int(a != b),
    Opcode.CMPLT: lambda a, b: int(a < b),
    Opcode.FCMPLT: lambda a, b: int(a < b),
    Opcode.CMPLE: lambda a, b: int(a <= b),
    Opcode.FCMPLE: lambda a, b: int(a <= b),
    Opcode.CMPGT: lambda a, b: int(a > b),
    Opcode.CMPGE: lambda a, b: int(a >= b),
}

#: opcode -> function of the one operand value.
UNARY: Dict[Opcode, Callable] = {
    Opcode.MOV: lambda a: a,
    Opcode.ABS: abs,
    Opcode.NEG: operator.neg,
    Opcode.NOT: operator.invert,
    Opcode.FNEG: operator.neg,
    Opcode.SEXT: lambda a: a,
    Opcode.ZEXT: lambda a: a,
    Opcode.TRUNC: lambda a: a,
    Opcode.ITOF: float,
    Opcode.FTOI: int,
}


def select(condition, if_true, if_false):
    """SELECT: ``if_true`` when ``condition`` is nonzero, else ``if_false``."""
    return if_true if condition else if_false


_F32 = struct.Struct("<f")


def wrapper(type_: Type) -> Callable:
    """The function that wraps a value written to a register of ``type_``."""
    if isinstance(type_, IntType):
        # The int() coercion matters: a float landing in an int
        # destination truncates.
        mask = (1 << type_.bits) - 1
        if type_.signed:
            sign_bit = 1 << (type_.bits - 1)
            excess = 1 << type_.bits
            def wrap_sint(value):
                value = int(value) & mask
                return value - excess if value >= sign_bit else value
            return wrap_sint
        def wrap_uint(value):
            return int(value) & mask
        return wrap_uint
    if isinstance(type_, FloatType):
        if type_.bits == 32:
            def wrap_f32(value):
                return _F32.unpack(_F32.pack(float(value)))[0]
            return wrap_f32
        return float
    if isinstance(type_, PointerType):
        def wrap_ptr(value):
            return int(value) & 0xFFFFFFFF
        return wrap_ptr
    def wrap_id(value):
        return value
    return wrap_id
