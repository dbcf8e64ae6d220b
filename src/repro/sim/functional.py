"""Functional (reference) simulator: executes IR directly.

This is the semantic oracle of the whole toolchain: the cycle simulator,
the binary translator and every optimization and customization pass are
validated against it (the "fast and accurate simulation of everything"
discipline of §3.1).  Its opcode handlers and register-write wrap are
written out here on purpose, apart from the shared table of
:mod:`repro.ir.semantics` that the other engines, the constant folder and
custom-op patterns read, so that the two can be checked against each
other.  It also doubles as the statistical profiler — block execution
counts collected here drive the ISE selector's benefit estimates.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from ..ir import (
    Constant, Function, GlobalVariable, IntType, Module, Opcode, PointerType,
    UndefValue, VirtualRegister,
)
from ..ir.semantics import SimulationError
from ..ir.types import FloatType, I32, Type
from .memory import Memory, ProgramImage


#: the deepest chain of active calls, the entry function included, that
#: every functional and cycle engine runs.  The Python engines spend two
#: or three interpreter frames per simulated call, so the limit stays well
#: inside Python's recursion limit even from a deep caller's stack, and the
#: native engine traps at the same depth instead of overflowing its stack.
MAX_CALL_DEPTH = 128

#: the message of the :class:`SimulationError` one call past the limit.
CALL_DEPTH_MESSAGE = "maximum call depth exceeded"


@dataclass
class ExecutionProfile:
    """Dynamic statistics of one functional-simulation run."""

    instructions_executed: int = 0
    opcode_counts: Dict[str, int] = field(default_factory=dict)
    block_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    call_counts: Dict[str, int] = field(default_factory=dict)
    loads: int = 0
    stores: int = 0
    branches: int = 0
    taken_branches: int = 0

    def record_block(self, function_name: str, block_name: str) -> None:
        per_function = self.block_counts.setdefault(function_name, {})
        per_function[block_name] = per_function.get(block_name, 0) + 1

    def apply_to_module(self, module: Module) -> None:
        """Write measured block frequencies back onto the IR.

        This replaces the static loop-nesting estimates with a measured
        profile ("statistical profiling" in the paper's list of post-
        distribution techniques); the ISE selector then weighs candidate
        savings with real execution counts.
        """
        for function in module.functions.values():
            counts = self.block_counts.get(function.name)
            if not counts:
                continue
            for block in function.blocks:
                block.frequency = float(counts.get(block.name, 0))


_F32 = struct.Struct("<f")


def _wrapper(type_: Type) -> Callable:
    """The function that wraps a value written to a register of
    ``type_``: integers wrap to the width, f32 rounds, pointers are 32-bit."""
    if isinstance(type_, IntType):
        mask = (1 << type_.bits) - 1
        if type_.signed:
            half = 1 << (type_.bits - 1)
            return lambda value: ((int(value) + half) & mask) - half
        return lambda value: int(value) & mask
    if isinstance(type_, FloatType):
        if type_.bits == 32:
            return lambda value: _F32.unpack(_F32.pack(float(value)))[0]
        return float
    if isinstance(type_, PointerType):
        return lambda value: int(value) & 0xFFFFFFFF
    return lambda value: value


# ----------------------------------------------------------------------
# Opcode handlers.  Each runs one decoded instruction (:class:`_Op`)
# against the frame's register dict, reading operands left to right as
# the IR semantics define.  Terminators return the next block (RETURN
# its value); every other handler returns None.
# ----------------------------------------------------------------------

class _Op:
    """One instruction decoded for a run.

    ``args`` and ``dest`` are keys of the frame's register dict: a
    register's id, or a negative key that the run's constant pool binds
    to a constant, undef or global address.  ``extra`` is the static
    datum the handler needs (a memory type, a custom op's pattern).
    """

    __slots__ = ("handler", "name", "args", "dest", "wrap", "extra", "inst")

    def __init__(self, handler, name, args, dest, wrap, extra, inst) -> None:
        self.handler = handler
        self.name = name
        self.args = args
        self.dest = dest
        self.wrap = wrap
        self.extra = extra
        self.inst = inst


def _binary(fn: Callable) -> Callable:
    def handler(sim, regs, op):
        a, b = op.args
        regs[op.dest] = op.wrap(fn(regs[a], regs[b]))
    return handler


def _compare(fn: Callable) -> Callable:
    def handler(sim, regs, op):
        a, b = op.args
        regs[op.dest] = op.wrap(int(fn(regs[a], regs[b])))
    return handler


def _unary(fn: Callable) -> Callable:
    def handler(sim, regs, op):
        regs[op.dest] = op.wrap(fn(regs[op.args[0]]))
    return handler


def _mov(sim, regs, op):
    regs[op.dest] = op.wrap(regs[op.args[0]])


def _add(sim, regs, op):
    a, b = op.args
    regs[op.dest] = op.wrap(regs[a] + regs[b])


def _shl(sim, regs, op):
    a, b = op.args
    regs[op.dest] = op.wrap(regs[a] << (regs[b] & 31))


def _shr(sim, regs, op):
    a, b = op.args
    regs[op.dest] = op.wrap((regs[a] & 0xFFFFFFFF) >> (regs[b] & 31))


def _sar(sim, regs, op):
    a, b = op.args
    regs[op.dest] = op.wrap(regs[a] >> (regs[b] & 31))


def _div(sim, regs, op):
    a, b = op.args
    rhs = regs[b]
    if rhs == 0:
        raise SimulationError("integer division by zero")
    lhs = regs[a]
    quotient = abs(lhs) // abs(rhs)
    regs[op.dest] = op.wrap(quotient if (lhs >= 0) == (rhs >= 0) else -quotient)


def _rem(sim, regs, op):
    a, b = op.args
    rhs = regs[b]
    if rhs == 0:
        raise SimulationError("integer remainder by zero")
    lhs = regs[a]
    quotient = abs(lhs) // abs(rhs)
    signed_q = quotient if (lhs >= 0) == (rhs >= 0) else -quotient
    regs[op.dest] = op.wrap(lhs - signed_q * rhs)


def _fdiv(sim, regs, op):
    a, b = op.args
    rhs = regs[b]
    if rhs == 0:
        raise SimulationError("floating division by zero")
    regs[op.dest] = op.wrap(regs[a] / rhs)


def _select(sim, regs, op):
    c, t, f = op.args
    regs[op.dest] = op.wrap(regs[t] if regs[c] else regs[f])


def _load(sim, regs, op):
    sim.profile.loads += 1
    address = regs[op.args[0]]
    regs[op.dest] = op.wrap(sim.memory.load(int(address), op.extra))


def _store(sim, regs, op):
    sim.profile.stores += 1
    v, a = op.args
    value = regs[v]
    sim.memory.store(int(regs[a]), value, op.extra)


def _alloca(sim, regs, op):
    count = regs[op.args[0]]
    element = op.extra
    regs[op.dest] = op.wrap(sim.memory.allocate(
        max(4, element.size * int(count)), element.alignment))


def _jump(sim, regs, op):
    return op.inst.targets[0]


def _branch(sim, regs, op):
    profile = sim.profile
    profile.branches += 1
    targets = op.inst.targets
    if regs[op.args[0]]:
        profile.taken_branches += 1
        return targets[0]
    return targets[1]


def _return(sim, regs, op):
    return regs[op.args[0]] if op.args else None


def _call(sim, regs, op):
    call_counts = sim.profile.call_counts
    name = op.inst.callee
    call_counts[name] = call_counts.get(name, 0) + 1
    callee = sim.module.get_function(name)
    result = sim._call(callee, [regs[key] for key in op.args])
    if op.dest is not None:
        regs[op.dest] = op.wrap(result if result is not None else 0)


def _custom(sim, regs, op):
    """An ISA-extension op: evaluate its registered pattern."""
    pattern = op.extra
    if pattern is None:
        raise SimulationError(
            f"custom op {op.inst.custom_op} has no registered semantics")
    result = pattern.evaluate([regs[key] for key in op.args])
    if op.dest is not None:
        regs[op.dest] = op.wrap(result)


def _unimplemented(sim, regs, op):  # pragma: no cover - defensive
    raise SimulationError(f"unimplemented opcode {op.inst.opcode}")


#: how a decoded block ends.
_TRANSFERS, _RETURNS, _FALLS_OFF = range(3)

_HANDLERS: Dict[Opcode, Callable] = {
    Opcode.MOV: _mov,
    Opcode.ADD: _add,
    Opcode.SUB: _binary(operator.sub),
    Opcode.MUL: _binary(operator.mul),
    Opcode.DIV: _div,
    Opcode.REM: _rem,
    Opcode.AND: _binary(operator.and_),
    Opcode.OR: _binary(operator.or_),
    Opcode.XOR: _binary(operator.xor),
    Opcode.SHL: _shl,
    Opcode.SHR: _shr,
    Opcode.SAR: _sar,
    Opcode.MIN: _binary(min),
    Opcode.MAX: _binary(max),
    Opcode.ABS: _unary(abs),
    Opcode.NEG: _unary(operator.neg),
    Opcode.NOT: _unary(operator.invert),
    Opcode.FADD: _add,
    Opcode.FSUB: _binary(operator.sub),
    Opcode.FMUL: _binary(operator.mul),
    Opcode.FDIV: _fdiv,
    Opcode.FNEG: _unary(operator.neg),
    Opcode.CMPEQ: _compare(operator.eq),
    Opcode.FCMPEQ: _compare(operator.eq),
    Opcode.CMPNE: _compare(operator.ne),
    Opcode.CMPLT: _compare(operator.lt),
    Opcode.FCMPLT: _compare(operator.lt),
    Opcode.CMPLE: _compare(operator.le),
    Opcode.FCMPLE: _compare(operator.le),
    Opcode.CMPGT: _compare(operator.gt),
    Opcode.CMPGE: _compare(operator.ge),
    Opcode.SEXT: _mov,
    Opcode.ZEXT: _mov,
    Opcode.TRUNC: _mov,
    Opcode.ITOF: _unary(float),
    Opcode.FTOI: _unary(int),
    Opcode.SELECT: _select,
    Opcode.LOAD: _load,
    Opcode.STORE: _store,
    Opcode.ALLOCA: _alloca,
    Opcode.JUMP: _jump,
    Opcode.BRANCH: _branch,
    Opcode.RETURN: _return,
    Opcode.CALL: _call,
    Opcode.CUSTOM: _custom,
}


class FunctionalSimulator:
    """Interprets IR modules with a flat simulated memory."""

    def __init__(self, module: Module, memory_size: int = 1 << 20,
                 max_steps: int = 50_000_000) -> None:
        self.module = module
        self.image = ProgramImage(module, Memory(memory_size))
        self.memory = self.image.memory
        self.max_steps = max_steps
        self.profile = ExecutionProfile()
        self._steps = 0
        self._depth = 0
        self._begin_decode()

    def reset(self) -> None:
        """Return to the state of a freshly built simulator."""
        self.image.reset()
        self.profile = ExecutionProfile()
        self._steps = 0

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------
    def run(self, function_name: str, *args, copy_back: bool = True):
        """Execute ``function_name`` with Python arguments.

        Integers and floats are passed by value.  Lists (or other mutable
        sequences) of numbers are copied into simulated memory and passed
        as pointers; unless ``copy_back`` is False their final contents are
        copied back into the Python list after the call, so output arrays
        behave naturally.
        """
        function = self.module.get_function(function_name)
        if len(args) != len(function.arguments):
            raise SimulationError(
                f"{function_name} expects {len(function.arguments)} arguments, "
                f"got {len(args)}"
            )

        lowered, writebacks = self.image.lower(
            [formal.type for formal in function.arguments], args, copy_back)
        # Decode afresh each run: the module may have been rewritten since.
        self._begin_decode()
        result = self._call(function, lowered)
        self.image.write_back(writebacks)
        return result

    def run_profiled(self, function_name: str, *args):
        """Run and then write the measured profile back onto the module."""
        result = self.run(function_name, *args)
        self.profile.apply_to_module(self.module)
        return result

    # ------------------------------------------------------------------
    # Decoding: IR blocks -> tuples of :class:`_Op`.
    # ------------------------------------------------------------------
    def _begin_decode(self) -> None:
        #: block -> (decoded ops up to its first terminator, how the block
        #: ends, constant-pool size it needs).
        self._blocks: Dict[object, tuple] = {}
        #: negative key -> value of every constant, undef and placed global
        #: operand decoded this run; each frame's registers start with it.
        self._pool: Dict[int, object] = {}
        #: id(non-register operand) -> its key (pooled or not).
        self._keys: Dict[int, int] = {}

    def _key(self, operand) -> int:
        """The register-dict key ``operand`` is read through."""
        if isinstance(operand, VirtualRegister):  # Arguments included
            return operand.id
        key = self._keys.get(id(operand))
        if key is None:
            key = self._keys[id(operand)] = -1 - len(self._keys)
            if isinstance(operand, Constant):
                self._pool[key] = operand.value
            elif isinstance(operand, UndefValue):
                self._pool[key] = 0
            elif (isinstance(operand, GlobalVariable)
                  and operand.name in self.image.global_addresses):
                self._pool[key] = self.image.global_addresses[operand.name]
            # Anything else stays unbound: reading it raises.
        return key

    def _decode(self, block) -> tuple:
        ops = []
        ending = _FALLS_OFF
        for inst in block.instructions:
            opcode = inst.opcode
            dest = inst.dest
            extra = None
            if opcode is Opcode.LOAD:
                extra = dest.type if dest is not None else None
            elif opcode is Opcode.STORE and inst.operands:
                extra = getattr(inst.operands[0], "type", None)
            elif opcode is Opcode.ALLOCA:
                extra = inst.alloc_type or I32
            elif opcode is Opcode.CUSTOM:
                from ..core.library import global_extension_library

                extra = global_extension_library().lookup(inst.custom_op)
            ops.append(_Op(
                _HANDLERS.get(opcode, _unimplemented), opcode.value,
                tuple(self._key(operand) for operand in inst.operands),
                dest.id if dest is not None else None,
                _wrapper(dest.type) if dest is not None else None,
                extra, inst))
            if opcode is Opcode.RETURN:
                ending = _RETURNS
                break
            if inst.is_terminator():
                ending = _TRANSFERS
                break
        decoded = (tuple(ops), ending, len(self._pool))
        self._blocks[block] = decoded
        return decoded

    def _read_error(self, op: Optional[_Op], missing,
                    function: Function) -> Optional[SimulationError]:
        """The error for a register-dict miss on ``missing`` while running
        ``op``, or None when the miss was not an operand read."""
        if op is None:
            return None
        for operand in op.inst.operands:
            if self._key(operand) != missing:
                continue
            if isinstance(operand, VirtualRegister):
                return SimulationError(
                    f"read of undefined register {operand} in {function.name}")
            if isinstance(operand, GlobalVariable):
                return SimulationError(f"global {operand.name} has no address")
            return SimulationError(f"cannot evaluate operand {operand!r}")
        return None

    # ------------------------------------------------------------------
    # Interpreter core.
    # ------------------------------------------------------------------
    def _call(self, function: Function, args: Sequence):
        depth = self._depth
        if depth >= MAX_CALL_DEPTH:
            raise SimulationError(CALL_DEPTH_MESSAGE)
        block = function.entry
        pool = self._pool
        regs = dict(pool)
        seeded = len(pool)
        for formal, actual in zip(function.arguments, args):
            regs[formal.id] = actual

        profile = self.profile
        counts = profile.opcode_counts
        blocks = self._blocks
        max_steps = self.max_steps
        op = None
        self._depth = depth + 1
        try:
            while True:
                profile.record_block(function.name, block.name)
                decoded = blocks.get(block)
                if decoded is None:
                    decoded = self._decode(block)
                ops, ending, needs = decoded
                if needs > seeded:
                    regs.update(pool)
                    seeded = len(pool)
                outcome = None
                for op in ops:
                    self._steps += 1
                    if self._steps > max_steps:
                        raise SimulationError("maximum step count exceeded")
                    profile.instructions_executed += 1
                    counts[op.name] = counts.get(op.name, 0) + 1
                    outcome = op.handler(self, regs, op)
                if ending == _RETURNS:
                    return outcome
                if ending == _FALLS_OFF:
                    raise SimulationError(
                        f"fell off the end of block {block.name} in "
                        f"{function.name}")
                block = outcome
        except KeyError as exc:
            error = self._read_error(op, exc.args[0] if exc.args else None,
                                     function)
            if error is None:
                raise
            raise error from None
        finally:
            self._depth = depth
