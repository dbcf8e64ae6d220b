"""Functional (reference) simulator: executes IR directly.

This is the semantic oracle of the whole toolchain: the cycle simulator,
the binary translator and every optimization and customization pass are
validated against it (the "fast and accurate simulation of everything"
discipline of §3.1).  It also doubles as the statistical profiler — block
execution counts collected here drive the ISE selector's benefit
estimates.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..ir import (
    Argument, Constant, Function, GlobalVariable, Instruction, IntType, Module,
    Opcode, PointerType, UndefValue, VirtualRegister,
)
from ..ir.types import FloatType, I32, Type
from .memory import Memory, ProgramImage


class SimulationError(Exception):
    """Raised when the simulated program performs an illegal operation."""


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

    def record_opcode(self, opcode: Opcode) -> None:
        self.instructions_executed += 1
        key = opcode.value
        self.opcode_counts[key] = self.opcode_counts.get(key, 0) + 1

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


class _Frame:
    """One activation record of the interpreted program."""

    __slots__ = ("function", "registers", "stack_base")

    def __init__(self, function: Function) -> None:
        self.function = function
        self.registers: Dict[int, object] = {}
        self.stack_base = 0


def _wrap(value, type_: Type):
    if isinstance(type_, IntType):
        return type_.wrap(int(value))
    if isinstance(type_, FloatType):
        if type_.bits == 32:
            return struct.unpack("<f", struct.pack("<f", float(value)))[0]
        return float(value)
    if isinstance(type_, PointerType):
        return int(value) & 0xFFFFFFFF
    return value


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

        lowered = []
        writebacks = []
        for formal, actual in zip(function.arguments, args):
            if isinstance(actual, (list, tuple)):
                element = I32
                if isinstance(formal.type, PointerType) and formal.type.pointee is not None:
                    element = formal.type.pointee
                address = self.memory.allocate(max(4, element.size * len(actual)),
                                               element.alignment)
                self.memory.write_array(address, list(actual), element)
                lowered.append(address)
                if copy_back and isinstance(actual, list):
                    writebacks.append((actual, address, len(actual), element))
            else:
                lowered.append(_wrap(actual, formal.type))

        result = self._call(function, lowered)

        for target, address, count, element in writebacks:
            target[:] = self.memory.read_array(address, count, element)
        return result

    def run_profiled(self, function_name: str, *args):
        """Run and then write the measured profile back onto the module."""
        result = self.run(function_name, *args)
        self.profile.apply_to_module(self.module)
        return result

    # ------------------------------------------------------------------
    # Interpreter core.
    # ------------------------------------------------------------------
    def _call(self, function: Function, args: Sequence):
        depth = self._depth
        if depth >= MAX_CALL_DEPTH:
            raise SimulationError(CALL_DEPTH_MESSAGE)
        self._depth = depth + 1
        frame = _Frame(function)
        for formal, actual in zip(function.arguments, args):
            frame.registers[formal.id] = actual

        block = function.entry
        try:
            while True:
                self.profile.record_block(function.name, block.name)
                next_block = None
                for inst in block.instructions:
                    self._steps += 1
                    if self._steps > self.max_steps:
                        raise SimulationError("maximum step count exceeded")
                    self.profile.record_opcode(inst.opcode)
                    outcome = self._execute(inst, frame)
                    if inst.opcode is Opcode.RETURN:
                        return outcome
                    if inst.is_terminator():
                        next_block = outcome
                        break
                if next_block is None:
                    raise SimulationError(
                        f"fell off the end of block {block.name} in "
                        f"{function.name}")
                block = next_block
        finally:
            self._depth = depth

    def _value(self, operand, frame: _Frame):
        if isinstance(operand, Constant):
            return operand.value
        if isinstance(operand, GlobalVariable):
            if operand.address is None:
                raise SimulationError(f"global {operand.name} has no address")
            return operand.address
        if isinstance(operand, UndefValue):
            return 0
        if isinstance(operand, (VirtualRegister, Argument)):
            try:
                return frame.registers[operand.id]
            except KeyError:
                raise SimulationError(
                    f"read of undefined register {operand} in {frame.function.name}"
                ) from None
        raise SimulationError(f"cannot evaluate operand {operand!r}")

    def _set(self, inst: Instruction, frame: _Frame, value) -> None:
        frame.registers[inst.dest.id] = _wrap(value, inst.dest.type)

    def _execute(self, inst: Instruction, frame: _Frame):
        op = inst.opcode
        val = lambda i: self._value(inst.operands[i], frame)

        if op is Opcode.MOV:
            self._set(inst, frame, val(0))
        elif op is Opcode.ADD:
            self._set(inst, frame, val(0) + val(1))
        elif op is Opcode.SUB:
            self._set(inst, frame, val(0) - val(1))
        elif op is Opcode.MUL:
            self._set(inst, frame, val(0) * val(1))
        elif op is Opcode.DIV:
            rhs = val(1)
            if rhs == 0:
                raise SimulationError("integer division by zero")
            lhs = val(0)
            quotient = abs(lhs) // abs(rhs)
            self._set(inst, frame, quotient if (lhs >= 0) == (rhs >= 0) else -quotient)
        elif op is Opcode.REM:
            rhs = val(1)
            if rhs == 0:
                raise SimulationError("integer remainder by zero")
            lhs = val(0)
            quotient = abs(lhs) // abs(rhs)
            signed_q = quotient if (lhs >= 0) == (rhs >= 0) else -quotient
            self._set(inst, frame, lhs - signed_q * rhs)
        elif op is Opcode.AND:
            self._set(inst, frame, val(0) & val(1))
        elif op is Opcode.OR:
            self._set(inst, frame, val(0) | val(1))
        elif op is Opcode.XOR:
            self._set(inst, frame, val(0) ^ val(1))
        elif op is Opcode.SHL:
            self._set(inst, frame, val(0) << (val(1) & 31))
        elif op is Opcode.SHR:
            self._set(inst, frame, (val(0) & 0xFFFFFFFF) >> (val(1) & 31))
        elif op is Opcode.SAR:
            self._set(inst, frame, val(0) >> (val(1) & 31))
        elif op is Opcode.MIN:
            self._set(inst, frame, min(val(0), val(1)))
        elif op is Opcode.MAX:
            self._set(inst, frame, max(val(0), val(1)))
        elif op is Opcode.ABS:
            self._set(inst, frame, abs(val(0)))
        elif op is Opcode.NEG:
            self._set(inst, frame, -val(0))
        elif op is Opcode.NOT:
            self._set(inst, frame, ~val(0))
        elif op in (Opcode.FADD,):
            self._set(inst, frame, val(0) + val(1))
        elif op is Opcode.FSUB:
            self._set(inst, frame, val(0) - val(1))
        elif op is Opcode.FMUL:
            self._set(inst, frame, val(0) * val(1))
        elif op is Opcode.FDIV:
            rhs = val(1)
            if rhs == 0:
                raise SimulationError("floating division by zero")
            self._set(inst, frame, val(0) / rhs)
        elif op is Opcode.FNEG:
            self._set(inst, frame, -val(0))
        elif op is Opcode.CMPEQ or op is Opcode.FCMPEQ:
            self._set(inst, frame, int(val(0) == val(1)))
        elif op is Opcode.CMPNE:
            self._set(inst, frame, int(val(0) != val(1)))
        elif op is Opcode.CMPLT or op is Opcode.FCMPLT:
            self._set(inst, frame, int(val(0) < val(1)))
        elif op is Opcode.CMPLE or op is Opcode.FCMPLE:
            self._set(inst, frame, int(val(0) <= val(1)))
        elif op is Opcode.CMPGT:
            self._set(inst, frame, int(val(0) > val(1)))
        elif op is Opcode.CMPGE:
            self._set(inst, frame, int(val(0) >= val(1)))
        elif op is Opcode.SEXT or op is Opcode.ZEXT or op is Opcode.TRUNC:
            self._set(inst, frame, val(0))
        elif op is Opcode.ITOF:
            self._set(inst, frame, float(val(0)))
        elif op is Opcode.FTOI:
            self._set(inst, frame, int(val(0)))
        elif op is Opcode.SELECT:
            self._set(inst, frame, val(1) if val(0) else val(2))
        elif op is Opcode.LOAD:
            self.profile.loads += 1
            address = val(0)
            self._set(inst, frame, self.memory.load(int(address), inst.dest.type))
        elif op is Opcode.STORE:
            self.profile.stores += 1
            value = val(0)
            address = val(1)
            self.memory.store(int(address), value, inst.operands[0].type)
        elif op is Opcode.ALLOCA:
            count = val(0)
            element = inst.alloc_type or I32
            address = self.memory.allocate(max(4, element.size * int(count)),
                                           element.alignment)
            self._set(inst, frame, address)
        elif op is Opcode.JUMP:
            return inst.targets[0]
        elif op is Opcode.BRANCH:
            self.profile.branches += 1
            taken = bool(val(0))
            if taken:
                self.profile.taken_branches += 1
            return inst.targets[0] if taken else inst.targets[1]
        elif op is Opcode.RETURN:
            return self._value(inst.operands[0], frame) if inst.operands else None
        elif op is Opcode.CALL:
            self.profile.call_counts[inst.callee] = (
                self.profile.call_counts.get(inst.callee, 0) + 1
            )
            callee = self.module.get_function(inst.callee)
            arg_values = [self._value(a, frame) for a in inst.operands]
            result = self._call(callee, arg_values)
            if inst.dest is not None:
                self._set(inst, frame, result if result is not None else 0)
        elif op is Opcode.CUSTOM:
            result = self._execute_custom(inst, frame)
            if inst.dest is not None:
                self._set(inst, frame, result)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unimplemented opcode {op}")
        return None

    def _execute_custom(self, inst: Instruction, frame: _Frame):
        """Execute an ISA-extension op by evaluating its registered pattern."""
        from ..core.library import global_extension_library

        pattern = global_extension_library().lookup(inst.custom_op)
        if pattern is None:
            raise SimulationError(
                f"custom op {inst.custom_op} has no registered semantics"
            )
        inputs = [self._value(op, frame) for op in inst.operands]
        return pattern.evaluate(inputs)
