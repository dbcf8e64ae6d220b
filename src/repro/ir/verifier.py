"""IR verifier: structural well-formedness checks.

The verifier is run after the front end, after every optimization pass
(``OptimizeStage`` verifies after each pass in every configuration), and
before the back end.  It catches the classes of bug that otherwise show
up as baffling mis-schedules or simulator divergence much later in the
pipeline.
"""

from __future__ import annotations

from typing import List

from .function import Function
from .instructions import Opcode
from .module import Module
from .values import Argument, Constant, GlobalVariable, UndefValue, VirtualRegister


class VerificationError(Exception):
    """Raised when a module or function violates IR invariants."""

    def __init__(self, errors: List[str]) -> None:
        super().__init__("\n".join(errors))
        self.errors = errors


#: Expected operand counts per opcode; ``None`` means variable.
_OPERAND_COUNTS = {
    Opcode.ADD: 2, Opcode.SUB: 2, Opcode.MUL: 2, Opcode.DIV: 2, Opcode.REM: 2,
    Opcode.AND: 2, Opcode.OR: 2, Opcode.XOR: 2, Opcode.SHL: 2, Opcode.SHR: 2,
    Opcode.SAR: 2, Opcode.MIN: 2, Opcode.MAX: 2,
    Opcode.FADD: 2, Opcode.FSUB: 2, Opcode.FMUL: 2, Opcode.FDIV: 2,
    Opcode.CMPEQ: 2, Opcode.CMPNE: 2, Opcode.CMPLT: 2, Opcode.CMPLE: 2,
    Opcode.CMPGT: 2, Opcode.CMPGE: 2, Opcode.FCMPEQ: 2, Opcode.FCMPLT: 2,
    Opcode.FCMPLE: 2,
    Opcode.ABS: 1, Opcode.NEG: 1, Opcode.NOT: 1, Opcode.FNEG: 1,
    Opcode.SEXT: 1, Opcode.ZEXT: 1, Opcode.TRUNC: 1, Opcode.ITOF: 1,
    Opcode.FTOI: 1, Opcode.MOV: 1,
    Opcode.SELECT: 3,
    Opcode.LOAD: 1, Opcode.STORE: 2, Opcode.ALLOCA: 1,
    Opcode.JUMP: 0, Opcode.BRANCH: 1,
    Opcode.RETURN: None, Opcode.CALL: None, Opcode.CUSTOM: None,
}

#: Opcodes that must define a destination register.
_REQUIRES_DEST = {
    op for op, count in _OPERAND_COUNTS.items()
    if op not in (
        Opcode.STORE, Opcode.JUMP, Opcode.BRANCH, Opcode.RETURN,
        Opcode.CALL, Opcode.CUSTOM,
    )
}

#: Opcodes that must not define a destination register.
_FORBIDS_DEST = (Opcode.STORE, Opcode.JUMP, Opcode.BRANCH, Opcode.RETURN)

#: Exact target counts of the control transfers that take targets.
_TARGET_COUNTS = {Opcode.JUMP: 1, Opcode.BRANCH: 2}

_OPERAND_TYPES = (VirtualRegister, Constant, GlobalVariable, UndefValue,
                  Argument)

#: id(opcode) -> (operand count or None, destination required (True),
#: forbidden (False) or either (None), target count or None).  Keyed by
#: id: Enum members are singletons, and an Enum member hashes through a
#: Python-level __hash__.
_SHAPES = {
    id(op): (count,
             True if op in _REQUIRES_DEST
             else False if op in _FORBIDS_DEST else None,
             _TARGET_COUNTS.get(op))
    for op, count in _OPERAND_COUNTS.items()
}


def _well_formed(inst, block, is_last: bool, block_set) -> bool:
    """True when ``inst`` has its block link and :func:`_instruction_errors`
    would report nothing."""
    if inst.block is not block:
        return False
    opcode = inst.opcode
    shape = _SHAPES.get(id(opcode))
    if shape is None:
        return False
    count, dest_rule, target_count = shape
    operands = inst.operands
    if count is not None and len(operands) != count:
        return False
    if dest_rule is not None and (inst.dest is not None) is not dest_rule:
        return False
    targets = inst.targets
    if target_count is not None:
        if len(targets) != target_count or not is_last:
            return False
    elif opcode is Opcode.RETURN:
        if not is_last:
            return False
    elif opcode is Opcode.CALL:
        if not inst.callee:
            return False
    elif opcode is Opcode.CUSTOM and not inst.custom_op:
        return False
    for target in targets:
        if target not in block_set:
            return False
    for operand in operands:
        if not isinstance(operand, _OPERAND_TYPES):
            return False
    return True


def _instruction_errors(label: str, inst, is_last: bool,
                        block_set) -> List[str]:
    """Every invariant ``inst`` violates, in a fixed order."""
    errors: List[str] = []
    if inst.is_terminator() and not is_last:
        errors.append(f"{label}: terminator is not the last instruction")

    expected = _OPERAND_COUNTS.get(inst.opcode)
    if expected is not None and len(inst.operands) != expected:
        errors.append(
            f"{label}: expects {expected} operands, has {len(inst.operands)}"
        )
    if inst.opcode in _REQUIRES_DEST and inst.dest is None:
        errors.append(f"{label}: missing destination register")
    if inst.opcode in _FORBIDS_DEST and inst.dest is not None:
        errors.append(f"{label}: must not define a destination register")

    if inst.opcode is Opcode.JUMP and len(inst.targets) != 1:
        errors.append(f"{label}: jump needs exactly one target")
    if inst.opcode is Opcode.BRANCH and len(inst.targets) != 2:
        errors.append(f"{label}: branch needs exactly two targets")
    if inst.opcode is Opcode.CALL and not inst.callee:
        errors.append(f"{label}: call without a callee name")
    if inst.opcode is Opcode.CUSTOM and not inst.custom_op:
        errors.append(f"{label}: custom op without a name")
    for target in inst.targets:
        if target not in block_set:
            errors.append(
                f"{label}: branch target {target.name} not in function"
            )
    for op in inst.operands:
        if not isinstance(op, _OPERAND_TYPES):
            errors.append(f"{label}: invalid operand {op!r}")
    return errors


def verify_function(function: Function) -> List[str]:
    """Return a list of invariant violations (empty when well formed).

    Each instruction gets one combined check; the per-invariant checks
    and their messages run only for an instruction that fails it.
    """
    errors: List[str] = []
    where = f"function @{function.name}"

    if not function.blocks:
        errors.append(f"{where}: has no basic blocks")
        return errors

    block_set = set(function.blocks)
    seen_names = set()
    for block in function.blocks:
        if block.name in seen_names:
            errors.append(f"{where}: duplicate block name {block.name}")
        seen_names.add(block.name)
        if block.function is not function:
            errors.append(f"{where}: block {block.name} has a stale function link")

        term = block.terminator
        if term is None:
            errors.append(f"{where}: block {block.name} is not terminated")
        instructions = block.instructions
        last = instructions[-1] if instructions else None
        for i, inst in enumerate(instructions):
            is_last = inst is last
            if _well_formed(inst, block, is_last, block_set):
                continue
            label = f"{where}, block {block.name}, inst {i} ({inst.opcode.value})"
            if inst.block is not block:
                errors.append(f"{label}: stale block link")
            errors.extend(_instruction_errors(label, inst, is_last, block_set))

        # Return type consistency.
        if term is not None and term.opcode is Opcode.RETURN:
            if function.return_type.is_void() and term.operands:
                errors.append(
                    f"{where}: block {block.name} returns a value from a void function"
                )
            if not function.return_type.is_void() and not term.operands:
                errors.append(
                    f"{where}: block {block.name} returns void from a non-void function"
                )

    return errors


def verify_module(module: Module) -> List[str]:
    """Verify every function in ``module``; also check call targets exist."""
    errors: List[str] = []
    for function in module.functions.values():
        errors.extend(verify_function(function))
        for callee in function.call_targets():
            if callee not in module.functions and not callee.startswith("__"):
                errors.append(
                    f"function @{function.name}: calls unknown function @{callee}"
                )
    return errors


def assert_valid(module_or_function) -> None:
    """Raise :class:`VerificationError` if the IR is malformed."""
    if isinstance(module_or_function, Module):
        errors = verify_module(module_or_function)
    else:
        errors = verify_function(module_or_function)
    if errors:
        raise VerificationError(errors)
