"""Instructions of the repro IR.

Every instruction is a three-address operation: an optional destination
virtual register plus a list of operand :class:`~repro.ir.values.Value`\\ s.
The opcode vocabulary intentionally mirrors the primitive operation
repertoire of a simple embedded RISC/VLIW core, because instruction-set
extension candidates are built by grouping these primitives.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence

from .types import Type, VOID, I1, I32
from .values import Constant, Value, VirtualRegister


class Opcode(enum.Enum):
    """Primitive IR operations."""

    # Integer arithmetic / logic.
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"      # logical shift right
    SAR = "sar"      # arithmetic shift right
    MIN = "min"
    MAX = "max"
    ABS = "abs"
    NEG = "neg"
    NOT = "not"
    # Floating point.
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FNEG = "fneg"
    # Comparisons (produce an i1).
    CMPEQ = "cmpeq"
    CMPNE = "cmpne"
    CMPLT = "cmplt"
    CMPLE = "cmple"
    CMPGT = "cmpgt"
    CMPGE = "cmpge"
    FCMPEQ = "fcmpeq"
    FCMPLT = "fcmplt"
    FCMPLE = "fcmple"
    # Conversions.
    SEXT = "sext"
    ZEXT = "zext"
    TRUNC = "trunc"
    ITOF = "itof"
    FTOI = "ftoi"
    # Data movement.
    MOV = "mov"
    SELECT = "select"
    # Memory.
    LOAD = "load"
    STORE = "store"
    ALLOCA = "alloca"
    # Control flow.
    JUMP = "jump"
    BRANCH = "branch"
    RETURN = "return"
    CALL = "call"
    # Custom (ISA-extension) operation inserted by the customizer.
    CUSTOM = "custom"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Opcodes that can participate in an instruction-set-extension pattern.
#: Memory and control operations are excluded (the custom functional unit
#: has register-file ports only), as are calls.
FUSABLE_OPCODES = frozenset(
    {
        Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR,
        Opcode.SHL, Opcode.SHR, Opcode.SAR, Opcode.MIN, Opcode.MAX, Opcode.ABS,
        Opcode.NEG, Opcode.NOT, Opcode.CMPEQ, Opcode.CMPNE, Opcode.CMPLT,
        Opcode.CMPLE, Opcode.CMPGT, Opcode.CMPGE, Opcode.SELECT, Opcode.SEXT,
        Opcode.ZEXT, Opcode.TRUNC, Opcode.MOV,
    }
)

#: Commutative binary opcodes (used by CSE and pattern canonicalisation).
COMMUTATIVE_OPCODES = frozenset(
    {
        Opcode.ADD, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR,
        Opcode.MIN, Opcode.MAX, Opcode.FADD, Opcode.FMUL,
        Opcode.CMPEQ, Opcode.CMPNE, Opcode.FCMPEQ,
    }
)

#: Opcodes with side effects or ordering constraints.
SIDE_EFFECT_OPCODES = frozenset(
    {Opcode.STORE, Opcode.CALL, Opcode.RETURN, Opcode.JUMP, Opcode.BRANCH}
)

#: Control-flow terminators.
TERMINATOR_OPCODES = frozenset({Opcode.JUMP, Opcode.BRANCH, Opcode.RETURN})

#: Pure integer ALU ops (single-cycle on the baseline machine).
INT_ALU_OPCODES = frozenset(
    {
        Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL,
        Opcode.SHR, Opcode.SAR, Opcode.MIN, Opcode.MAX, Opcode.ABS, Opcode.NEG,
        Opcode.NOT, Opcode.CMPEQ, Opcode.CMPNE, Opcode.CMPLT, Opcode.CMPLE,
        Opcode.CMPGT, Opcode.CMPGE, Opcode.SELECT, Opcode.MOV, Opcode.SEXT,
        Opcode.ZEXT, Opcode.TRUNC,
    }
)


class Instruction:
    """A single IR instruction.

    Attributes
    ----------
    opcode:
        The primitive operation.
    dest:
        Destination :class:`VirtualRegister`, or ``None`` for instructions
        that produce no value (stores, branches, void calls).
    operands:
        Input values, in positional order.
    block:
        Back-reference to the owning basic block (set on insertion).
    """

    __slots__ = ("opcode", "dest", "operands", "block", "targets", "callee",
                 "custom_op", "alloc_type", "annotations")

    def __init__(
        self,
        opcode: Opcode,
        dest: Optional[VirtualRegister] = None,
        operands: Optional[Sequence[Value]] = None,
        targets: Optional[list] = None,
        callee: Optional[str] = None,
        custom_op: Optional[str] = None,
        alloc_type: Optional[Type] = None,
    ) -> None:
        self.opcode = opcode
        self.dest = dest
        self.operands: List[Value] = list(operands or [])
        #: successor basic blocks for jump/branch instructions.
        self.targets = list(targets or [])
        #: callee name for CALL instructions.
        self.callee = callee
        #: name of the custom (fused) operation for CUSTOM instructions.
        self.custom_op = custom_op
        #: element type for ALLOCA instructions.
        self.alloc_type = alloc_type
        self.block = None
        #: free-form annotations used by passes (profiling weights etc.).
        self.annotations: dict = {}

    # ------------------------------------------------------------------
    # Classification helpers.
    # ------------------------------------------------------------------
    # The predicates below compare by identity: an Enum member hashes
    # through a Python-level __hash__, so a frozenset test costs more.
    def is_terminator(self) -> bool:
        op = self.opcode
        return op is Opcode.JUMP or op is Opcode.BRANCH or op is Opcode.RETURN

    def has_side_effects(self) -> bool:
        op = self.opcode
        return (op is Opcode.STORE or op is Opcode.CALL or op is Opcode.RETURN
                or op is Opcode.JUMP or op is Opcode.BRANCH)

    def is_pure(self) -> bool:
        """True if the instruction can be removed when its result is dead."""
        return (
            not self.has_side_effects()
            and self.opcode not in (Opcode.LOAD, Opcode.ALLOCA, Opcode.CALL)
        )

    def is_fusable(self) -> bool:
        """True if the instruction may be absorbed into a custom operation.

        Float-typed instructions never are: a pattern computes every
        node at i32.
        """
        return (self.opcode in FUSABLE_OPCODES
                and not any(value.type.is_float()
                            for value in (self.dest, *self.operands)
                            if value is not None))

    def is_memory(self) -> bool:
        op = self.opcode
        return op is Opcode.LOAD or op is Opcode.STORE

    # ------------------------------------------------------------------
    # Operand management.
    # ------------------------------------------------------------------
    def uses(self) -> List[VirtualRegister]:
        """Virtual registers read by this instruction."""
        return [op for op in self.operands if isinstance(op, VirtualRegister)]

    def defs(self) -> List[VirtualRegister]:
        """Virtual registers written by this instruction."""
        return [self.dest] if self.dest is not None else []

    def replace_operand(self, old: Value, new: Value) -> int:
        """Replace every occurrence of ``old`` with ``new``; return count."""
        count = 0
        for i, op in enumerate(self.operands):
            if op is old or op == old:
                self.operands[i] = new
                count += 1
        return count

    # ------------------------------------------------------------------
    # Printing.
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        parts = []
        if self.dest is not None:
            parts.append(f"{self.dest} = ")
        name = self.custom_op if self.opcode is Opcode.CUSTOM else self.opcode.value
        parts.append(name)
        if self.callee:
            parts.append(f" @{self.callee}")
        if self.alloc_type is not None:
            parts.append(f" {self.alloc_type}")
        if self.operands:
            parts.append(" " + ", ".join(str(op) for op in self.operands))
        if self.targets:
            parts.append(" -> " + ", ".join(t.name for t in self.targets))
        return "".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Instruction {self}>"


# ----------------------------------------------------------------------
# Convenience constructors.  The builder uses these; tests may use them
# directly when constructing IR by hand.
# ----------------------------------------------------------------------

def binop(opcode: Opcode, dest: VirtualRegister, lhs: Value, rhs: Value) -> Instruction:
    """Create a binary arithmetic/logic instruction."""
    return Instruction(opcode, dest, [lhs, rhs])


def unop(opcode: Opcode, dest: VirtualRegister, src: Value) -> Instruction:
    """Create a unary instruction."""
    return Instruction(opcode, dest, [src])


def move(dest: VirtualRegister, src: Value) -> Instruction:
    """Copy ``src`` into ``dest``."""
    return Instruction(Opcode.MOV, dest, [src])


def load(dest: VirtualRegister, address: Value) -> Instruction:
    """Load ``dest.type`` bytes from ``address``."""
    return Instruction(Opcode.LOAD, dest, [address])


def store(value: Value, address: Value) -> Instruction:
    """Store ``value`` to ``address``."""
    return Instruction(Opcode.STORE, None, [value, address])


def alloca(dest: VirtualRegister, type_: Type, count: int = 1) -> Instruction:
    """Reserve stack space for ``count`` elements of ``type_``."""
    return Instruction(
        Opcode.ALLOCA, dest, [Constant(count, I32)], alloc_type=type_
    )


def jump(target) -> Instruction:
    """Unconditional jump."""
    return Instruction(Opcode.JUMP, targets=[target])


def branch(cond: Value, if_true, if_false) -> Instruction:
    """Conditional branch on an i1 value."""
    return Instruction(Opcode.BRANCH, operands=[cond], targets=[if_true, if_false])


def ret(value: Optional[Value] = None) -> Instruction:
    """Return from the current function."""
    return Instruction(Opcode.RETURN, operands=[value] if value is not None else [])


def call(dest: Optional[VirtualRegister], callee: str, args: Sequence[Value]) -> Instruction:
    """Call a function by name."""
    return Instruction(Opcode.CALL, dest, list(args), callee=callee)


def select(dest: VirtualRegister, cond: Value, if_true: Value, if_false: Value) -> Instruction:
    """dest = cond ? if_true : if_false."""
    return Instruction(Opcode.SELECT, dest, [cond, if_true, if_false])


def custom(dest: Optional[VirtualRegister], name: str, args: Sequence[Value]) -> Instruction:
    """An application-specific (ISA-extension) operation."""
    return Instruction(Opcode.CUSTOM, dest, list(args), custom_op=name)
