"""Assembly rendering and binary encoding of compiled modules.

The encoding is a straightforward fixed-32-bit-syllable VLIW format (with
an optional compressed form whose bundles carry a one-byte template):
every operation becomes one word holding the opcode number, the register
numbers assigned by the allocator (or spill-slot markers) and a small
immediate.  The point of this module is not fidelity to any real binary
format — it is to give the ISA-drift experiments an actual *binary
artifact* to translate: the drift translator decodes these words,
re-schedules them for a different family member and re-encodes them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir import Constant, GlobalVariable, Opcode, VirtualRegister
from ..sim.memory import global_layout
from .mcode import Bundle, CompiledFunction, CompiledModule, MachineOp

#: stable numbering of opcodes for the binary encoding.
OPCODE_NUMBERS: Dict[Opcode, int] = {op: i for i, op in enumerate(Opcode)}
NUMBER_OPCODES: Dict[int, Opcode] = {i: op for op, i in OPCODE_NUMBERS.items()}


@dataclass
class EncodedOp:
    """One decoded syllable of a binary image."""

    opcode_number: int
    dest: int
    src1: int
    src2: int
    immediate: int
    custom_index: int = 0

    @property
    def opcode(self) -> Opcode:
        return NUMBER_OPCODES[self.opcode_number]


@dataclass
class BinaryImage:
    """The encoded program: words per function, plus the symbol tables."""

    machine_name: str
    words: Dict[str, List[int]] = field(default_factory=dict)
    #: bundle boundaries: function -> list of (start_word, op_count).
    bundle_table: Dict[str, List[Tuple[int, int]]] = field(default_factory=dict)
    custom_op_names: List[str] = field(default_factory=list)

    @property
    def total_words(self) -> int:
        return sum(len(w) for w in self.words.values())


def _register_number(value, compiled: CompiledFunction) -> int:
    if isinstance(value, VirtualRegister):
        if compiled.registers is None:
            return value.id % 64
        if value.id in compiled.registers.physical:
            return compiled.registers.physical[value.id]
        if value.id in compiled.registers.spilled:
            return 63  # spill marker
        return value.id % 64
    return 0


def _immediate(value, global_addresses: Dict[str, int]) -> int:
    if isinstance(value, Constant) and isinstance(value.value, int):
        return value.value & 0xFFFF
    if isinstance(value, GlobalVariable) and value.name in global_addresses:
        return global_addresses[value.name] & 0xFFFF
    return 0


def encode_op(op: MachineOp, compiled: CompiledFunction,
              custom_names: List[str],
              global_addresses: Dict[str, int]) -> int:
    """Pack one operation into a 32-bit word; a global operand's immediate
    is its address in ``global_addresses`` (0 when absent)."""
    inst = op.inst
    opcode_number = OPCODE_NUMBERS[inst.opcode] & 0x3F
    if op.is_spill or op.is_copy:
        # Timing-only traffic synthesized after allocation: its temporary
        # registers have no assignment, so encode the spill marker rather
        # than a raw virtual-register id (keeps images content-
        # deterministic across compiles).
        return ((opcode_number << 26) | ((63 if inst.dest is not None else 0)
                                         << 20)) & 0xFFFFFFFF
    dest = _register_number(inst.dest, compiled) if inst.dest is not None else 0
    src1 = _register_number(inst.operands[0], compiled) if inst.operands else 0
    src2 = _register_number(inst.operands[1], compiled) if len(inst.operands) > 1 else 0
    imm = 0
    for operand in inst.operands:
        imm = _immediate(operand, global_addresses)
        if imm:
            break
    custom_index = 0
    if inst.opcode is Opcode.CUSTOM:
        if inst.custom_op not in custom_names:
            custom_names.append(inst.custom_op)
        custom_index = custom_names.index(inst.custom_op) & 0xF

    word = (
        (opcode_number << 26)
        | ((dest & 0x3F) << 20)
        | ((src1 & 0x3F) << 14)
        | ((src2 & 0x3F) << 8)
        | ((custom_index & 0xF) << 4)
        | ((imm >> 12) & 0xF)
    )
    return word & 0xFFFFFFFF


def decode_word(word: int) -> EncodedOp:
    """Unpack a 32-bit syllable."""
    return EncodedOp(
        opcode_number=(word >> 26) & 0x3F,
        dest=(word >> 20) & 0x3F,
        src1=(word >> 14) & 0x3F,
        src2=(word >> 8) & 0x3F,
        custom_index=(word >> 4) & 0xF,
        immediate=word & 0xF,
    )


def encode_module(compiled: CompiledModule) -> BinaryImage:
    """Encode a compiled module into a binary image.

    Globals encode at their addresses in the program layout of
    ``compiled.source`` (:func:`repro.sim.memory.global_layout`), so the
    image depends only on the compiled module.
    """
    image = BinaryImage(machine_name=compiled.machine.name)
    global_addresses = ({} if compiled.source is None
                        else global_layout(compiled.source)[0])
    for function in compiled:
        words: List[int] = []
        bundles: List[Tuple[int, int]] = []
        for block in function.blocks:
            for bundle in block.bundles:
                bundles.append((len(words), len(bundle.ops)))
                for op in bundle.ops:
                    words.append(encode_op(op, function, image.custom_op_names,
                                           global_addresses))
                if not bundle.ops:
                    words.append(NOP_WORD)
        image.words[function.name] = words
        image.bundle_table[function.name] = bundles
    return image


#: padding word emitted for empty bundles (bundle_table records them as
#: 0-op bundles, so the payload is never decoded as a real operation).
#: A fixed constant keeps binary images content-deterministic.
NOP_WORD = (OPCODE_NUMBERS[Opcode.MOV] & 0x3F) << 26


def render_assembly(compiled: CompiledModule) -> str:
    """Render a compiled module as human-readable VLIW assembly."""
    lines: List[str] = [f"; target: {compiled.machine.describe()}"]
    for function in compiled:
        lines.append("")
        lines.append(f".function {function.name}")
        if function.registers is not None and function.registers.spill_slots:
            lines.append(f"  .frame spill_slots={function.registers.spill_slots}")
        for block in function.blocks:
            lines.append(f"{block.name}:")
            for index, bundle in enumerate(block.bundles):
                if not bundle.ops:
                    lines.append("  { nop } ;;")
                    continue
                rendered = []
                for op in bundle.ops:
                    text = _render_op(op, function)
                    rendered.append(text)
                lines.append("  { " + " | ".join(rendered) + " } ;;")
    return "\n".join(lines)


def _render_op(op: MachineOp, function: CompiledFunction) -> str:
    inst = op.inst
    name = inst.custom_op if inst.opcode is Opcode.CUSTOM else inst.opcode.value
    parts = [name]
    if inst.dest is not None:
        parts.append(_operand_text(inst.dest, function) + " =")
    operand_text = ", ".join(_operand_text(o, function) for o in inst.operands)
    if operand_text:
        parts.append(operand_text)
    if inst.targets:
        parts.append("-> " + ", ".join(t.name for t in inst.targets))
    suffix = ""
    if op.is_spill:
        suffix = " ;spill"
    elif op.is_copy:
        suffix = " ;xcopy"
    return " ".join(parts) + suffix


def _operand_text(value, function: CompiledFunction) -> str:
    if isinstance(value, VirtualRegister):
        if function.registers is not None:
            return function.registers.location_of(value.id)
        return str(value)
    if isinstance(value, Constant):
        return str(value.value)
    if isinstance(value, GlobalVariable):
        return f"@{value.name}"
    return str(value)
