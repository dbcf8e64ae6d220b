"""Machine-level code containers produced by the back end.

The back end lowers each IR function into :class:`CompiledFunction`:
basic blocks of VLIW *bundles* (long instructions), each bundle holding up
to ``issue_width`` :class:`MachineOp` syllables.  The cycle-accurate
simulator executes this representation directly; the assembler renders it
as text or encodes it into 32-bit syllable words.

Values are named by virtual register; the register allocator's assignment
(physical register or spill slot) is recorded on the side, and spill
traffic appears as explicit spill/reload MachineOps in the bundles so that
both the timing and the code-size models see it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..arch.machine import MachineDescription
from ..arch.operations import OperationClass
from ..ir import Function, Instruction, Module, Opcode


@dataclass
class MachineOp:
    """One operation syllable: an IR instruction placed on a functional unit."""

    inst: Instruction
    op_class: OperationClass
    latency: int
    cluster: int = 0
    #: spill/reload operations synthesised by the register allocator carry
    #: the virtual register they traffic and have ``inst`` set to a LOAD or
    #: STORE the simulator executes against the spill slot.
    is_spill: bool = False
    #: inter-cluster copy operations synthesised by the cluster assigner.
    is_copy: bool = False

    @property
    def opcode(self) -> Opcode:
        return self.inst.opcode

    def __str__(self) -> str:
        tag = ""
        if self.is_spill:
            tag = " ;spill"
        elif self.is_copy:
            tag = " ;xcopy"
        return f"[{self.op_class.value}.c{self.cluster}] {self.inst}{tag}"


@dataclass
class Bundle:
    """One VLIW long instruction: operations issued in the same cycle."""

    ops: List[MachineOp] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def __str__(self) -> str:
        if not self.ops:
            return "  { nop }"
        body = "\n".join(f"    {op}" for op in self.ops)
        return "  {\n" + body + "\n  }"


@dataclass
class ScheduledBlock:
    """A basic block after scheduling: an ordered list of bundles."""

    name: str
    bundles: List[Bundle] = field(default_factory=list)
    #: the IR block's (possibly profiled) execution frequency.
    frequency: float = 1.0

    @property
    def cycles(self) -> int:
        """Static schedule length in cycles (one bundle per cycle)."""
        return len(self.bundles)

    @property
    def operation_count(self) -> int:
        return sum(len(b) for b in self.bundles)

    def op_counts_per_bundle(self) -> List[int]:
        return [len(b) for b in self.bundles]

    def __str__(self) -> str:
        lines = [f"{self.name}:"]
        lines.extend(str(b) for b in self.bundles)
        return "\n".join(lines)


@dataclass
class RegisterAssignment:
    """Where each virtual register lives: a physical register or a spill slot."""

    physical: Dict[int, int] = field(default_factory=dict)
    spilled: Dict[int, int] = field(default_factory=dict)   # vreg id -> slot index
    spill_slots: int = 0
    max_pressure: int = 0
    spill_loads: int = 0
    spill_stores: int = 0

    def location_of(self, vreg_id: int) -> str:
        if vreg_id in self.physical:
            return f"r{self.physical[vreg_id]}"
        if vreg_id in self.spilled:
            return f"[sp+{4 * self.spilled[vreg_id]}]"
        return "?"


@dataclass
class CompiledFunction:
    """A fully scheduled function for a specific machine."""

    name: str
    machine: MachineDescription
    blocks: List[ScheduledBlock] = field(default_factory=list)
    source: Optional[Function] = None
    registers: Optional[RegisterAssignment] = None

    def block(self, name: str) -> ScheduledBlock:
        for blk in self.blocks:
            if blk.name == name:
                return blk
        raise KeyError(f"no scheduled block {name} in {self.name}")

    @property
    def operation_count(self) -> int:
        return sum(b.operation_count for b in self.blocks)

    def bundle_op_counts(self) -> List[int]:
        counts: List[int] = []
        for block in self.blocks:
            counts.extend(block.op_counts_per_bundle())
        return counts

    def __str__(self) -> str:
        lines = [f"; function {self.name} scheduled for {self.machine.name}"]
        lines.extend(str(b) for b in self.blocks)
        return "\n".join(lines)


@dataclass
class CompiledModule:
    """All compiled functions of a module, for one machine."""

    machine: MachineDescription
    functions: Dict[str, CompiledFunction] = field(default_factory=dict)
    source: Optional[Module] = None

    def add(self, function: CompiledFunction) -> None:
        self.functions[function.name] = function

    def get(self, name: str) -> CompiledFunction:
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"no compiled function {name}") from None

    def bundle_op_counts(self) -> List[int]:
        counts: List[int] = []
        for function in self.functions.values():
            counts.extend(function.bundle_op_counts())
        return counts

    @property
    def operation_count(self) -> int:
        return sum(f.operation_count for f in self.functions.values())

    def __iter__(self):
        return iter(self.functions.values())
