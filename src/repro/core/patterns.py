"""Dataflow patterns: the portable semantics of custom operations.

A :class:`Pattern` is a small DAG of primitive IR operations with numbered
external inputs and one or more outputs.  Patterns are extracted from
convex cuts of basic-block dataflow graphs by the identification stage,
deduplicated by a canonical signature (so the same computation found in
two kernels is recognised as one candidate), costed by the hardware-datapath
model, matched against other programs by the rewriter, and given to the
simulators as custom operations' semantics: :meth:`Pattern.evaluate`
gives the interpreter a custom op's value from the shared operation table
of :mod:`repro.ir.semantics`, and :func:`expand_pattern` turns a pattern
back into base IR instructions, which the compiled and native engines run
inline and ISA-drift translation splices into a binary.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..ir import (
    COMMUTATIVE_OPCODES, FUSABLE_OPCODES, Constant, Instruction, IntType, Opcode,
    VirtualRegister,
)
from ..ir.semantics import BINARY, UNARY, select, wrapper
from ..ir.types import I32, I64, PointerType

#: Hardware delay of each primitive, in units of one 32-bit adder delay.
#: Used to pipeline-stage a fused datapath: chained primitives inside one
#: custom operation do not pay per-operation issue/writeback overhead, so
#: the fused latency is the ceiling of the summed gate delay.
HW_DELAY = {
    Opcode.ADD: 1.0, Opcode.SUB: 1.0, Opcode.MUL: 2.4,
    Opcode.AND: 0.3, Opcode.OR: 0.3, Opcode.XOR: 0.3, Opcode.NOT: 0.2,
    Opcode.SHL: 0.5, Opcode.SHR: 0.5, Opcode.SAR: 0.5,
    Opcode.MIN: 1.1, Opcode.MAX: 1.1, Opcode.ABS: 1.1, Opcode.NEG: 1.0,
    Opcode.CMPEQ: 0.8, Opcode.CMPNE: 0.8, Opcode.CMPLT: 1.0, Opcode.CMPLE: 1.0,
    Opcode.CMPGT: 1.0, Opcode.CMPGE: 1.0,
    Opcode.SELECT: 0.4, Opcode.MOV: 0.0,
    Opcode.SEXT: 0.1, Opcode.ZEXT: 0.1, Opcode.TRUNC: 0.1,
}

#: Hardware area of each primitive in kgates (32-bit datapath).
HW_AREA_KGATES = {
    Opcode.ADD: 1.6, Opcode.SUB: 1.6, Opcode.MUL: 20.0,
    Opcode.AND: 0.2, Opcode.OR: 0.2, Opcode.XOR: 0.3, Opcode.NOT: 0.1,
    Opcode.SHL: 2.2, Opcode.SHR: 2.2, Opcode.SAR: 2.2,
    Opcode.MIN: 2.0, Opcode.MAX: 2.0, Opcode.ABS: 1.8, Opcode.NEG: 1.6,
    Opcode.CMPEQ: 0.9, Opcode.CMPNE: 0.9, Opcode.CMPLT: 1.2, Opcode.CMPLE: 1.2,
    Opcode.CMPGT: 1.2, Opcode.CMPGE: 1.2,
    Opcode.SELECT: 0.7, Opcode.MOV: 0.0,
    Opcode.SEXT: 0.1, Opcode.ZEXT: 0.1, Opcode.TRUNC: 0.1,
}

#: the function of the operand values each fusable opcode computes.
_PRIMITIVES = {op: select if op is Opcode.SELECT else BINARY.get(op) or UNARY[op]
               for op in FUSABLE_OPCODES}
_wrap_i32 = wrapper(I32)

#: Adder delays that fit in one pipeline stage of the custom functional
#: unit (slightly more than one, reflecting slack in the base machine's
#: cycle that a single ALU op does not use).
DELAYS_PER_STAGE = 1.3


@dataclass(frozen=True)
class PatternNode:
    """One primitive operation inside a pattern.

    ``operands`` refer either to external inputs (``("in", k)``), to other
    nodes (``("node", j)`` with ``j`` an index into the pattern's node
    list, always smaller than this node's index), or to embedded constants
    (``("const", value)``).
    """

    opcode: Opcode
    operands: Tuple[Tuple, ...]


class PatternError(Exception):
    """Raised when a pattern cannot be built or evaluated."""


class Pattern:
    """A canonical, executable description of a fused computation."""

    def __init__(self, nodes: List[PatternNode], outputs: List[int],
                 num_inputs: int, name: str = "") -> None:
        self.nodes = nodes
        self.outputs = outputs
        self.num_inputs = num_inputs
        self._signature: Optional[str] = None
        # Named from the signature's sha256 (not ``hash``, which is salted
        # per process), so native-code keys of customized modules are
        # stable across processes.
        self.name = name or "cop_" + hashlib.sha256(
            self.signature().encode()).hexdigest()[:12]

    # ------------------------------------------------------------------
    # Basic properties.
    # ------------------------------------------------------------------
    @property
    def num_outputs(self) -> int:
        return len(self.outputs)

    @property
    def size(self) -> int:
        """Number of primitive operations fused by this pattern."""
        return len(self.nodes)

    def opcode_histogram(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for node in self.nodes:
            histogram[node.opcode.value] = histogram.get(node.opcode.value, 0) + 1
        return histogram

    # ------------------------------------------------------------------
    # Hardware cost model.
    # ------------------------------------------------------------------
    def hardware_latency(self, delays_per_stage: float = DELAYS_PER_STAGE) -> int:
        """Pipeline latency (cycles) of a fused datapath for this pattern."""
        depth: Dict[int, float] = {}
        worst = 0.0
        for index, node in enumerate(self.nodes):
            start = 0.0
            for kind, ref in node.operands:
                if kind == "node":
                    start = max(start, depth[ref])
            finish = start + HW_DELAY.get(node.opcode, 1.0)
            depth[index] = finish
            worst = max(worst, finish)
        return max(1, int(-(-worst // delays_per_stage)))  # ceil division

    def hardware_area_kgates(self) -> float:
        """Synthesis-area estimate of the fused datapath (kgates)."""
        area = sum(HW_AREA_KGATES.get(node.opcode, 1.0) for node in self.nodes)
        # Operand multiplexing / pipeline registers overhead.
        overhead = 0.4 * (self.num_inputs + self.num_outputs) + 0.15 * len(self.nodes)
        return round(area + overhead, 3)

    def software_latency(self, latency_of) -> int:
        """Critical path through the pattern executed as separate ops.

        ``latency_of`` maps an :class:`Opcode` to its per-op latency on the
        *base* machine; this is the per-occurrence upper bound on the cycles
        a custom operation can save when the code is latency-bound.
        """
        depth: Dict[int, int] = {}
        worst = 0
        for index, node in enumerate(self.nodes):
            start = 0
            for kind, ref in node.operands:
                if kind == "node":
                    start = max(start, depth[ref])
            finish = start + latency_of(node.opcode)
            depth[index] = finish
            worst = max(worst, finish)
        return worst

    # ------------------------------------------------------------------
    # Canonical signature.
    # ------------------------------------------------------------------
    def signature(self) -> str:
        """A canonical string identifying the computation.

        Commutative operands are sorted by their sub-expression string, so
        ``a*b + c`` and ``b*a + c`` share a signature.  Input leaves are
        rendered with their input index, which is itself assigned in first-
        appearance order when patterns are built, making signatures stable
        across extraction sites.  Computed once per pattern (patterns are
        not mutated after construction).
        """
        if self._signature is not None:
            return self._signature
        memo: Dict[int, str] = {}

        def render(index: int) -> str:
            if index in memo:
                return memo[index]
            node = self.nodes[index]
            parts = []
            for kind, ref in node.operands:
                if kind == "in":
                    parts.append(f"i{ref}")
                elif kind == "const":
                    parts.append(f"c{ref}")
                else:
                    parts.append(render(ref))
            if node.opcode in COMMUTATIVE_OPCODES:
                parts = sorted(parts)
            text = f"{node.opcode.value}({','.join(parts)})"
            memo[index] = text
            return text

        rendered_outputs = sorted(render(i) for i in self.outputs)
        self._signature = f"{self.num_inputs}|" + ";".join(rendered_outputs)
        return self._signature

    # ------------------------------------------------------------------
    # Evaluation (semantics for the simulators).
    # ------------------------------------------------------------------
    def evaluate(self, inputs: Sequence[int]):
        """Execute the pattern on integer inputs; returns the first output.

        Multi-output patterns return a tuple.  Each node computes its
        opcode's function in :mod:`repro.ir.semantics`, wrapped to 32 bits
        as a register write of ``I32``, matching the simulated machine.
        """
        if len(inputs) != self.num_inputs:
            raise PatternError(
                f"pattern {self.name} expects {self.num_inputs} inputs, "
                f"got {len(inputs)}"
            )
        values: Dict[int, int] = {}

        def operand_value(operand) -> int:
            kind, ref = operand
            if kind == "in":
                return int(inputs[ref])
            if kind == "const":
                return int(ref)
            return values[ref]

        for index, node in enumerate(self.nodes):
            try:
                fn = _PRIMITIVES[node.opcode]
            except KeyError:
                raise PatternError(
                    f"opcode {node.opcode} cannot appear in a pattern") from None
            values[index] = _wrap_i32(
                fn(*[operand_value(o) for o in node.operands]))

        results = tuple(values[i] for i in self.outputs)
        return results[0] if len(results) == 1 else results

    # ------------------------------------------------------------------
    # Display.
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        return (f"Pattern {self.name}: {self.size} ops, "
                f"{self.num_inputs} in / {self.num_outputs} out, "
                f"hw latency {self.hardware_latency()} cyc, "
                f"{self.hardware_area_kgates():.1f} kgates")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Pattern {self.name} {self.signature()}>"


def expand_pattern(pattern: Pattern, operands: Sequence,
                   dest: Optional[VirtualRegister]) -> List[Instruction]:
    """``dest = pattern(*operands)`` as base IR instructions.

    Each node writes a fresh ``I32`` temporary, as :meth:`Pattern.evaluate`
    wraps every node to 32 bits; constants are not wrapped.
    ``dest`` (``None`` for a void op) takes the first output once, after
    the last node, so an in-place ``%a = custom(%a, ...)`` reads its
    inputs unchanged.  The output node writes ``dest`` itself when it is
    last and ``dest`` is a pointer or an integer of at most 32 bits
    (wrapping to it directly equals wrapping to ``I32`` first); otherwise
    a final ``MOV`` wraps the 32-bit output to ``dest``'s type.
    """
    if len(operands) != pattern.num_inputs:
        raise PatternError(
            f"pattern {pattern.name} expects {pattern.num_inputs} inputs, "
            f"got {len(operands)}"
        )
    output = pattern.outputs[0]
    last = len(pattern.nodes) - 1
    direct = dest is not None and (
        isinstance(dest.type, PointerType)
        or isinstance(dest.type, IntType) and dest.type.bits <= 32)
    temps: List[VirtualRegister] = []
    instructions: List[Instruction] = []
    for index, node in enumerate(pattern.nodes):
        args = []
        for kind, ref in node.operands:
            if kind == "in":
                args.append(operands[ref])
            elif kind == "const":
                args.append(Constant(ref, I32 if I32.wrap(ref) == ref else I64))
            else:
                args.append(temps[ref])
        if index == output == last and direct:
            target = dest
        else:
            target = VirtualRegister(I32, pattern.name)
        temps.append(target)
        instructions.append(Instruction(node.opcode, target, args))
    if dest is not None and temps[output] is not dest:
        instructions.append(Instruction(Opcode.MOV, dest, [temps[output]]))
    return instructions


def pattern_from_cut(instructions: Iterable[Instruction],
                     dfg) -> Tuple[Pattern, List, List[VirtualRegister]]:
    """Build a pattern from a convex cut of a dataflow graph.

    Returns ``(pattern, input_values, output_registers)`` where
    ``input_values`` are the IR values feeding the cut (in the pattern's
    input order) and ``output_registers`` the registers the cut defines for
    consumers outside it.
    """
    index = dfg.index
    mask = index.mask_of(instructions)
    # Deterministic topological order within the cut: follow block order.
    positions = index.positions(mask)

    node_index: Dict[int, int] = {}
    input_order: List = []
    input_keys: Dict = {}
    nodes: List[PatternNode] = []

    def input_slot(value) -> int:
        key = value.id if isinstance(value, VirtualRegister) else ("const", str(value))
        if key not in input_keys:
            input_keys[key] = len(input_order)
            input_order.append(value)
        return input_keys[key]

    # The last definition of each register in the cut; an operand reads
    # it as a node only once that definition has been emitted.
    producers = {index.instructions[p].dest.id: p for p in positions
                 if index.instructions[p].dest is not None}

    for position in positions:
        inst = index.instructions[position]
        operands: List[Tuple] = []
        for operand in inst.operands:
            if isinstance(operand, VirtualRegister):
                producer = producers.get(operand.id)
                if producer in node_index:
                    operands.append(("node", node_index[producer]))
                else:
                    operands.append(("in", input_slot(operand)))
            elif isinstance(operand, Constant) and isinstance(operand.value, int):
                operands.append(("const", operand.value))
            else:
                operands.append(("in", input_slot(operand)))
        node_index[position] = len(nodes)
        nodes.append(PatternNode(inst.opcode, tuple(operands)))

    output_positions = index.output_positions(mask)
    outputs = [node_index[p] for p in output_positions]
    output_registers = [index.instructions[p].dest for p in output_positions]

    pattern = Pattern(nodes, outputs, num_inputs=len(input_order))
    return pattern, input_order, output_registers
