"""Per-basic-block dataflow graphs (DFGs).

The DFG is the central data structure of the ISA-customization engine
(:mod:`repro.core`): instruction-set-extension candidates are convex
subgraphs of these graphs.  It is also used by the VLIW list scheduler,
which schedules the same graph against the machine's resource tables.

Nodes of the DFG are :class:`Instruction` objects of one basic block; each
maps to ``{successor: kind}`` and ``{predecessor: kind}`` dicts in edge
insertion order.  A pair of nodes has at most one edge, and every edge
points forward in block order.  Edges are:

* true (flow) dependences through virtual registers,
* memory dependences (conservative: every pair of memory operations where
  at least one is a store is ordered, as is every call), and
* anti/output dependences through registers (needed because the IR is not
  in SSA form).

:class:`BlockIndex` is the bitset view of one graph that the convexity
and cut-I/O queries (and the ISE enumerator) run on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set

from .block import BasicBlock
from .instructions import Instruction, Opcode
from .values import Constant, Value, VirtualRegister


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _operand_key(value: Value):
    """Identity of an operand value: a register by id, anything else by
    its printed form and type."""
    if isinstance(value, VirtualRegister):
        return value.id
    return (str(value), str(value.type))


class BlockIndex:
    """Bitset view of one block's dependence graph.

    Bit ``i`` of a *node mask* stands for ``block.instructions[i]`` (the
    terminator, when present, is the last position).  Every dependence
    edge points forward in block order, so descendant and ancestor
    closures take one backward and one forward sweep.  Bit ``k`` of a
    *key mask* stands for one distinct operand value (see
    :func:`_operand_key`), numbered in order of first appearance in the
    block.  With these, a cut of the graph is an int and every question
    the ISE enumerator asks about it is a few ``|``/``&`` operations:

    * convex: ``desc(cut) & anc(cut) & ~cut == 0`` — no node outside the
      cut is both reachable from it and able to reach it;
    * inputs: ``uses(cut) & ~defs(cut)``;
    * outputs: the cut's definitions whose register has a reader outside
      the cut, where a register that is live out of the block counts as
      read at a virtual position one past its end.
    """

    def __init__(self, dfg: "DataflowGraph") -> None:
        block = dfg.block
        self.instructions: List[Instruction] = list(block.instructions)
        self.position: Dict[Instruction, int] = {
            inst: i for i, inst in enumerate(self.instructions)}
        count = len(self.instructions)
        position = self.position

        #: direct successors/predecessors of each position (all edge kinds).
        self.succ = [0] * count
        self.pred = [0] * count
        for u, succs in dfg.successors.items():
            for v in succs:
                pu, pv = position[u], position[v]
                if pu >= pv:
                    raise ValueError(
                        f"dependence edge {u} -> {v} points against block order")
                self.succ[pu] |= 1 << pv
                self.pred[pv] |= 1 << pu

        #: strict descendants/ancestors of each position.
        self.desc = [0] * count
        for i in reversed(range(count)):
            reach = self.succ[i]
            for j in _bits(self.succ[i]):
                reach |= self.desc[j]
            self.desc[i] = reach
        self.anc = [0] * count
        for i in range(count):
            reach = self.pred[i]
            for j in _bits(self.pred[i]):
                reach |= self.anc[j]
            self.anc[i] = reach

        #: graph nodes that may join a custom operation.
        self.fusable = 0
        for inst in dfg.successors:
            if inst.is_fusable() and inst.dest is not None:
                self.fusable |= 1 << position[inst]
        #: fusable dependence neighbours (either direction) of each position.
        self.adjacent = [(self.succ[i] | self.pred[i]) & self.fusable
                         for i in range(count)]

        keys: Dict[object, int] = {}
        #: one representative value per operand key.
        self.values: List[Value] = []
        #: keys of values that are not constants.
        self.variable_keys = 0

        def key_bit(value: Value) -> int:
            key = _operand_key(value)
            index = keys.get(key)
            if index is None:
                index = keys[key] = len(self.values)
                self.values.append(value)
                if not isinstance(value, Constant):
                    self.variable_keys |= 1 << index
            return 1 << index

        #: operand keys read and the register key written, per position.
        self.uses = [0] * count
        self.defs = [0] * count
        users: Dict[int, int] = {}
        for i, inst in enumerate(self.instructions):
            for operand in inst.operands:
                bit = key_bit(operand)
                self.uses[i] |= bit
                if isinstance(operand, VirtualRegister):
                    users[bit] = users.get(bit, 0) | (1 << i)
            if inst.dest is not None:
                self.defs[i] = key_bit(inst.dest)

        #: registers defined here and possibly read by other blocks.
        self.live_out = _live_out_registers(block)
        outside = 1 << count
        #: readers of each position's destination register.
        self.escape = [0] * count
        for i, inst in enumerate(self.instructions):
            if inst.dest is not None:
                readers = users.get(self.defs[i], 0)
                if inst.dest in self.live_out:
                    readers |= outside
                self.escape[i] = readers

    # ------------------------------------------------------------------
    # Node masks.
    # ------------------------------------------------------------------
    def mask_of(self, instructions: Iterable[Instruction]) -> int:
        """The node mask of ``instructions`` (all from this block)."""
        mask = 0
        for inst in instructions:
            mask |= 1 << self.position[inst]
        return mask

    def positions(self, mask: int) -> List[int]:
        """The positions of ``mask``, ascending."""
        return list(_bits(mask))

    def members(self, mask: int) -> List[Instruction]:
        """The instructions of ``mask`` in block order."""
        return [self.instructions[i] for i in _bits(mask)]

    def is_convex(self, mask: int) -> bool:
        """True if no path leaves ``mask`` and re-enters it."""
        desc = anc = 0
        for i in _bits(mask):
            desc |= self.desc[i]
            anc |= self.anc[i]
        return not desc & anc & ~mask

    def input_keys(self, mask: int) -> int:
        """Keys of the values ``mask`` reads but does not define."""
        uses = defs = 0
        for i in _bits(mask):
            uses |= self.uses[i]
            defs |= self.defs[i]
        return uses & ~defs

    def output_positions(self, mask: int) -> List[int]:
        """One position per register ``mask`` defines for a reader outside
        it: the register's last definition in the cut, listed in order of
        its first definition."""
        # The ISE enumerator calls this for every candidate cut, so the
        # bit loop is inlined rather than run through ``_bits``.
        escape, defs = self.escape, self.defs
        outside = ~mask
        outputs: Dict[int, int] = {}
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            if escape[i] & outside:
                outputs[defs[i]] = i
        return list(outputs.values())


@dataclass
class DataflowGraph:
    """The dependence graph of one basic block.

    ``successors`` and ``predecessors`` map each node, in block order, to
    its ``{neighbour: kind}`` edges (built by :func:`build_dataflow_graph`,
    the single source of dependences); :attr:`index` is their bitset view,
    built on first use, which answers the convexity and cut-I/O queries
    below and drives the ISE enumerator.  Add no edges after it is built.
    """

    block: BasicBlock
    successors: Dict[Instruction, Dict[Instruction, str]] = field(default_factory=dict)
    predecessors: Dict[Instruction, Dict[Instruction, str]] = field(default_factory=dict)
    _index: Optional[BlockIndex] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def index(self) -> BlockIndex:
        if self._index is None:
            self._index = BlockIndex(self)
        return self._index

    @property
    def nodes(self) -> List[Instruction]:
        return list(self.successors)

    def flow_edges(self) -> List[tuple]:
        """Only the true (register flow) dependence edges."""
        return [(u, v) for u, succs in self.successors.items()
                for v, kind in succs.items() if kind == "flow"]

    def is_convex(self, subset: Iterable[Instruction]) -> bool:
        """True if no path leaves ``subset`` and re-enters it.

        Convexity is the feasibility condition for collapsing a subgraph
        into a single custom operation: if a path escapes and returns, the
        fused operation would need its own result before it finished.
        """
        return self.index.is_convex(self.index.mask_of(subset))

    def subgraph_inputs(self, subset: Iterable[Instruction]) -> List[Value]:
        """Distinct values consumed by ``subset`` but produced outside it."""
        index = self.index
        return [index.values[k]
                for k in _bits(index.input_keys(index.mask_of(subset)))]

    def subgraph_outputs(self, subset: Iterable[Instruction]) -> List[VirtualRegister]:
        """Registers produced in ``subset`` that are used outside it (or live out)."""
        index = self.index
        return [index.instructions[i].dest
                for i in index.output_positions(index.mask_of(subset))]

    def critical_path_length(self, latency_of) -> int:
        """Length (in cycles) of the longest dependence chain.

        ``latency_of`` maps an :class:`Instruction` to its latency in cycles.
        """
        finish: Dict[Instruction, int] = {}
        for inst, preds in self.predecessors.items():
            start = max((finish[pred] for pred in preds), default=0)
            finish[inst] = start + latency_of(inst)
        return max(finish.values(), default=0)


def _live_out_registers(block: BasicBlock) -> Set[VirtualRegister]:
    """Registers defined in ``block`` and possibly read by other blocks."""
    defined = {inst.dest for inst in block.instructions if inst.dest is not None}
    function = block.function
    if function is None:
        return set()
    live: Set[VirtualRegister] = set()
    for other in function.blocks:
        if other is block:
            continue
        for inst in other.instructions:
            for reg in inst.uses():
                if reg in defined:
                    live.add(reg)
    # A register used by this block's own terminator also counts.
    term = block.terminator
    if term is not None:
        for reg in term.uses():
            if reg in defined:
                live.add(reg)
    return live


def build_dataflow_graph(block: BasicBlock,
                         include_terminator: bool = False) -> DataflowGraph:
    """Construct the dependence graph of ``block``.

    ``include_terminator`` controls whether the block terminator appears in
    the graph (the scheduler wants it; the ISE enumerator does not).
    """
    dfg = DataflowGraph(block)

    def add_edge(u: Instruction, v: Instruction, kind: str) -> None:
        # One edge per pair: a memory or barrier edge relabels an earlier
        # non-flow edge; a flow edge keeps its kind (its latency orders).
        old = dfg.successors[u].get(v)
        if old is None or (kind in ("memory", "barrier") and old != "flow"):
            dfg.successors[u][v] = dfg.predecessors[v][u] = kind

    instructions = (
        list(block.instructions) if include_terminator
        else block.non_terminator_instructions()
    )

    last_def: Dict[int, Instruction] = {}
    uses_since_def: Dict[int, List[Instruction]] = {}
    last_store: Optional[Instruction] = None
    loads_since_store: List[Instruction] = []
    last_barrier: Optional[Instruction] = None

    for inst in instructions:
        dfg.successors[inst], dfg.predecessors[inst] = {}, {}

        # True dependences (register flow).
        for reg in inst.uses():
            producer = last_def.get(reg.id)
            if producer is not None and producer is not inst:
                add_edge(producer, inst, "flow")
            uses_since_def.setdefault(reg.id, []).append(inst)

        # Anti dependences (write-after-read) and output dependences
        # (write-after-write) — required because the IR is not SSA.
        if inst.dest is not None:
            reg_id = inst.dest.id
            for reader in uses_since_def.get(reg_id, []):
                if reader is not inst:
                    add_edge(reader, inst, "anti")
            prev = last_def.get(reg_id)
            if prev is not None and prev is not inst:
                add_edge(prev, inst, "output")
            last_def[reg_id] = inst
            uses_since_def[reg_id] = []

        # Memory dependences: conservative store ordering.
        if inst.opcode is Opcode.LOAD:
            if last_store is not None:
                add_edge(last_store, inst, "memory")
            loads_since_store.append(inst)
        elif inst.opcode is Opcode.STORE:
            if last_store is not None:
                add_edge(last_store, inst, "memory")
            for load_inst in loads_since_store:
                add_edge(load_inst, inst, "memory")
            last_store = inst
            loads_since_store = []

        # Calls are full barriers (memory + ordering).
        if inst.opcode is Opcode.CALL:
            if last_barrier is not None:
                add_edge(last_barrier, inst, "barrier")
            if last_store is not None:
                add_edge(last_store, inst, "memory")
            for load_inst in loads_since_store:
                add_edge(load_inst, inst, "memory")
            last_store = inst
            loads_since_store = []
            last_barrier = inst

        # The terminator depends on everything with a side effect so it
        # schedules last.
        if inst.is_terminator():
            for other in instructions:
                if other is inst:
                    continue
                if other.has_side_effects() or other.opcode in (Opcode.CALL, Opcode.STORE):
                    add_edge(other, inst, "order")

    return dfg
