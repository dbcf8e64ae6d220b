"""Identification of instruction-set-extension candidates.

Candidates are *convex cuts* of basic-block dataflow graphs containing only
fusable operations (no memory accesses, calls or control flow), bounded by
the register-file port constraints of the custom functional unit
(``max_inputs`` read ports, ``max_outputs`` write ports).  Enumeration is
the classic grow-from-seed search with convexity and I/O pruning
(Atasu/Pozzi/Ienne, DAC 2003), bounded by ``max_size`` and a per-block
candidate cap.  It runs on the block's bitset index
(:class:`~repro.ir.dataflow.BlockIndex`): a cut is an int mask over
block positions that carries its uses, definitions and reachability
closures and grows by OR, convexity is one ``&`` against those closures,
and a cut is deduplicated by its mask.  Seeds and growth follow block
order, so the cuts found (and which survive the cap) depend only on the
block, not on object addresses.

Identical computations found at different sites (or in different programs)
are merged by the patterns' canonical signatures, and each candidate
accumulates its occurrence list with the execution frequency of the
containing block — the quantity the selection stage trades off against
area and opcode-space cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..arch.machine import MachineDescription
from ..arch.operations import classify
from ..ir import (
    BasicBlock, DataflowGraph, Instruction, Module,
    build_dataflow_graph, estimate_block_frequencies,
)
from .patterns import Pattern, pattern_from_cut


@dataclass
class Occurrence:
    """One site where a candidate pattern appears."""

    function: str
    block: str
    instructions: List[Instruction]
    frequency: float
    input_values: List = field(default_factory=list)
    output_registers: List = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.instructions)


@dataclass
class Candidate:
    """A candidate ISA extension: a pattern plus everywhere it occurs."""

    pattern: Pattern
    occurrences: List[Occurrence] = field(default_factory=list)

    @property
    def signature(self) -> str:
        return self.pattern.signature()

    @property
    def static_count(self) -> int:
        return len(self.occurrences)

    @property
    def dynamic_count(self) -> float:
        return sum(occ.frequency for occ in self.occurrences)

    def cycles_saved_per_use(self, machine: MachineDescription) -> int:
        """Latency saved each time the fused operation replaces the cut."""
        software = self.pattern.software_latency(
            lambda opcode: machine.latency(classify(opcode))
        )
        hardware = self.pattern.hardware_latency()
        return max(0, software - hardware)

    def estimated_benefit(self, machine: MachineDescription) -> float:
        """Weighted cycle savings across all occurrences."""
        return self.cycles_saved_per_use(machine) * self.dynamic_count

    def area_cost(self) -> float:
        return self.pattern.hardware_area_kgates()


@dataclass(frozen=True)
class EnumerationConfig:
    """Constraints on the candidate search."""

    max_inputs: int = 4
    max_outputs: int = 2
    max_size: int = 10
    min_size: int = 2
    max_candidates_per_block: int = 512


#: The search the customizer and the rewriter run: a machine's custom
#: operations write one register, so only single-output cuts can be used.
SINGLE_OUTPUT_CONFIG = EnumerationConfig(max_outputs=1)


def _cut_masks(block: BasicBlock,
               config: EnumerationConfig) -> Tuple[DataflowGraph, List[int]]:
    """The dataflow graph of ``block`` and its feasible cuts as node masks
    over ``dfg.index`` (see :func:`enumerate_block_cuts`)."""
    dfg = build_dataflow_graph(block)
    index = dfg.index
    fusable = index.fusable
    if fusable.bit_count() < config.min_size:
        return dfg, []
    adjacent, uses, defs = index.adjacent, index.uses, index.defs
    desc, anc, variable = index.desc, index.anc, index.variable_keys
    max_size, min_size = config.max_size, config.min_size
    max_inputs, max_outputs = config.max_inputs, config.max_outputs
    limit = config.max_candidates_per_block

    # Inputs no fusable node defines, and outputs some reader that can
    # never join a cut consumes, stay inputs and outputs of every larger
    # cut.  A cut with too many of either has no feasible superset, so it
    # is not grown; every cut it would have reached is a superset of it,
    # so the feasible cuts and their order are unchanged.
    fusable_defs = 0
    for i in index.positions(fusable):
        fusable_defs |= defs[i]
    external_inputs = variable & ~fusable_defs
    pinned_outputs = [defs[i] if index.escape[i] & ~fusable else 0
                      for i in range(len(defs))]

    masks: List[int] = []
    seen: Set[int] = set()
    seeds = fusable
    while seeds and len(masks) < limit:
        low = seeds & -seeds
        seeds ^= low
        seed = low.bit_length() - 1
        # A cut: (mask, uses, defs, descendants, ancestors, pinned outputs,
        # neighbours, size).
        frontier = [(low, uses[seed], defs[seed], desc[seed], anc[seed],
                     pinned_outputs[seed], adjacent[seed], 1)]
        while frontier and len(masks) < limit:
            (mask, cut_uses, cut_defs, cut_desc, cut_anc, cut_pinned,
             neighbours, size) = frontier.pop()
            if mask in seen:
                continue
            seen.add(mask)
            if size > max_size:
                continue
            if cut_desc & cut_anc & ~mask:
                continue  # a path leaves the cut and re-enters it
            if ((cut_uses & external_inputs).bit_count() > max_inputs
                    or cut_pinned.bit_count() > max_outputs):
                continue
            if (size >= min_size
                    and (cut_uses & ~cut_defs & variable).bit_count() <= max_inputs
                    and 1 <= len(index.output_positions(mask)) <= max_outputs):
                masks.append(mask)
            if size >= max_size:
                continue
            # Push the highest position first so growth pops in block order.
            pending = neighbours
            while pending:
                node = pending.bit_length() - 1
                bit = 1 << node
                pending ^= bit
                grown = mask | bit
                if grown not in seen:
                    frontier.append((
                        grown, cut_uses | uses[node], cut_defs | defs[node],
                        cut_desc | desc[node], cut_anc | anc[node],
                        cut_pinned | pinned_outputs[node],
                        (neighbours | adjacent[node]) & ~grown, size + 1))
    return dfg, masks


def enumerate_block_cuts(block: BasicBlock,
                         config: EnumerationConfig) -> List[Tuple[Set[Instruction], DataflowGraph]]:
    """Enumerate convex, I/O-feasible cuts of one basic block.

    Returns ``(cut, dfg)`` tuples.  The search grows connected subgraphs
    from each seed node by repeatedly adding dataflow neighbours, pruning
    non-convex subgraphs and keeping the port-feasible ones.  Cuts are
    int masks over the block's :class:`~repro.ir.dataflow.BlockIndex`, so
    each one is visited once and seeds and growth both follow block
    order: the result depends only on the block, never on where its
    instructions sit in memory.
    """
    dfg, masks = _cut_masks(block, config)
    return [(set(dfg.index.members(mask)), dfg) for mask in masks]


def identify_candidates(module: Module,
                        config: Optional[EnumerationConfig] = None) -> List[Candidate]:
    """Enumerate and merge ISE candidates across a module.

    When a function carries no measured profile (all block frequencies are
    the default 1.0), static loop-nesting estimates are computed first so
    inner-loop candidates dominate.
    """
    config = config or EnumerationConfig()
    by_signature: Dict[str, Candidate] = {}

    for function in module.functions.values():
        if all(b.frequency == 1.0 for b in function.blocks):
            estimate_block_frequencies(function)
        for block in function.blocks:
            dfg, masks = _cut_masks(block, config)
            for mask in masks:
                instructions = dfg.index.members(mask)
                pattern, inputs, outputs = pattern_from_cut(instructions, dfg)
                if pattern.size < config.min_size:
                    continue
                signature = pattern.signature()
                candidate = by_signature.get(signature)
                if candidate is None:
                    candidate = by_signature[signature] = Candidate(pattern=pattern)
                candidate.occurrences.append(Occurrence(
                    function=function.name,
                    block=block.name,
                    instructions=instructions,
                    frequency=block.frequency,
                    input_values=inputs,
                    output_registers=outputs,
                ))

    candidates = list(by_signature.values())
    candidates.sort(key=lambda c: -c.dynamic_count * max(1, c.pattern.size))
    return candidates


def filter_overlapping_occurrences(candidates: List[Candidate]) -> None:
    """Drop occurrences that share instructions with a better candidate.

    Selection assumes each occurrence can be rewritten independently; when
    two candidates claim the same IR instruction only the candidate that
    appears earlier in the (benefit-sorted) list keeps that site.
    """
    claimed: Set[int] = set()
    for candidate in candidates:
        kept: List[Occurrence] = []
        for occurrence in candidate.occurrences:
            ids = {id(inst) for inst in occurrence.instructions}
            if ids & claimed:
                continue
            kept.append(occurrence)
            claimed |= ids
        candidate.occurrences = kept
