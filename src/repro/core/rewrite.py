"""Rewriting IR to use selected custom operations.

Two entry points:

* :func:`apply_selection` replaces the recorded occurrences of selected
  candidates inside the module they were identified in.
* :func:`rewrite_with_library` re-discovers occurrences of a machine's
  *already registered* extensions in a fresh module (the application-area
  / ISA-family use case: operations chosen for one set of programs applied
  to a program the customizer never saw).

Both resolve operations through the process-wide extension library.

Both only rewrite single-output occurrences — the machine's custom
operations write one register — and both verify that collapsing the cut
into one instruction cannot reorder it past a consumer.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from ..arch.machine import MachineDescription
from ..ir import BasicBlock, Instruction, Module, Opcode, VirtualRegister
from ..ir.instructions import custom as make_custom
from .identification import (
    SINGLE_OUTPUT_CONFIG, Candidate, Occurrence, enumerate_block_cuts,
)
from .library import global_extension_library
from .patterns import pattern_from_cut


class RewriteError(Exception):
    """Raised when an occurrence cannot be safely rewritten."""


def _rewrite_occurrence(block: BasicBlock, occurrence: Occurrence,
                        op_name: str) -> bool:
    """Replace one occurrence with a CUSTOM instruction; returns success."""
    if len(occurrence.output_registers) != 1:
        return False
    cut = [inst for inst in occurrence.instructions if inst.block is block]
    if len(cut) != len(occurrence.instructions):
        return False  # some instructions were already rewritten or moved
    cut_ids = {id(inst) for inst in cut}
    indices = [i for i, inst in enumerate(block.instructions) if id(inst) in cut_ids]
    if len(indices) != len(cut):
        return False
    last_index = max(indices)
    output = occurrence.output_registers[0]

    # Safety: no instruction between the cut members and the insertion point
    # may read the output register (it would see the value too early), and
    # no instruction before the insertion point may read it after the first
    # cut definition is removed.
    first_index = min(indices)
    for position in range(first_index, last_index):
        inst = block.instructions[position]
        if id(inst) in cut_ids:
            continue
        if output in inst.uses():
            return False

    # Build the replacement and splice it in at the last cut position.
    replacement = make_custom(output, op_name, list(occurrence.input_values))
    replacement.block = block
    new_instructions: List[Instruction] = []
    for i, inst in enumerate(block.instructions):
        if id(inst) in cut_ids:
            if i == last_index:
                new_instructions.append(replacement)
            continue
        new_instructions.append(inst)
    block.instructions = new_instructions
    return True


def apply_selection(module: Module,
                    selected: Sequence[Candidate]) -> Dict[str, int]:
    """Rewrite all recorded occurrences of ``selected`` candidates in place.

    Every selected pattern must already be registered in the extension
    library (the registration assigns the operation name).  Returns a map
    from operation name to the number of sites rewritten.
    """
    from ..exec.cache import forget_fingerprint

    forget_fingerprint(module)
    library = global_extension_library()
    rewritten: Dict[str, int] = {}
    for candidate in selected:
        entry = library.find_by_signature(candidate.signature)
        if entry is None:
            raise RewriteError(
                f"candidate {candidate.pattern.name} is not registered in the library"
            )
        count = 0
        for occurrence in candidate.occurrences:
            if occurrence.function not in module.functions:
                continue
            function = module.get_function(occurrence.function)
            try:
                block = function.get_block(occurrence.block)
            except KeyError:
                continue
            if _rewrite_occurrence(block, occurrence, entry.name):
                count += 1
        rewritten[entry.name] = count
    return rewritten


def rewrite_with_library(module: Module,
                         machine: MachineDescription) -> Dict[str, int]:
    """Find and rewrite occurrences of ``machine``'s custom ops in ``module``.

    Used when applying an existing customized ISA to a program that was not
    part of the customization set (§6.1: the processor was tailored to an
    application *area*; new code in that area should still benefit).  Only
    operations the machine implements are matched, so a module can be
    retargeted to any member of a customized family.  Larger patterns are
    matched first so overlapping smaller ones do not steal their
    instructions.
    """
    from ..exec.cache import forget_fingerprint

    forget_fingerprint(module)
    library = global_extension_library()
    by_signature: Dict[str, str] = {}
    for name in machine.custom_ops:
        entry = library.entry(name)
        if entry is not None:
            by_signature[entry.pattern.signature()] = entry.name
    if not by_signature:
        return {}
    rewritten: Dict[str, int] = {name: 0 for name in sorted(by_signature.values())}

    for function in module.functions.values():
        for block in list(function.blocks):
            # Re-enumerate until no further match applies in this block
            # (each rewrite changes the instruction list).
            progress = True
            while progress:
                progress = False
                matches = []
                for cut, dfg in enumerate_block_cuts(block, SINGLE_OUTPUT_CONFIG):
                    pattern, inputs, outputs = pattern_from_cut(
                        [inst for inst in block.instructions if inst in cut], dfg
                    )
                    name = by_signature.get(pattern.signature())
                    if name is None or len(outputs) != 1:
                        continue
                    matches.append((pattern.size, cut, inputs, outputs, name))
                matches.sort(key=lambda m: -m[0])
                for size, cut, inputs, outputs, name in matches:
                    occurrence = Occurrence(
                        function=function.name,
                        block=block.name,
                        instructions=[inst for inst in block.instructions if inst in cut],
                        frequency=block.frequency,
                        input_values=inputs,
                        output_registers=outputs,
                    )
                    if _rewrite_occurrence(block, occurrence, name):
                        rewritten[name] += 1
                        progress = True
                        break
    return {name: count for name, count in rewritten.items() if count}


def custom_op_usage(module: Module) -> Dict[str, int]:
    """Static count of CUSTOM instructions per operation name."""
    usage: Dict[str, int] = {}
    for function in module.functions.values():
        for inst in function.instructions():
            if inst.opcode is Opcode.CUSTOM:
                usage[inst.custom_op] = usage.get(inst.custom_op, 0) + 1
    return usage
