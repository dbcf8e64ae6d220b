"""Machine-independent optimization passes.

All passes operate in place on non-SSA IR and return the number of changes
they made, so the pass manager can iterate to a fixed point.  They are
deliberately conservative: a pass only fires when it can prove (locally)
that the transformation preserves semantics, because every mis-compile
shows up later as a silent divergence between the functional reference
simulator and the cycle simulator.  Constant folding computes with the
operation table of :mod:`repro.ir.semantics`, the one the engines run, so
a folded constant is the value the instruction would have produced.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..ir import (
    BasicBlock, Constant, Function, Instruction, IntType, Module, Opcode,
    VirtualRegister, remove_unreachable_blocks,
)
from ..ir.instructions import move
from ..ir.semantics import BINARY, UNARY, SimulationError, select
from ..ir.types import FloatType, I1, I32


# ----------------------------------------------------------------------
# Constant folding and algebraic simplification.
# ----------------------------------------------------------------------

#: the opcodes folded when every operand is an integer constant: the
#: integer binary operations and NEG/NOT/ABS.  Float operations stay
#: unfolded.
_FOLDABLE = frozenset({
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM, Opcode.AND,
    Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR, Opcode.SAR, Opcode.MIN,
    Opcode.MAX, Opcode.CMPEQ, Opcode.CMPNE, Opcode.CMPLT, Opcode.CMPLE,
    Opcode.CMPGT, Opcode.CMPGE, Opcode.NEG, Opcode.NOT, Opcode.ABS,
})


def constant_fold(function: Function) -> int:
    """Replace operations on constant operands with constant moves.

    A division by zero is left for run time to report.
    """
    changes = 0
    for block in function.blocks:
        for inst in block.instructions:
            if inst.dest is None or inst.opcode is Opcode.MOV:
                continue
            ops = inst.operands
            if not ops or not all(isinstance(op, Constant) for op in ops):
                continue
            if inst.opcode is Opcode.SELECT and isinstance(ops[0].value, int):
                inst.opcode = Opcode.MOV
                inst.operands = [select(ops[0].value, ops[1], ops[2])]
                changes += 1
                continue
            fn = (BINARY if len(ops) == 2 else UNARY).get(inst.opcode)
            if (inst.opcode not in _FOLDABLE or fn is None
                    or not all(isinstance(op.value, int) for op in ops)):
                continue
            try:
                result = fn(*(op.value for op in ops))
            except SimulationError:
                continue
            result_type = inst.dest.type
            if isinstance(result_type, IntType):
                result = result_type.wrap(result)
            inst.opcode = Opcode.MOV
            inst.operands = [Constant(result, result_type if isinstance(result_type, IntType) else I32)]
            changes += 1
    return changes


def _is_const(value, number: Optional[int] = None) -> bool:
    return (isinstance(value, Constant) and isinstance(value.value, int)
            and (number is None or value.value == number))


def _power_of_two(value) -> Optional[int]:
    if _is_const(value) and value.value > 0 and (value.value & (value.value - 1)) == 0:
        return value.value.bit_length() - 1
    return None


def algebraic_simplify(function: Function) -> int:
    """Apply identity/strength-reduction rewrites (x+0, x*1, x*2^k, ...)."""
    changes = 0
    for block in function.blocks:
        for inst in block.instructions:
            if inst.dest is None:
                continue
            op = inst.opcode
            ops = inst.operands
            new: Optional[Tuple[Opcode, list]] = None

            if op is Opcode.ADD:
                if _is_const(ops[1], 0):
                    new = (Opcode.MOV, [ops[0]])
                elif _is_const(ops[0], 0):
                    new = (Opcode.MOV, [ops[1]])
            elif op is Opcode.SUB:
                if _is_const(ops[1], 0):
                    new = (Opcode.MOV, [ops[0]])
            elif op is Opcode.MUL:
                if _is_const(ops[1], 0) or _is_const(ops[0], 0):
                    new = (Opcode.MOV, [Constant(0, I32)])
                elif _is_const(ops[1], 1):
                    new = (Opcode.MOV, [ops[0]])
                elif _is_const(ops[0], 1):
                    new = (Opcode.MOV, [ops[1]])
                else:
                    shift = _power_of_two(ops[1])
                    if shift is not None and shift > 0:
                        new = (Opcode.SHL, [ops[0], Constant(shift, I32)])
                    else:
                        shift = _power_of_two(ops[0])
                        if shift is not None and shift > 0:
                            new = (Opcode.SHL, [ops[1], Constant(shift, I32)])
            elif op in (Opcode.AND,):
                if _is_const(ops[1], 0) or _is_const(ops[0], 0):
                    new = (Opcode.MOV, [Constant(0, I32)])
            elif op in (Opcode.OR, Opcode.XOR):
                if _is_const(ops[1], 0):
                    new = (Opcode.MOV, [ops[0]])
                elif _is_const(ops[0], 0):
                    new = (Opcode.MOV, [ops[1]])
            elif op in (Opcode.SHL, Opcode.SHR, Opcode.SAR):
                if _is_const(ops[1], 0):
                    new = (Opcode.MOV, [ops[0]])
            elif op is Opcode.DIV:
                if _is_const(ops[1], 1):
                    new = (Opcode.MOV, [ops[0]])

            if new is not None:
                inst.opcode, inst.operands = new[0], list(new[1])
                changes += 1
    return changes


# ----------------------------------------------------------------------
# Local copy propagation and common-subexpression elimination.
# ----------------------------------------------------------------------

def copy_propagate(function: Function) -> int:
    """Within each block, forward-substitute ``x = mov y`` copies.

    Substitution stops as soon as either side of the copy is redefined,
    which keeps the transformation correct on non-SSA IR.
    """
    changes = 0
    for block in function.blocks:
        copies: Dict[int, object] = {}   # dest reg id -> source value
        for inst in block.instructions:
            # Use available copies.
            for i, operand in enumerate(inst.operands):
                if isinstance(operand, VirtualRegister) and operand.id in copies:
                    inst.operands[i] = copies[operand.id]
                    changes += 1
            # Kill copies whose source or destination is redefined.
            if inst.dest is not None:
                dead = [dst for dst, src in copies.items()
                        if dst == inst.dest.id
                        or (isinstance(src, VirtualRegister) and src.id == inst.dest.id)]
                for key in dead:
                    del copies[key]
            # Record new copy.
            if (inst.opcode is Opcode.MOV and inst.dest is not None
                    and (isinstance(inst.operands[0], (Constant, VirtualRegister)))):
                source = inst.operands[0]
                if not (isinstance(source, VirtualRegister) and source.id == inst.dest.id):
                    copies[inst.dest.id] = source
    return changes


def _expression_key(inst: Instruction):
    """A hashable key identifying the computation an instruction performs."""
    parts = [inst.opcode.value, inst.custom_op or ""]
    for op in inst.operands:
        if isinstance(op, VirtualRegister):
            parts.append(("reg", op.id))
        elif isinstance(op, Constant):
            parts.append(("const", op.value, str(op.type)))
        else:
            parts.append(("other", str(op)))
    return tuple(parts)


def local_cse(function: Function) -> int:
    """Eliminate repeated pure computations within each basic block."""
    changes = 0
    for block in function.blocks:
        available: Dict[tuple, VirtualRegister] = {}
        replacements: Dict[int, VirtualRegister] = {}
        for inst in block.instructions:
            # Apply pending replacements to operands first.
            for i, operand in enumerate(inst.operands):
                if isinstance(operand, VirtualRegister) and operand.id in replacements:
                    inst.operands[i] = replacements[operand.id]
                    changes += 1

            if inst.dest is None:
                continue
            killed_reg = inst.dest.id
            # Any expression reading or producing the redefined register dies.
            dead_keys = []
            for key, reg in available.items():
                if reg.id == killed_reg:
                    dead_keys.append(key)
                    continue
                for part in key:
                    if isinstance(part, tuple) and part[0] == "reg" and part[1] == killed_reg:
                        dead_keys.append(key)
                        break
            for key in dead_keys:
                del available[key]
            # Replacement chains through a redefined register also die.
            replacements = {
                k: v for k, v in replacements.items()
                if k != killed_reg and v.id != killed_reg
            }

            if not inst.is_pure() or inst.opcode is Opcode.MOV:
                continue
            key = _expression_key(inst)
            previous = available.get(key)
            if previous is not None:
                # Rewrite this instruction into a copy of the earlier result.
                inst.opcode = Opcode.MOV
                inst.operands = [previous]
                inst.custom_op = None
                changes += 1
            else:
                available[key] = inst.dest
    return changes


# ----------------------------------------------------------------------
# Dead code elimination.
# ----------------------------------------------------------------------

def dead_code_elimination(function: Function) -> int:
    """Remove pure instructions whose results are never read.

    A register is *live* if any instruction anywhere in the function reads
    it; because the IR is not SSA this is a conservative whole-function
    notion of liveness, applied iteratively.
    """
    removed = 0
    while True:
        used: Set[int] = set()
        for inst in function.instructions():
            for reg in inst.uses():
                used.add(reg.id)
        victims: List[Tuple[BasicBlock, Instruction]] = []
        for block in function.blocks:
            for inst in block.instructions:
                if inst.dest is None or not inst.is_pure():
                    continue
                if inst.dest.id not in used:
                    victims.append((block, inst))
        if not victims:
            break
        for block, inst in victims:
            block.remove(inst)
            removed += 1
    return removed


# ----------------------------------------------------------------------
# CFG simplification.
# ----------------------------------------------------------------------

def simplify_cfg(function: Function) -> int:
    """Remove unreachable blocks, thread trivial jumps, merge chains."""
    changes = remove_unreachable_blocks(function)

    # Thread jumps to blocks that only contain a single jump.
    def final_target(block: BasicBlock, seen: Set[str]) -> BasicBlock:
        while (len(block.instructions) == 1
               and block.instructions[0].opcode is Opcode.JUMP
               and block.name not in seen):
            seen.add(block.name)
            block = block.instructions[0].targets[0]
        return block

    for block in function.blocks:
        term = block.terminator
        if term is None:
            continue
        for i, target in enumerate(term.targets):
            threaded = final_target(target, {block.name})
            if threaded is not target:
                term.targets[i] = threaded
                changes += 1

    changes += remove_unreachable_blocks(function)

    # Merge a block into its unique predecessor when that predecessor's
    # only successor is this block.
    merged = True
    while merged:
        merged = False
        for block in list(function.blocks):
            if block is function.entry:
                continue
            preds = block.predecessors()
            if len(preds) != 1:
                continue
            pred = preds[0]
            term = pred.terminator
            if term is None or term.opcode is not Opcode.JUMP:
                continue
            if term.targets[0] is not block:
                continue
            pred.remove(term)
            for inst in list(block.instructions):
                block.remove(inst)
                pred.append(inst)
            function.remove_block(block)
            # Retarget any branches that pointed at the merged block.
            for other in function.blocks:
                other_term = other.terminator
                if other_term is None:
                    continue
                for i, target in enumerate(other_term.targets):
                    if target is block:
                        other_term.targets[i] = pred
            changes += 1
            merged = True
            break

    # Fold branches with constant conditions or identical targets.
    for block in function.blocks:
        term = block.terminator
        if term is None or term.opcode is not Opcode.BRANCH:
            continue
        cond = term.operands[0]
        if isinstance(cond, Constant):
            target = term.targets[0] if cond.value else term.targets[1]
            block.remove(term)
            block.append(Instruction(Opcode.JUMP, targets=[target]))
            changes += 1
        elif term.targets[0] is term.targets[1]:
            target = term.targets[0]
            block.remove(term)
            block.append(Instruction(Opcode.JUMP, targets=[target]))
            changes += 1

    changes += remove_unreachable_blocks(function)
    return changes


# ----------------------------------------------------------------------
# If-conversion.
# ----------------------------------------------------------------------

def _is_convertible_arm(block: BasicBlock, join: BasicBlock, max_ops: int) -> bool:
    """An arm may be if-converted if it is small, pure, and falls into join."""
    term = block.terminator
    if term is None or term.opcode is not Opcode.JUMP or term.targets[0] is not join:
        return False
    body = block.non_terminator_instructions()
    if len(body) > max_ops:
        return False
    for inst in body:
        if not inst.is_pure() or inst.dest is None:
            return False
    return True


def if_convert(function: Function, max_ops: int = 8) -> int:
    """Convert small branch hammocks into straight-line code with selects.

    Handles diamonds (``A -> B, C; B, C -> D``) and triangles
    (``A -> B, D; B -> D``) whose arms contain only pure register
    operations.  The transformation removes a branch (good for the VLIW's
    branch penalty) and, more importantly for this reproduction, merges the
    arms into one basic block so the ISE enumerator and the scheduler see a
    larger dataflow graph.
    """
    changes = 0
    converted = True
    while converted:
        converted = False
        for block in function.blocks:
            term = block.terminator
            if term is None or term.opcode is not Opcode.BRANCH:
                continue
            cond = term.operands[0]
            true_block, false_block = term.targets

            join: Optional[BasicBlock] = None
            arms: List[Optional[BasicBlock]] = [None, None]

            true_term = true_block.terminator
            false_term = false_block.terminator
            # Diamond: both arms jump to the same join block.
            if (true_block is not false_block
                    and len(true_block.predecessors()) == 1
                    and len(false_block.predecessors()) == 1
                    and true_term is not None and false_term is not None
                    and true_term.opcode is Opcode.JUMP
                    and false_term.opcode is Opcode.JUMP
                    and true_term.targets[0] is false_term.targets[0]):
                join = true_term.targets[0]
                if (_is_convertible_arm(true_block, join, max_ops)
                        and _is_convertible_arm(false_block, join, max_ops)):
                    arms = [true_block, false_block]
                else:
                    join = None
            # Triangle: the true arm falls through to the false target.
            if join is None:
                if (len(true_block.predecessors()) == 1
                        and _is_convertible_arm(true_block, false_block, max_ops)
                        and true_block is not false_block):
                    join = false_block
                    arms = [true_block, None]
                elif (len(false_block.predecessors()) == 1
                        and _is_convertible_arm(false_block, true_block, max_ops)
                        and true_block is not false_block):
                    join = true_block
                    arms = [None, false_block]
            if join is None:
                continue
            if len(join.predecessors()) != 2 and not (arms[0] is None or arms[1] is None):
                continue

            # Clone each arm with renamed destinations, tracking the final
            # value each original register holds along that path.
            def clone_arm(arm: Optional[BasicBlock]):
                final: Dict[int, object] = {}
                cloned: List[Instruction] = []
                if arm is None:
                    return cloned, final
                rename: Dict[int, VirtualRegister] = {}
                for inst in arm.non_terminator_instructions():
                    new_ops = []
                    for op in inst.operands:
                        if isinstance(op, VirtualRegister) and op.id in rename:
                            new_ops.append(rename[op.id])
                        else:
                            new_ops.append(op)
                    new_dest = VirtualRegister(inst.dest.type, inst.dest.name)
                    rename[inst.dest.id] = new_dest
                    final[inst.dest.id] = new_dest
                    clone = Instruction(inst.opcode, new_dest, new_ops,
                                        custom_op=inst.custom_op,
                                        alloc_type=inst.alloc_type)
                    cloned.append(clone)
                return cloned, final

            true_clone, true_final = clone_arm(arms[0])
            false_clone, false_final = clone_arm(arms[1])

            # Registers needing a merge: defined on either path *and* read
            # outside the arms (purely arm-local temporaries need no select,
            # and selecting them could read a register that has no
            # definition on the other path).
            used_outside: Set[int] = set()
            arm_set = {a for a in arms if a is not None}
            for other_block in function.blocks:
                if other_block in arm_set:
                    continue
                for inst in other_block.instructions:
                    for reg in inst.uses():
                        used_outside.add(reg.id)
            merged_regs = (set(true_final) | set(false_final)) & used_outside
            original_regs: Dict[int, VirtualRegister] = {}
            for arm in (arms[0], arms[1]):
                if arm is None:
                    continue
                for inst in arm.non_terminator_instructions():
                    original_regs[inst.dest.id] = inst.dest

            # Rewrite the branch block: drop the branch, inline both arms,
            # emit selects, then jump to the join block.
            block.remove(term)
            for inst in true_clone + false_clone:
                block.append(inst)
            for reg_id in sorted(merged_regs):
                original = original_regs[reg_id]
                true_value = true_final.get(reg_id, original)
                false_value = false_final.get(reg_id, original)
                select_inst = Instruction(
                    Opcode.SELECT, original, [cond, true_value, false_value]
                )
                block.append(select_inst)
            block.append(Instruction(Opcode.JUMP, targets=[join]))

            for arm in (arms[0], arms[1]):
                if arm is not None:
                    function.remove_block(arm)
            changes += 1
            converted = True
            break
    if changes:
        simplify_cfg(function)
    return changes


# ----------------------------------------------------------------------
# Loop unrolling.
# ----------------------------------------------------------------------

def unroll_loops(function: Function, factor: int = 4, max_body_ops: int = 40) -> int:
    """Unroll canonical counted loops by ``factor``.

    The pass recognises the loop shape the front end emits for
    ``for (i = start; i < n; i += step) { straight-line body }``:

    * a header block whose only instructions are ``cmp = cmplt i, n`` and a
      branch to (body, exit),
    * a single straight-line body block jumping to a step block (or
      directly back to the header),
    * a step block containing ``i = add i, step``; ``jump header`` with a
      constant ``step``.

    It emits a vectorised-style main loop that runs ``factor`` copies of
    the body per iteration (guarded by ``i + (factor-1)*step < n``) and
    keeps the original loop as the remainder loop.  The unrolled body is a
    single basic block, which is what gives the VLIW scheduler and the ISE
    enumerator their larger window.
    """
    if factor < 2:
        return 0
    from ..ir.cfg import find_natural_loops

    changes = 0
    for header, body_blocks in find_natural_loops(function):
        # --- match the canonical shape -------------------------------
        term = header.terminator
        if term is None or term.opcode is not Opcode.BRANCH:
            continue
        header_body = header.non_terminator_instructions()
        if len(header_body) != 1:
            continue
        cmp = header_body[0]
        if cmp.annotations.get("no_unroll"):
            continue
        if cmp.opcode not in (Opcode.CMPLT, Opcode.CMPLE) or term.operands[0] is not cmp.dest:
            continue
        induction, bound = cmp.operands
        if not isinstance(induction, VirtualRegister):
            continue
        body_block, exit_block = term.targets
        if body_block not in body_blocks or exit_block in body_blocks:
            continue
        loop_members = set(body_blocks)
        if len(loop_members) not in (2, 3):
            continue

        # Find the step block (the one that defines the induction variable).
        step_block = None
        for candidate in loop_members:
            if candidate is header:
                continue
            for inst in candidate.non_terminator_instructions():
                if inst.dest is not None and inst.dest.id == induction.id:
                    step_block = candidate
        if step_block is None:
            continue
        if len(loop_members) == 3:
            if body_block is step_block:
                continue
            body_term = body_block.terminator
            if body_term is None or body_term.opcode is not Opcode.JUMP:
                continue
            if body_term.targets[0] is not step_block:
                continue
        else:
            if body_block is not step_block:
                continue
        step_term = step_block.terminator
        if step_term is None or step_term.opcode is not Opcode.JUMP:
            continue
        if step_term.targets[0] is not header:
            continue

        # The step block must be "i = i + const" plus nothing else that
        # defines registers used elsewhere; allow extra pure instructions.
        step_value: Optional[int] = None
        for inst in step_block.non_terminator_instructions():
            if inst.dest is not None and inst.dest.id == induction.id:
                source = inst
                if (source.opcode is Opcode.ADD
                        and isinstance(source.operands[0], VirtualRegister)
                        and source.operands[0].id == induction.id
                        and isinstance(source.operands[1], Constant)):
                    step_value = source.operands[1].value
                elif (source.opcode is Opcode.MOV
                      and isinstance(source.operands[0], VirtualRegister)):
                    # i = mov t ; with t = add i, const earlier in the block
                    producer = None
                    for prior in step_block.non_terminator_instructions():
                        if prior.dest is not None and prior.dest.id == source.operands[0].id:
                            producer = prior
                    if (producer is not None and producer.opcode is Opcode.ADD
                            and isinstance(producer.operands[0], VirtualRegister)
                            and producer.operands[0].id == induction.id
                            and isinstance(producer.operands[1], Constant)):
                        step_value = producer.operands[1].value
        if step_value is None or step_value <= 0:
            continue

        # The bound must be loop-invariant: not defined inside the loop.
        if isinstance(bound, VirtualRegister):
            defined_inside = any(
                inst.dest is not None and inst.dest.id == bound.id
                for member in loop_members for inst in member.instructions
            )
            if defined_inside:
                continue

        body_instructions = (
            body_block.non_terminator_instructions() if body_block is not step_block else []
        )
        step_instructions = step_block.non_terminator_instructions()
        if any(inst.opcode in (Opcode.CALL,) for inst in body_instructions):
            continue
        if len(body_instructions) + len(step_instructions) > max_body_ops:
            continue

        # Registers that must keep their identity across copies: loop-carried
        # values (used before being defined inside one iteration) and values
        # read outside the loop.  All other destinations are pure temporaries
        # and get fresh registers per copy, which keeps copies independent
        # for the scheduler and avoids false cross-block liveness.
        loop_instructions = body_instructions + step_instructions
        defined_so_far: Set[int] = set()
        carried: Set[int] = set()
        for inst in loop_instructions:
            for reg in inst.uses():
                if reg.id not in defined_so_far:
                    carried.add(reg.id)
            if inst.dest is not None:
                defined_so_far.add(inst.dest.id)
        loop_blocks = set(loop_members)
        for other_block in function.blocks:
            if other_block in loop_blocks:
                continue
            for inst in other_block.instructions:
                for reg in inst.uses():
                    if reg.id in defined_so_far:
                        carried.add(reg.id)

        # --- build the unrolled main loop -----------------------------
        guard = function.new_block(f"{header.name}.unroll.guard")
        unrolled = function.new_block(f"{header.name}.unrolled")

        # Redirect every external edge into the header to the guard block.
        for block in function.blocks:
            if block in loop_members or block in (guard, unrolled):
                continue
            block_term = block.terminator
            if block_term is None:
                continue
            for i, target in enumerate(block_term.targets):
                if target is header:
                    block_term.targets[i] = guard

        # guard: t = i + (factor-1)*step ; c = cmplt/cmple t, bound ;
        #        branch c -> unrolled, header(remainder)
        ahead = VirtualRegister(I32, "unroll.ahead")
        guard.append(Instruction(Opcode.ADD, ahead,
                                 [induction, Constant((factor - 1) * step_value, I32)]))
        guard_cmp = VirtualRegister(I1, "unroll.cond")
        guard.append(Instruction(cmp.opcode, guard_cmp, [ahead, bound]))
        guard.append(Instruction(Opcode.BRANCH, operands=[guard_cmp],
                                 targets=[unrolled, header]))

        # unrolled body: factor copies of (body; step), then jump to guard.
        for _copy in range(factor):
            rename: Dict[int, VirtualRegister] = {}

            def remap(value):
                if isinstance(value, VirtualRegister) and value.id in rename:
                    return rename[value.id]
                return value

            for inst in loop_instructions:
                new_ops = [remap(op) for op in inst.operands]
                new_dest = inst.dest
                if inst.dest is not None and inst.dest.id not in carried:
                    # Pure temporary: give each copy its own register.
                    new_dest = VirtualRegister(inst.dest.type, inst.dest.name)
                    rename[inst.dest.id] = new_dest
                clone = Instruction(inst.opcode, new_dest, new_ops,
                                    custom_op=inst.custom_op,
                                    alloc_type=inst.alloc_type)
                unrolled.append(clone)
        unrolled.append(Instruction(Opcode.JUMP, targets=[guard]))

        # The remainder loop keeps its original shape; mark it so later
        # invocations of this pass do not unroll it again.
        cmp.annotations["no_unroll"] = True

        changes += 1
        # Only unroll one loop per invocation round to keep the loop list valid.
        break
    if changes:
        simplify_cfg(function)
    return changes


# ----------------------------------------------------------------------
# Function inlining.
# ----------------------------------------------------------------------

def inline_small_functions(module: Module, max_blocks: int = 3,
                           max_instructions: int = 30) -> int:
    """Inline calls to small, non-recursive functions.

    Embedded kernels frequently factor saturation/clamping helpers into
    tiny functions; inlining them exposes the arithmetic to the ISE
    enumerator, which is exactly the §6.1 "core capabilities" story.
    """
    from ..ir.clone import clone_function

    changes = 0
    inlinable = {}
    for function in module.functions.values():
        if len(function.blocks) > max_blocks:
            continue
        if function.instruction_count() > max_instructions:
            continue
        if function.name in function.call_targets():
            continue  # directly recursive
        if any(inst.opcode is Opcode.ALLOCA for inst in function.instructions()):
            continue
        inlinable[function.name] = function

    for function in module.functions.values():
        made_progress = True
        while made_progress:
            made_progress = False
            for block in list(function.blocks):
                for index, inst in enumerate(block.instructions):
                    if inst.opcode is not Opcode.CALL:
                        continue
                    callee = inlinable.get(inst.callee)
                    if callee is None or callee is function:
                        continue
                    _inline_call(function, block, index, inst, callee)
                    changes += 1
                    made_progress = True
                    break
                if made_progress:
                    break
    if changes:
        for function in module.functions.values():
            simplify_cfg(function)
    return changes


def _inline_call(function: Function, block: BasicBlock, index: int,
                 call_inst: Instruction, callee: Function) -> None:
    """Splice a clone of ``callee`` in place of ``call_inst``."""
    from ..ir.clone import clone_function

    clone = clone_function(callee)

    # Split the call block: instructions after the call move to a new block.
    continuation = function.new_block(f"{block.name}.inlcont")
    tail = block.instructions[index + 1:]
    del block.instructions[index:]
    call_inst.block = None
    for inst in tail:
        continuation.append(inst)

    # Bind arguments: prepend moves from actual to formal registers.
    for formal, actual in zip(clone.arguments, call_inst.operands):
        block.append(move(formal, actual))

    # Splice the callee blocks into the caller, renaming to avoid clashes.
    name_prefix = f"inl.{callee.name}.{id(call_inst) & 0xFFFF}"
    for callee_block in clone.blocks:
        callee_block.name = f"{name_prefix}.{callee_block.name}"
        callee_block.function = function
        function.blocks.append(callee_block)

    # Jump from the call site into the inlined entry.
    block.append(Instruction(Opcode.JUMP, targets=[clone.entry]))

    # Rewrite returns into moves + jumps to the continuation block.
    for callee_block in clone.blocks:
        term = callee_block.terminator
        if term is None or term.opcode is not Opcode.RETURN:
            continue
        callee_block.remove(term)
        if call_inst.dest is not None and term.operands:
            callee_block.append(move(call_inst.dest, term.operands[0]))
        callee_block.append(Instruction(Opcode.JUMP, targets=[continuation]))
