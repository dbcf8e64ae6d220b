"""Deep-copy utilities for IR modules and functions.

The explorer evaluates dozens of candidate architectures against the same
source program; each evaluation may rewrite the IR (custom-operation
substitution, unrolling).  Cloning keeps those rewrites isolated.
"""

from __future__ import annotations

from typing import Dict

from .block import BasicBlock
from .function import Function
from .instructions import Instruction
from .module import Module
from .values import Argument, Constant, GlobalVariable, UndefValue, Value, VirtualRegister


def clone_module(module: Module) -> Module:
    """Return a structurally identical deep copy of ``module``."""
    new_module = Module(module.name)
    global_map: Dict[int, GlobalVariable] = {}
    for gvar in module.globals.values():
        init = gvar.initializer
        if isinstance(init, list):
            init = list(init)
        new_gvar = new_module.add_global(gvar.name, gvar.value_type, init)
        global_map[id(gvar)] = new_gvar
    for function in module.functions.values():
        new_module.add_function(clone_function(function, global_map))
    return new_module


def clone_function(function: Function,
                   global_map: Dict[int, GlobalVariable] | None = None) -> Function:
    """Return a deep copy of ``function``.

    ``global_map`` maps ``id()`` of original globals to their clones; if a
    referenced global is not in the map the original value object is reused
    (globals are immutable identifiers, so sharing is safe when cloning a
    single function outside a module clone).
    """
    global_map = global_map or {}
    new_function = Function(
        function.name,
        function.return_type,
        list(function.type.param_types),
        [a.name for a in function.arguments],
    )

    value_map: Dict[int, Value] = {}
    for old_arg, new_arg in zip(function.arguments, new_function.arguments):
        value_map[old_arg.id] = new_arg

    block_map: Dict[str, BasicBlock] = {}
    for block in function.blocks:
        new_block = BasicBlock(block.name)
        new_block.frequency = block.frequency
        new_function.add_block(new_block)
        block_map[block.name] = new_block

    def map_value(value: Value) -> Value:
        if isinstance(value, Argument):
            return value_map[value.id]
        if isinstance(value, VirtualRegister):
            mapped = value_map.get(value.id)
            if mapped is None:
                mapped = VirtualRegister(value.type, value.name)
                value_map[value.id] = mapped
            return mapped
        if isinstance(value, GlobalVariable):
            return global_map.get(id(value), value)
        if isinstance(value, (Constant, UndefValue)):
            return value
        return value

    for block in function.blocks:
        new_block = block_map[block.name]
        for inst in block.instructions:
            new_dest = map_value(inst.dest) if inst.dest is not None else None
            new_operands = [map_value(op) for op in inst.operands]
            new_targets = [block_map[t.name] for t in inst.targets]
            new_inst = Instruction(
                inst.opcode,
                new_dest,
                new_operands,
                targets=new_targets,
                callee=inst.callee,
                custom_op=inst.custom_op,
                alloc_type=inst.alloc_type,
            )
            new_inst.annotations = dict(inst.annotations)
            new_block.append(new_inst)

    return new_function
