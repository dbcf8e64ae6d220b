"""The repro intermediate representation.

A small, typed, load/store, three-address IR on virtual registers.  It is
the common currency between the C front end, the machine-independent
optimizer, the ISA customizer, the retargetable VLIW back end and the
functional simulator.
"""

from .types import (
    ArrayType, FloatType, FunctionType, IntType, PointerType, Type, VoidType,
    F32, F64, I1, I8, I16, I32, I64, PTR, U8, U16, U32, VOID,
    array_of, pointer_to,
)
from .values import (
    Argument, Constant, GlobalVariable, UndefValue, Value, VirtualRegister,
)
from .instructions import (
    COMMUTATIVE_OPCODES, FUSABLE_OPCODES, INT_ALU_OPCODES, Instruction, Opcode,
    SIDE_EFFECT_OPCODES, TERMINATOR_OPCODES,
)
from .block import BasicBlock
from .function import Function
from .module import Module
from .builder import IRBuilder
from .clone import clone_function, clone_module
from .cfg import (
    build_cfg, compute_dominators, estimate_block_frequencies,
    find_natural_loops, loop_nesting_depth, reachable_blocks,
    remove_unreachable_blocks, topological_block_order,
)
from .dataflow import DataflowGraph, build_dataflow_graph
from .verifier import VerificationError, assert_valid, verify_function, verify_module

__all__ = [
    "ArrayType", "FloatType", "FunctionType", "IntType", "PointerType", "Type",
    "VoidType", "F32", "F64", "I1", "I8", "I16", "I32", "I64", "PTR", "U8",
    "U16", "U32", "VOID", "array_of", "pointer_to",
    "Argument", "Constant", "GlobalVariable", "UndefValue", "Value",
    "VirtualRegister",
    "COMMUTATIVE_OPCODES", "FUSABLE_OPCODES", "INT_ALU_OPCODES", "Instruction",
    "Opcode", "SIDE_EFFECT_OPCODES", "TERMINATOR_OPCODES",
    "BasicBlock", "Function", "Module", "IRBuilder",
    "clone_function", "clone_module",
    "build_cfg", "compute_dominators", "estimate_block_frequencies",
    "find_natural_loops", "loop_nesting_depth", "reachable_blocks",
    "remove_unreachable_blocks", "topological_block_order",
    "DataflowGraph", "build_dataflow_graph",
    "VerificationError", "assert_valid", "verify_function", "verify_module",
]
