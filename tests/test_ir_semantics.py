"""The shared operation table (:mod:`repro.ir.semantics`) against the reference.

The translator (compiled engine, cycle simulator, trace capture), the
constant folder and custom-op patterns all read one table of what each IR
operation computes.  The reference interpreter keeps its own handlers, so
these tests hold the table to it on edge operands (0, ±1, INT_MAX,
INT_MIN, shift counts 0/31/32/33, zero divisors, f32-exact floats):

- engine agreement: a one-instruction function run on the interpreter
  returns ``wrapper(dest.type)(table[op](...))``, or raises the same
  :class:`SimulationError` message;
- folder agreement: :func:`constant_fold` turns the constant-operand form
  into a ``MOV`` of that value, and leaves a division by zero for run time;
- pattern agreement: :meth:`Pattern.evaluate` of a one-node pattern equals
  the interpreter on the base instruction.
"""

from __future__ import annotations

from itertools import product

import pytest

from repro.core.patterns import Pattern, PatternNode
from repro.exec import CompiledSimulator
from repro.ir import (
    F32, F64, FUSABLE_OPCODES, I1, I8, I32, I64, IRBuilder, Instruction,
    Opcode, U8, U16,
)
from repro.ir.semantics import BINARY, UNARY, select, wrapper
from repro.ir.values import Constant, VirtualRegister
from repro.opt.passes import constant_fold
from repro.sim import FunctionalSimulator, SimulationError

INT_MAX, INT_MIN = 2**31 - 1, -2**31
INTS = (0, 1, -1, INT_MAX, INT_MIN)
#: second operands of integer binary ops: the edges plus shift counts.
COUNTS = INTS + (31, 32, 33)
#: exactly representable in f32, so lowering an f32 argument keeps them.
FLOATS = (0.0, -1.5, 2.25, 3.0e5, 0.375)

FLOAT_BINARY = frozenset({
    Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV,
    Opcode.FCMPEQ, Opcode.FCMPLT, Opcode.FCMPLE,
})
COMPARES = frozenset({
    Opcode.CMPEQ, Opcode.CMPNE, Opcode.CMPLT, Opcode.CMPLE, Opcode.CMPGT,
    Opcode.CMPGE, Opcode.FCMPEQ, Opcode.FCMPLT, Opcode.FCMPLE,
})

#: unary opcode -> [(operand type, dest type, operand values)].
UNARY_CASES = {
    Opcode.MOV: [(I32, I32, INTS), (I32, I8, INTS)],
    Opcode.ABS: [(I32, I32, INTS)],
    Opcode.NEG: [(I32, I32, INTS), (I32, U16, INTS)],
    Opcode.NOT: [(I32, I32, INTS), (I32, U8, INTS)],
    Opcode.FNEG: [(F64, F64, FLOATS), (F32, F32, FLOATS)],
    Opcode.SEXT: [(I8, I32, (0, 1, -1, 127, -128))],
    Opcode.ZEXT: [(U8, I32, (0, 1, 255))],
    Opcode.TRUNC: [(I32, I8, INTS), (I32, U16, INTS)],
    Opcode.ITOF: [(I32, F64, INTS), (I32, F32, INTS)],
    Opcode.FTOI: [(F64, I32, FLOATS + (3.0e9, -3.0e9))],
}

#: the opcodes the constant folder folds: integer binary ops, NEG/NOT/ABS.
FOLDED = (
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM, Opcode.AND,
    Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR, Opcode.SAR, Opcode.MIN,
    Opcode.MAX, Opcode.CMPEQ, Opcode.CMPNE, Opcode.CMPLT, Opcode.CMPLE,
    Opcode.CMPGT, Opcode.CMPGE, Opcode.NEG, Opcode.NOT, Opcode.ABS,
)


def _function_of(opcode):
    if opcode is Opcode.SELECT:
        return select
    return BINARY[opcode] if opcode in BINARY else UNARY[opcode]


def _cases(opcode):
    """``[(operand types, dest type, operand tuples)]`` for ``opcode``."""
    if opcode is Opcode.SELECT:
        return [((I1, I32, I32), I32, list(product((0, 1), INTS, INTS[:3])))]
    if opcode in UNARY:
        return [((source,), dest, [(v,) for v in values])
                for source, dest, values in UNARY_CASES[opcode]]
    if opcode in FLOAT_BINARY:
        return [((ftype, ftype), I1 if opcode in COMPARES else ftype,
                 list(product(FLOATS, FLOATS))) for ftype in (F64, F32)]
    dests = (I1,) if opcode in COMPARES else (I32, U16, I64)
    return [((I32, I32), dest, list(product(INTS, COUNTS))) for dest in dests]


def _one_op_module(opcode, operand_types, dest_type):
    """``f(a0, ...)`` that computes ``dest = opcode(a0, ...)`` and returns it."""
    builder = IRBuilder()
    function = builder.create_function(
        "f", dest_type, list(operand_types),
        [f"a{i}" for i in range(len(operand_types))])
    dest = VirtualRegister(dest_type, "d")
    builder.block.append(Instruction(opcode, dest, list(function.arguments)))
    builder.ret(dest)
    return builder.module


def _outcome(call):
    """A value (typed, so 0 and 0.0 and -0.0 differ) or the error message."""
    try:
        value = call()
    except SimulationError as exc:
        return ("SimulationError", str(exc))
    return (type(value).__name__, repr(value))


ALL_OPCODES = sorted(set(BINARY) | set(UNARY) | {Opcode.SELECT},
                     key=lambda opcode: opcode.value)


def test_every_unary_opcode_has_cases():
    assert set(UNARY_CASES) == set(UNARY)


@pytest.mark.parametrize("opcode", ALL_OPCODES, ids=str)
def test_engines_compute_the_table(opcode):
    fn = _function_of(opcode)
    mismatches = []
    for operand_types, dest_type, operand_sets in _cases(opcode):
        module = _one_op_module(opcode, operand_types, dest_type)
        engines = {"interpreter": FunctionalSimulator(module),
                   "compiled": CompiledSimulator(module)}
        wrap = wrapper(dest_type)
        for values in operand_sets:
            expected = _outcome(lambda: wrap(fn(*values)))
            for name, engine in engines.items():
                got = _outcome(lambda: engine.run("f", *values))
                if got != expected:
                    mismatches.append((name, str(dest_type), values, got,
                                       expected))
    assert not mismatches, mismatches[:5]


def _constant_form(opcode, values, dest_type):
    builder = IRBuilder()
    function = builder.create_function("f", dest_type)
    dest = VirtualRegister(dest_type, "d")
    inst = builder.block.append(Instruction(
        opcode, dest, [Constant(v, I32) for v in values]))
    builder.ret(dest)
    return function, inst


@pytest.mark.parametrize("opcode", FOLDED, ids=str)
def test_constant_fold_folds_to_the_table_value(opcode):
    fn = _function_of(opcode)
    dest_type = I1 if opcode in COMPARES else I32
    operand_sets = (list(product(INTS, COUNTS)) if opcode in BINARY
                    else [(v,) for v in INTS])
    for values in operand_sets:
        function, inst = _constant_form(opcode, values, dest_type)
        expected = _outcome(lambda: wrapper(dest_type)(fn(*values)))
        changes = constant_fold(function)
        if expected[0] == "SimulationError":
            # A division by zero is left for run time to report.
            assert changes == 0 and inst.opcode is opcode, values
            continue
        assert inst.opcode is Opcode.MOV, values
        assert _outcome(lambda: inst.operands[0].value) == expected, values


@pytest.mark.parametrize(
    "opcode",
    sorted((set(BINARY) | set(UNARY)) - set(FOLDED) - {Opcode.MOV},
           key=lambda opcode: opcode.value),
    ids=str)
def test_constant_fold_leaves_other_opcodes(opcode):
    values = (3, 5) if opcode in BINARY else (3,)
    function, inst = _constant_form(opcode, values, I32)
    assert constant_fold(function) == 0
    assert inst.opcode is opcode


@pytest.mark.parametrize("condition", [0, 1])
def test_constant_fold_select_picks_the_table_operand(condition):
    function, inst = _constant_form(Opcode.SELECT, (condition, 7, 9), I32)
    assert constant_fold(function) == 1
    assert inst.opcode is Opcode.MOV
    assert inst.operands[0].value == select(condition, 7, 9)


@pytest.mark.parametrize("opcode", sorted(FUSABLE_OPCODES,
                                          key=lambda opcode: opcode.value),
                         ids=str)
def test_pattern_evaluate_matches_the_interpreter(opcode):
    arity = 3 if opcode is Opcode.SELECT else 2 if opcode in BINARY else 1
    pattern = Pattern([PatternNode(opcode, tuple(("in", k)
                                                 for k in range(arity)))],
                      outputs=[0], num_inputs=arity)
    simulator = FunctionalSimulator(_one_op_module(opcode, (I32,) * arity, I32))
    operand_sets = {1: [(v,) for v in INTS],
                    2: list(product(INTS, COUNTS)),
                    3: list(product((0, 1), INTS, INTS[:3]))}[arity]
    for values in operand_sets:
        assert pattern.evaluate(values) == simulator.run("f", *values), values
