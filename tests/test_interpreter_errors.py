"""Error paths of the reference interpreter.

Each case runs one loop over a three-element buffer (loads, stores,
branches) and then faults in the exit block.  The message and the
execution profile at the moment of the fault are part of the oracle's
contract: every instruction up to and including the faulting one is
counted, nothing after it is.
"""

from __future__ import annotations

import pytest

from repro.ir import I32, IRBuilder, PointerType
from repro.ir.values import VirtualRegister
from repro.sim import FunctionalSimulator, SimulationError


def _looping_function(exit_body):
    """``f(buf, n, d)``: for i < n: acc += buf[i], buf[i] += 1; then
    ``exit_body(builder, acc, d)`` emits the exit block."""
    builder = IRBuilder()
    function = builder.create_function(
        "f", I32, [PointerType(I32), I32, I32], ["buf", "n", "d"])
    buf, n, d = function.arguments
    head = builder.new_block("head")
    body = builder.new_block("body")
    done = builder.new_block("exit")
    acc = VirtualRegister(I32, "acc")
    i = VirtualRegister(I32, "i")
    builder.mov_to(acc, 0)
    builder.mov_to(i, 0)
    builder.jump(head)
    builder.set_insert_point(head)
    builder.branch(builder.cmp_lt(i, n), body, done)
    builder.set_insert_point(body)
    address = builder.add(buf, builder.shl(i, 2))
    value = builder.load(address, I32)
    builder.store(builder.add(value, 1), address)
    builder.mov_to(acc, builder.add(acc, value))
    builder.mov_to(i, builder.add(i, 1))
    builder.jump(head)
    builder.set_insert_point(done)
    exit_body(builder, acc, d)
    return builder.module


#: the profile of the loop part: three iterations, then the exit test.
_LOOP_OPCODES = {"mov": 8, "jump": 4, "cmplt": 4, "branch": 4, "shl": 3,
                 "add": 12, "load": 3, "store": 3}
_LOOP_BLOCKS = {"entry": 1, "head": 4, "body": 3, "exit": 1}


def _run_to_fault(module):
    simulator = FunctionalSimulator(module)
    buffer = [10, 20, 30]
    with pytest.raises(SimulationError) as excinfo:
        simulator.run("f", buffer, 3, 0)
    return str(excinfo.value), simulator.profile


def _expect_profile(profile, exit_opcodes):
    opcodes = dict(_LOOP_OPCODES)
    for name, count in exit_opcodes.items():
        opcodes[name] = opcodes.get(name, 0) + count
    assert profile.opcode_counts == opcodes
    assert profile.instructions_executed == sum(opcodes.values())
    assert profile.block_counts == {"f": _LOOP_BLOCKS}
    assert (profile.loads, profile.stores) == (3, 3)
    assert (profile.branches, profile.taken_branches) == (4, 3)
    assert profile.call_counts == {}


class TestInterpreterFaults:
    def test_integer_division_by_zero(self):
        def exit_body(builder, acc, d):
            quotient = builder.div(acc, d)
            builder.ret(builder.add(quotient, 1))

        message, profile = _run_to_fault(_looping_function(exit_body))
        assert message == "integer division by zero"
        _expect_profile(profile, {"div": 1})

    def test_integer_remainder_by_zero(self):
        def exit_body(builder, acc, d):
            builder.ret(builder.rem(acc, d))

        message, profile = _run_to_fault(_looping_function(exit_body))
        assert message == "integer remainder by zero"
        _expect_profile(profile, {"rem": 1})

    def test_floating_division_by_zero(self):
        def exit_body(builder, acc, d):
            quotient = builder.fdiv(builder.itof(acc), builder.itof(d))
            builder.ret(builder.ftoi(quotient))

        message, profile = _run_to_fault(_looping_function(exit_body))
        assert message == "floating division by zero"
        _expect_profile(profile, {"itof": 2, "fdiv": 1})

    def test_read_of_undefined_register(self):
        undefined = VirtualRegister(I32, "ghost")

        def exit_body(builder, acc, d):
            total = builder.add(acc, 5)
            builder.ret(builder.add(total, undefined))

        message, profile = _run_to_fault(_looping_function(exit_body))
        assert message == f"read of undefined register {undefined} in f"
        _expect_profile(profile, {"add": 2})

    def test_falling_off_a_block(self):
        def exit_body(builder, acc, d):
            builder.add(acc, d)

        message, profile = _run_to_fault(_looping_function(exit_body))
        assert message == "fell off the end of block exit in f"
        _expect_profile(profile, {"add": 1})

    def test_unregistered_custom_op(self):
        def exit_body(builder, acc, d):
            fused = builder.custom("cop_unregistered", [acc, d])
            builder.ret(fused)

        message, profile = _run_to_fault(_looping_function(exit_body))
        assert message == ("custom op cop_unregistered has no registered "
                           "semantics")
        _expect_profile(profile, {"custom": 1})

    def test_unselected_undefined_operand_is_not_read(self):
        """``select`` reads only the operand it picks."""
        undefined = VirtualRegister(I32, "ghost")

        def exit_body(builder, acc, d):
            builder.ret(builder.select(builder.cmp_eq(d, 0), acc, undefined))

        simulator = FunctionalSimulator(_looping_function(exit_body))
        assert simulator.run("f", [10, 20, 30], 3, 0) == 60
        assert simulator.profile.opcode_counts["select"] == 1

    def test_faulting_run_leaves_the_simulator_reusable(self):
        def exit_body(builder, acc, d):
            builder.ret(builder.div(acc, d))

        simulator = FunctionalSimulator(_looping_function(exit_body))
        with pytest.raises(SimulationError):
            simulator.run("f", [1, 2, 3], 3, 0)
        assert simulator.run("f", [1, 2, 3], 3, 2) == 3
        assert simulator.profile.opcode_counts["div"] == 2

    def test_max_steps_stops_at_the_exact_instruction(self):
        def exit_body(builder, acc, d):
            builder.ret(acc)

        module = _looping_function(exit_body)
        total = FunctionalSimulator(module)
        assert total.run("f", [1, 2, 3], 3, 0) == 6
        steps = total.profile.instructions_executed
        assert FunctionalSimulator(module, max_steps=steps).run(
            "f", [1, 2, 3], 3, 0) == 6
        for limit in (steps - 1, 7, 1):
            simulator = FunctionalSimulator(module, max_steps=limit)
            with pytest.raises(SimulationError,
                               match="maximum step count exceeded"):
                simulator.run("f", [1, 2, 3], 3, 0)
            assert simulator.profile.instructions_executed == limit
