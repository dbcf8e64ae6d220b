"""Unit tests for the IR substrate: types, values, instructions, blocks."""

from __future__ import annotations

import pickle

import pytest

from repro.ir import (
    ArrayType, BasicBlock, Constant, FloatType, Function, I1, I8, I16, I32,
    Instruction, IntType, IRBuilder, Module, Opcode, PointerType, U32,
    UndefValue, VirtualRegister, VOID, array_of, pointer_to,
)
from repro.ir import instructions as insts


class TestTypes:
    def test_integer_sizes(self):
        assert I8.size == 1
        assert I16.size == 2
        assert I32.size == 4
        assert I32.alignment == 4

    def test_integer_ranges(self):
        assert I8.min_value == -128
        assert I8.max_value == 127
        assert U32.min_value == 0
        assert U32.max_value == 2**32 - 1

    def test_integer_wrap_signed(self):
        assert I32.wrap(2**31) == -(2**31)
        assert I32.wrap(-1) == -1
        assert I8.wrap(255) == -1
        assert I8.wrap(128) == -128

    def test_integer_wrap_unsigned(self):
        assert U32.wrap(-1) == 2**32 - 1
        assert U32.wrap(2**32) == 0

    def test_invalid_integer_width_rejected(self):
        with pytest.raises(ValueError):
            IntType(12)

    def test_float_type(self):
        f = FloatType(32)
        assert f.size == 4
        assert f.is_float()
        with pytest.raises(ValueError):
            FloatType(16)

    def test_pointer_and_array(self):
        p = pointer_to(I32)
        assert p.size == 4
        assert p.is_pointer()
        a = array_of(I16, 10)
        assert a.size == 20
        assert a.alignment == 2
        with pytest.raises(ValueError):
            array_of(I32, -1)

    def test_void(self):
        assert VOID.is_void()
        assert not VOID.is_scalar()

    def test_type_predicates(self):
        assert I32.is_integer() and I32.is_scalar()
        assert not I32.is_pointer()
        assert pointer_to(I32).is_scalar()

    def test_str_representations(self):
        assert str(I32) == "i32"
        assert str(U32) == "u32"
        assert str(pointer_to(I8)) == "i8*"
        assert str(array_of(I32, 4)) == "[4 x i32]"


class TestValues:
    def test_constant_wraps_to_type(self):
        c = Constant(2**31, I32)
        assert c.value == -(2**31)

    def test_constant_default_types(self):
        assert Constant(5).type == I32
        assert Constant(1.5).type.is_float()

    def test_constant_equality_and_hash(self):
        assert Constant(3, I32) == Constant(3, I32)
        assert Constant(3, I32) != Constant(3, I8)
        assert len({Constant(3, I32), Constant(3, I32)}) == 1

    def test_float_constant_rounds_to_binary32(self):
        c = Constant(0.1)
        # 0.1 is not representable in binary32; the stored value differs.
        assert c.value != 0.1 or abs(c.value - 0.1) < 1e-7

    def test_virtual_registers_unique(self):
        a = VirtualRegister(I32, "x")
        b = VirtualRegister(I32, "x")
        assert a.id != b.id
        assert a != b
        assert a == a

    def test_unpickled_register_id_is_never_reissued(self):
        # A module read back from a disk store in a fresh process keeps its
        # register ids; registers made afterwards (custom-op temporaries)
        # must not collide with them.
        data = pickle.dumps(VirtualRegister(I32, "stored"))
        saved = VirtualRegister._counter
        VirtualRegister._counter = 0
        try:
            stored = pickle.loads(data)
            assert VirtualRegister(I32).id > stored.id
        finally:
            VirtualRegister._counter = max(saved, VirtualRegister._counter)

    def test_undef(self):
        u = UndefValue(I32)
        assert "undef" in str(u)


class TestInstructions:
    def test_binop_constructor(self):
        dest = VirtualRegister(I32)
        inst = insts.binop(Opcode.ADD, dest, Constant(1), Constant(2))
        assert inst.dest is dest
        assert len(inst.operands) == 2
        assert inst.is_pure()
        assert not inst.has_side_effects()

    def test_store_has_side_effects(self):
        inst = insts.store(Constant(1), Constant(64))
        assert inst.has_side_effects()
        assert not inst.is_pure()
        assert inst.dest is None

    def test_load_is_not_pure(self):
        inst = insts.load(VirtualRegister(I32), Constant(64))
        assert not inst.is_pure()
        assert inst.is_memory()

    def test_terminators(self):
        block_a = BasicBlock("a")
        block_b = BasicBlock("b")
        jump = insts.jump(block_a)
        branch = insts.branch(Constant(1, I1), block_a, block_b)
        assert jump.is_terminator()
        assert branch.is_terminator()
        assert branch.targets == [block_a, block_b]

    @pytest.mark.parametrize("opcode", list(Opcode))
    def test_predicates_agree_with_the_opcode_sets(self, opcode):
        inst = Instruction(opcode)
        assert inst.is_terminator() == (opcode in insts.TERMINATOR_OPCODES)
        assert inst.has_side_effects() == (
            opcode in insts.SIDE_EFFECT_OPCODES)
        assert inst.is_memory() == (opcode in (Opcode.LOAD, Opcode.STORE))

    def test_uses_and_defs(self):
        a = VirtualRegister(I32, "a")
        b = VirtualRegister(I32, "b")
        d = VirtualRegister(I32, "d")
        inst = insts.binop(Opcode.MUL, d, a, b)
        assert set(r.id for r in inst.uses()) == {a.id, b.id}
        assert inst.defs() == [d]

    def test_replace_operand(self):
        a = VirtualRegister(I32, "a")
        b = VirtualRegister(I32, "b")
        inst = insts.binop(Opcode.ADD, VirtualRegister(I32), a, a)
        assert inst.replace_operand(a, b) == 2
        assert all(op is b for op in inst.operands)

    def test_fusable_classification(self):
        assert insts.binop(Opcode.ADD, VirtualRegister(I32), Constant(1), Constant(2)).is_fusable()
        assert not insts.load(VirtualRegister(I32), Constant(64)).is_fusable()
        assert not insts.store(Constant(1), Constant(64)).is_fusable()

    def test_custom_instruction(self):
        inst = insts.custom(VirtualRegister(I32), "sad_step", [Constant(1), Constant(2)])
        assert inst.opcode is Opcode.CUSTOM
        assert inst.custom_op == "sad_step"
        assert "sad_step" in str(inst)


class TestBlocksAndFunctions:
    def test_block_append_and_terminator(self):
        block = BasicBlock("entry")
        block.append(insts.move(VirtualRegister(I32), Constant(1)))
        assert block.terminator is None
        block.append(insts.ret(Constant(0)))
        assert block.is_terminated()
        assert len(block) == 2

    def test_block_successors_predecessors(self):
        function = Function("f", I32, [I32], ["x"])
        entry = function.new_block("entry")
        exit_block = function.new_block("exit")
        entry.append(insts.jump(exit_block))
        exit_block.append(insts.ret(Constant(0)))
        assert entry.successors() == [exit_block]
        assert exit_block.predecessors() == [entry]

    def test_function_unique_block_names(self):
        function = Function("f")
        a = function.new_block("bb")
        b = function.new_block("bb")
        assert a.name != b.name
        assert function.get_block(a.name) is a

    def test_function_entry_requires_blocks(self):
        function = Function("empty")
        with pytest.raises(ValueError):
            _ = function.entry

    def test_defined_registers_includes_arguments(self):
        function = Function("f", I32, [I32, I32], ["a", "b"])
        block = function.new_block("entry")
        dest = VirtualRegister(I32)
        block.append(insts.binop(Opcode.ADD, dest, *function.arguments))
        block.append(insts.ret(dest))
        regs = function.defined_registers()
        assert function.arguments[0] in regs
        assert dest in regs

    def test_module_functions_and_globals(self):
        module = Module("m")
        function = Function("f")
        module.add_function(function)
        assert module.has_function("f")
        assert "f" in module
        with pytest.raises(ValueError):
            module.add_function(Function("f"))
        gvar = module.add_global("table", array_of(I32, 4), [1, 2, 3, 4])
        assert module.get_global("table") is gvar
        with pytest.raises(KeyError):
            module.get_global("missing")

    def test_call_targets(self):
        builder = IRBuilder()
        function = builder.create_function("caller", I32, [I32], ["x"])
        builder.call("helper", [function.arguments[0]], I32)
        builder.ret(Constant(0))
        assert function.call_targets() == ["helper"]
