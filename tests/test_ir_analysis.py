"""Tests for IR analyses: builder, CFG, dataflow graphs, verifier, cloning."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import compile_c
from repro.gen import FAMILIES, generate_kernel, sample_spec
from repro.ir import (
    Constant, I1, I32, IRBuilder, Opcode, VerificationError, assert_valid,
    build_cfg, build_dataflow_graph, clone_module, compute_dominators,
    estimate_block_frequencies, find_natural_loops, loop_nesting_depth,
    Function, Module, VOID, reachable_blocks, remove_unreachable_blocks,
    topological_block_order, verify_function, verify_module,
)
from repro.ir.block import BasicBlock
from repro.ir import instructions as insts
from repro.ir.values import VirtualRegister
from repro.opt import optimize
from repro.workloads import list_kernels

from _shared import build_kernel_module


def build_branchy_function():
    """if (x > 0) y = x * 2; else y = -x; return y + 1;"""
    builder = IRBuilder()
    function = builder.create_function("branchy", I32, [I32], ["x"])
    x = function.arguments[0]
    then_block = builder.new_block("then")
    else_block = builder.new_block("else")
    join = builder.new_block("join")
    cond = builder.cmp_gt(x, 0)
    builder.branch(cond, then_block, else_block)
    y = VirtualRegister(I32, "y")
    builder.set_insert_point(then_block)
    builder.mov_to(y, builder.mul(x, 2))
    builder.jump(join)
    builder.set_insert_point(else_block)
    builder.mov_to(y, builder.neg(x))
    builder.jump(join)
    builder.set_insert_point(join)
    builder.ret(builder.add(y, 1))
    return builder.module, function


class TestBuilder:
    def test_builds_valid_ir(self):
        module, function = build_branchy_function()
        assert_valid(module)
        assert len(function.blocks) == 4

    def test_coerces_python_numbers(self):
        builder = IRBuilder()
        function = builder.create_function("f", I32, [I32], ["x"])
        result = builder.add(function.arguments[0], 7)
        builder.ret(result)
        const = function.entry.instructions[0].operands[1]
        assert isinstance(const, Constant) and const.value == 7

    def test_gep_scales_by_element_size(self):
        builder = IRBuilder()
        function = builder.create_function("f", I32, [I32], ["i"])
        from repro.ir import PointerType

        base = builder.mov(0x100, type_=PointerType(I32))
        builder.gep(base, function.arguments[0], I32)
        builder.ret(0)
        muls = [i for i in function.entry.instructions if i.opcode is Opcode.MUL]
        assert muls and muls[0].operands[1].value == 4

    def test_cannot_append_after_terminator(self):
        builder = IRBuilder()
        builder.create_function("f", I32)
        builder.ret(0)
        with pytest.raises(RuntimeError):
            builder.add(1, 2)

    def test_select_and_compare(self):
        builder = IRBuilder()
        function = builder.create_function("f", I32, [I32, I32], ["a", "b"])
        a, b = function.arguments
        result = builder.select(builder.cmp_lt(a, b), a, b)
        builder.ret(result)
        opcodes = [i.opcode for i in function.entry.instructions]
        assert Opcode.CMPLT in opcodes and Opcode.SELECT in opcodes


def build_duplicate_target_function():
    """A loop whose branches name one target twice, plus a dead block.

    ``entry`` branches to ``header`` on both arms, the latch branches back
    to ``header`` on both arms, and the unreachable ``dead`` jumps into
    the loop body.
    """
    builder = IRBuilder()
    function = builder.create_function("dup", I32, [I32], ["x"])
    x = function.arguments[0]
    header = builder.new_block("header")
    latch = builder.new_block("latch")
    exit_block = builder.new_block("exit")
    dead = builder.new_block("dead")
    builder.branch(builder.cmp_gt(x, 0), header, header)
    builder.set_insert_point(header)
    builder.branch(builder.cmp_lt(x, 10), latch, exit_block)
    builder.set_insert_point(latch)
    builder.branch(builder.cmp_gt(x, 5), header, header)
    builder.set_insert_point(exit_block)
    builder.ret(x)
    builder.set_insert_point(dead)
    builder.jump(latch)
    return function


def _reach(function, start, avoid=None):
    """Blocks reachable from ``start`` along terminator targets without
    entering ``avoid``, by fixpoint over every block."""
    reached = set() if start is avoid else {start}
    changed = True
    while changed:
        changed = False
        for block in function.blocks:
            if block in reached:
                for succ in block.successors():
                    if succ is not avoid and succ not in reached:
                        reached.add(succ)
                        changed = True
    return reached


def assert_cfg_analyses_match_brute_force(function):
    """``reachable_blocks``, ``compute_dominators`` and
    ``find_natural_loops`` against their definitions: ``d`` dominates
    ``b`` iff ``b`` is unreachable from the entry once ``d`` is removed,
    and a loop body is the header plus the blocks that reach the
    back-edge tail without passing through the header."""
    entry = function.entry
    reachable = _reach(function, entry)
    assert reachable_blocks(function) == reachable
    dominators = {block: {d for d in reachable
                          if block not in _reach(function, entry, avoid=d)}
                  for block in reachable}
    assert compute_dominators(function) == dominators
    loops = []
    for tail in function.blocks:
        for header in dict.fromkeys(tail.successors()):
            if tail in reachable and header in dominators[tail]:
                body = {block for block in function.blocks
                        if tail in _reach(function, block, avoid=header)}
                loops.append((header, body | {header}))
    assert find_natural_loops(function) == loops


class TestCfgAnalyses:
    def test_cfg_edges(self):
        _module, function = build_branchy_function()
        graph = build_cfg(function)
        assert len(graph) == 4
        assert sum(len(succs) for succs in graph.values()) == 4

    def test_dominators(self):
        _module, function = build_branchy_function()
        doms = compute_dominators(function)
        entry = function.entry
        join = function.get_block("join")
        assert entry in doms[join]
        then_block = function.get_block("then")
        assert then_block not in doms[join]

    def test_reachable_and_unreachable_blocks(self):
        _module, function = build_branchy_function()
        dead = function.new_block("dead")
        dead.append(insts.ret(Constant(0, I32)))
        assert dead not in reachable_blocks(function)
        removed = remove_unreachable_blocks(function)
        assert removed == 1
        assert dead not in function.blocks

    def test_natural_loop_detection(self):
        source = "int f(int n){int s=0;for(int i=0;i<n;i++){s+=i;}return s;}"
        module = compile_c(source)
        function = module.get_function("f")
        loops = find_natural_loops(function)
        assert len(loops) == 1
        header, body = loops[0]
        assert header.name == "for.cond"
        assert any(block.name == "for.body" for block in body)

    def test_nested_loop_depth(self):
        source = (
            "int f(int n){int s=0;for(int i=0;i<n;i++){"
            "for(int j=0;j<n;j++){s+=i*j;}}return s;}"
        )
        module = compile_c(source)
        function = module.get_function("f")
        depth = loop_nesting_depth(function)
        assert max(depth.values()) == 2

    def test_frequency_estimation(self):
        source = "int f(int n){int s=0;for(int i=0;i<n;i++){s+=i;}return s;}"
        module = compile_c(source)
        function = module.get_function("f")
        estimate_block_frequencies(function, loop_weight=10.0)
        body = function.get_block("for.body")
        assert body.frequency == pytest.approx(10.0)
        assert function.entry.frequency == pytest.approx(1.0)

    def test_duplicate_targets_and_dead_block(self):
        function = build_duplicate_target_function()
        entry, header, latch, _exit, dead = function.blocks
        assert build_cfg(function)[entry] == [header]
        assert build_cfg(function)[latch] == [header]
        assert dead not in reachable_blocks(function)
        assert find_natural_loops(function) == [(header, {header, latch, dead})]
        assert_cfg_analyses_match_brute_force(function)

    @pytest.mark.parametrize("name", sorted(list_kernels()))
    def test_builtin_kernels_match_brute_force(self, name):
        for level in range(4):
            _kernel, module = build_kernel_module(name, opt_level=level)
            for function in module.functions.values():
                assert_cfg_analyses_match_brute_force(function)

    @settings(max_examples=10, deadline=None)
    @given(family=st.sampled_from(FAMILIES),
           spec_seed=st.integers(min_value=0, max_value=2**20),
           level=st.integers(min_value=0, max_value=3))
    def test_generated_kernels_match_brute_force(self, family, spec_seed, level):
        generated = generate_kernel(sample_spec(family, spec_seed))
        module = compile_c(generated.c_source,
                           module_name=generated.kernel.name)
        optimize(module, level=level)
        for function in module.functions.values():
            assert_cfg_analyses_match_brute_force(function)

    def test_topological_order_starts_at_entry(self):
        _module, function = build_branchy_function()
        order = topological_block_order(function)
        assert order[0] is function.entry
        assert set(order) == set(function.blocks)


class TestDataflowGraph:
    def test_flow_edges_follow_register_dependences(self, dot_module):
        function = dot_module.get_function("dot_product")
        body = function.get_block("for.body")
        dfg = build_dataflow_graph(body)
        assert len(dfg.nodes) == len(body.non_terminator_instructions())
        assert len(dfg.flow_edges()) >= 4

    def test_memory_dependences_order_stores(self):
        builder = IRBuilder()
        builder.create_function("f", I32, [I32], ["p"])
        address = builder.module.get_function("f").arguments[0]
        builder.store(1, address)
        loaded = builder.load(address, I32)
        builder.store(2, address)
        builder.ret(loaded)
        block = builder.module.get_function("f").entry
        dfg = build_dataflow_graph(block)
        stores = [i for i in block.instructions if i.opcode is Opcode.STORE]
        load = next(i for i in block.instructions if i.opcode is Opcode.LOAD)
        # store -> load -> store chain must be ordered.
        assert dfg.successors[stores[0]][load] == "memory"
        assert dfg.successors[load][stores[1]] == "memory"
        assert dfg.predecessors[stores[1]][load] == "memory"

    def test_ordering_edges_do_not_relabel_a_flow_edge(self):
        """``r = call g(x); s = call g(r)``: the barrier and memory edges
        on the same pair leave the register flow edge a flow edge."""
        builder = IRBuilder()
        function = builder.create_function("f", I32, [I32], ["x"])
        r = builder.call("g", [function.arguments[0]], I32)
        s = builder.call("g", [r], I32)
        builder.ret(s)
        first, second, ret = function.entry.instructions
        dfg = build_dataflow_graph(function.entry, include_terminator=True)
        assert dfg.successors[first][second] == "flow"
        assert dfg.predecessors[second][first] == "flow"
        assert dfg.flow_edges() == [(first, second), (second, ret)]

    def test_convexity_check(self, sad_module):
        function = sad_module.get_function("sad16")
        body = function.get_block("for.body")
        dfg = build_dataflow_graph(body)
        # |a - b|: sub feeds select directly and through cmplt and neg.
        sub, cmplt, neg, select = (
            next(i for i in body.instructions if i.opcode is opcode)
            for opcode in (Opcode.SUB, Opcode.CMPLT, Opcode.NEG, Opcode.SELECT))
        assert dfg.is_convex({sub})
        # The producer and its transitive consumer without the middle
        # nodes: the paths through cmplt and neg leave and re-enter.
        assert not dfg.is_convex({sub, select})
        assert not dfg.is_convex({sub, cmplt, select})
        assert dfg.is_convex({sub, cmplt, neg, select})

    def test_inputs_and_outputs_of_cut(self, sad_module):
        function = sad_module.get_function("sad16")
        body = function.get_block("for.body")
        dfg = build_dataflow_graph(body)
        abs_chain = [i for i in body.instructions
                     if i.opcode in (Opcode.SUB, Opcode.CMPLT, Opcode.NEG, Opcode.SELECT)]
        cut = set(abs_chain)
        outputs = dfg.subgraph_outputs(cut)
        assert len(outputs) == 1
        inputs = [v for v in dfg.subgraph_inputs(cut) if not isinstance(v, Constant)]
        assert len(inputs) == 2

    def test_critical_path_length(self, dot_module):
        function = dot_module.get_function("dot_product")
        body = function.get_block("for.body")
        dfg = build_dataflow_graph(body)
        length = dfg.critical_path_length(lambda inst: 1)
        assert length >= 3


def _verifier_subject(return_type=I32):
    """``f(x) { entry: %t = add x, 1; ret %t }``, well formed."""
    function = Function("f", return_type, [I32], ["x"])
    entry = function.new_block("entry")
    total = VirtualRegister(I32, "t")
    entry.append(insts.binop(Opcode.ADD, total, function.arguments[0],
                             Constant(1)))
    entry.append(insts.ret(total))
    return function, entry


class TestVerifierMessages:
    """One malformed function per verifier message; each asserts the
    exact error list."""

    HEAD = "function @f, block entry, inst"

    def test_well_formed_subject(self):
        function, _entry = _verifier_subject()
        assert verify_function(function) == []

    def test_no_blocks(self):
        assert verify_function(Function("f", I32)) == [
            "function @f: has no basic blocks"]

    def test_duplicate_block_name(self):
        function, _entry = _verifier_subject()
        twin = function.add_block(BasicBlock("entry"))
        twin.append(insts.ret(Constant(0)))
        assert verify_function(function) == [
            "function @f: duplicate block name entry"]

    def test_stale_function_link(self):
        function, entry = _verifier_subject()
        entry.function = Function("g", I32)
        assert verify_function(function) == [
            "function @f: block entry has a stale function link"]

    def test_unterminated_block(self):
        function, entry = _verifier_subject()
        entry.instructions.pop()
        assert verify_function(function) == [
            "function @f: block entry is not terminated"]

    def test_stale_block_link(self):
        function, entry = _verifier_subject()
        entry.instructions[0].block = BasicBlock("elsewhere")
        assert verify_function(function) == [
            f"{self.HEAD} 0 (add): stale block link"]

    def test_terminator_not_last(self):
        function, entry = _verifier_subject()
        entry.insert(0, insts.jump(entry))
        assert verify_function(function) == [
            f"{self.HEAD} 0 (jump): terminator is not the last instruction"]

    def test_operand_count(self):
        function, entry = _verifier_subject()
        entry.instructions[0].operands.append(Constant(3))
        assert verify_function(function) == [
            f"{self.HEAD} 0 (add): expects 2 operands, has 3"]

    def test_missing_destination(self):
        function, entry = _verifier_subject()
        entry.insert(0, insts.binop(Opcode.MUL, None, Constant(2),
                                    Constant(3)))
        assert verify_function(function) == [
            f"{self.HEAD} 0 (mul): missing destination register"]

    def test_destination_on_store(self):
        function, entry = _verifier_subject()
        store = insts.store(Constant(1), function.arguments[0])
        store.dest = VirtualRegister(I32, "bogus")
        entry.insert(0, store)
        assert verify_function(function) == [
            f"{self.HEAD} 0 (store): must not define a destination register"]

    def test_jump_target_count(self):
        function, entry = _verifier_subject(VOID)
        entry.instructions[-1] = jump = insts.jump(entry)
        jump.block = entry
        jump.targets.append(entry)
        assert verify_function(function) == [
            f"{self.HEAD} 1 (jump): jump needs exactly one target"]

    def test_branch_target_count(self):
        function, entry = _verifier_subject(VOID)
        branch = insts.branch(Constant(1, I1), entry, entry)
        branch.targets.pop()
        entry.instructions[-1] = branch
        branch.block = entry
        assert verify_function(function) == [
            f"{self.HEAD} 1 (branch): branch needs exactly two targets"]

    def test_call_without_callee(self):
        function, entry = _verifier_subject()
        entry.insert(0, insts.call(None, "", []))
        assert verify_function(function) == [
            f"{self.HEAD} 0 (call): call without a callee name"]

    def test_custom_without_name(self):
        function, entry = _verifier_subject()
        entry.insert(0, insts.custom(VirtualRegister(I32), "", [Constant(1)]))
        assert verify_function(function) == [
            f"{self.HEAD} 0 (custom): custom op without a name"]

    def test_branch_target_outside_function(self):
        function, entry = _verifier_subject(VOID)
        foreign = BasicBlock("foreign")
        entry.instructions[-1] = jump = insts.jump(foreign)
        jump.block = entry
        assert verify_function(function) == [
            f"{self.HEAD} 1 (jump): branch target foreign not in function"]

    def test_invalid_operand(self):
        function, entry = _verifier_subject()
        entry.instructions[0].operands[1] = "junk"
        assert verify_function(function) == [
            f"{self.HEAD} 0 (add): invalid operand 'junk'"]

    def test_value_returned_from_void_function(self):
        function, _entry = _verifier_subject(VOID)
        assert verify_function(function) == [
            "function @f: block entry returns a value from a void function"]

    def test_void_returned_from_value_function(self):
        function, entry = _verifier_subject()
        entry.instructions[-1].operands.clear()
        assert verify_function(function) == [
            "function @f: block entry returns void from a non-void function"]

    def test_call_to_unknown_function(self):
        function, entry = _verifier_subject()
        entry.insert(0, insts.call(None, "g", []))
        module = Module("m")
        module.add_function(function)
        assert verify_module(module) == [
            "function @f: calls unknown function @g"]

    def test_errors_accumulate_in_block_order(self):
        function, entry = _verifier_subject()
        entry.instructions[0].operands.append(Constant(3))
        entry.instructions[0].block = None
        entry.instructions[-1].operands.clear()
        assert verify_function(function) == [
            f"{self.HEAD} 0 (add): stale block link",
            f"{self.HEAD} 0 (add): expects 2 operands, has 3",
            "function @f: block entry returns void from a non-void function"]


class TestVerifierAndClone:
    def test_verifier_accepts_frontend_output(self, dot_module):
        assert_valid(dot_module)

    def test_verifier_rejects_unterminated_block(self):
        builder = IRBuilder()
        function = builder.create_function("f", I32)
        builder.add(1, 2)
        errors = verify_function(function)
        assert any("not terminated" in e for e in errors)

    def test_verifier_rejects_bad_operand_count(self):
        builder = IRBuilder()
        function = builder.create_function("f", I32)
        builder.ret(0)
        bad = insts.binop(Opcode.ADD, VirtualRegister(I32), Constant(1), Constant(2))
        bad.operands.append(Constant(3))
        function.entry.insert(0, bad)
        with pytest.raises(VerificationError):
            assert_valid(function)

    def test_verifier_rejects_void_return_mismatch(self):
        builder = IRBuilder()
        function = builder.create_function("f", I32)
        builder.ret()  # returns void from a non-void function
        errors = verify_function(function)
        assert errors

    def test_clone_is_deep_and_equivalent(self, dot_module):
        from repro.sim import FunctionalSimulator

        clone = clone_module(dot_module)
        assert clone is not dot_module
        original_insts = dot_module.instruction_count()
        clone.get_function("dot_product").entry.instructions[0].annotations["x"] = 1
        assert dot_module.instruction_count() == original_insts
        a = FunctionalSimulator(dot_module).run("dot_product", [1, 2, 3], [4, 5, 6], 3)
        b = FunctionalSimulator(clone).run("dot_product", [1, 2, 3], [4, 5, 6], 3)
        assert a == b == 32
