"""Tests for the back end (regalloc, scheduler, codegen, asm) and simulators."""

from __future__ import annotations

import pytest

from repro.arch import (
    CustomOperation, MachineDescription, OperationClass, dsp_core,
    risc_baseline, vliw2, vliw4, vliw8,
)
from repro.backend import (
    SelectionError, allocate_registers, block_pressure, compile_module,
    compute_liveness, decode_word, encode_module, encode_op, render_assembly,
    schedule_block, select_instruction, validate_function,
)
from repro.frontend import compile_c
from repro.opt import optimize
from repro.sim import (
    Cache, CycleSimulator, FunctionalSimulator, Memory, MemoryError_,
    ProgramImage, SimulationError,
)
from repro.arch.machine import CacheConfig
from repro.ir import I32, Opcode
from repro.workloads import get_kernel


def compiled_kernel(name: str, machine, level: int = 2, size: int = 24):
    kernel = get_kernel(name)
    module = compile_c(kernel.source, module_name=name)
    optimize(module, level=level)
    compiled, report = compile_module(module, machine)
    args = kernel.arguments(size)
    return kernel, compiled, report, args


class TestInstructionSelection:
    def test_missing_fpu_rejected(self):
        machine = dsp_core()   # integer only
        module = compile_c("float f(float a, float b){return a * b + 1.0;}")
        problems = validate_function(module.get_function("f"), machine)
        assert problems

    def test_unknown_custom_op_rejected(self):
        from repro.ir import instructions as insts
        from repro.ir.values import VirtualRegister

        inst = insts.custom(VirtualRegister(I32), "ghost", [])
        with pytest.raises(SelectionError):
            select_instruction(inst, vliw4())

    def test_latency_comes_from_machine_table(self):
        machine = vliw4()
        machine.latency_overrides[OperationClass.IMUL] = 5
        from repro.ir import instructions as insts
        from repro.ir.values import Constant, VirtualRegister

        op = select_instruction(
            insts.binop(Opcode.MUL, VirtualRegister(I32), Constant(1), Constant(2)),
            machine,
        )
        assert op.latency == 5


class TestRegisterAllocation:
    def test_liveness_across_blocks(self):
        module = compile_c(
            "int f(int a,int b){int x = a + b; if (a > 0) {x = x * 2;} return x;}"
        )
        function = module.get_function("f")
        live_in, live_out = compute_liveness(function)
        entry = function.entry
        # x is live out of the entry block (read by later blocks).
        assert live_out[entry.name]

    def test_no_spills_with_plenty_of_registers(self, dot_module):
        function = dot_module.get_function("dot_product")
        assignment, plan = allocate_registers(function, vliw4())
        assert not plan.spilled_registers
        assert assignment.spill_loads == 0

    def test_small_register_file_forces_spills(self):
        kernel = get_kernel("dct_stage")
        module = compile_c(kernel.source)
        optimize(module, level=3)
        machine = vliw4()
        machine.registers_per_cluster = 8
        function = module.get_function(kernel.entry)
        assignment, plan = allocate_registers(function, machine)
        assert plan.spilled_registers
        assert assignment.spill_loads > 0

    def test_pressure_positive_on_real_code(self, sad_module):
        function = sad_module.get_function("sad16")
        _live_in, live_out = compute_liveness(function)
        body = function.get_block("for.body")
        assert block_pressure(body, live_out[body.name]) >= 3


class TestScheduler:
    def test_respects_issue_width(self, sad_module):
        function = sad_module.get_function("sad16")
        body = function.get_block("for.body")
        for machine in (vliw2(), vliw4(), vliw8()):
            scheduled, _stats = schedule_block(body, machine)
            assert max(len(b.ops) for b in scheduled.bundles) <= machine.issue_width

    def test_wider_machine_schedules_fewer_cycles(self):
        kernel = get_kernel("dct_stage")
        module = compile_c(kernel.source)
        optimize(module, level=3)
        function = module.get_function(kernel.entry)
        block = max(function.blocks, key=lambda b: len(b.instructions))
        narrow, _ = schedule_block(block, vliw2())
        wide, _ = schedule_block(block, vliw8())
        assert wide.cycles < narrow.cycles

    def test_dependences_respected_by_cycle(self, dot_module):
        machine = vliw4()
        function = dot_module.get_function("dot_product")
        body = function.get_block("for.body")
        scheduled, _ = schedule_block(body, machine)
        issue = {}
        for cycle, bundle in enumerate(scheduled.bundles):
            for op in bundle.ops:
                issue[id(op.inst)] = (cycle, op)
        from repro.ir import build_dataflow_graph

        dfg = build_dataflow_graph(body, include_terminator=True)
        for producer, consumer in dfg.flow_edges():
            producer_cycle, producer_op = issue[id(producer)]
            consumer_cycle, _ = issue[id(consumer)]
            assert consumer_cycle >= producer_cycle + producer_op.latency

    def test_terminator_in_last_bundle(self, dot_module):
        function = dot_module.get_function("dot_product")
        for block in function.blocks:
            scheduled, _ = schedule_block(block, vliw4())
            terminator_ops = [
                (index, op)
                for index, bundle in enumerate(scheduled.bundles)
                for op in bundle.ops if op.inst.is_terminator()
            ]
            if terminator_ops:
                index, _op = terminator_ops[-1]
                assert index == len(scheduled.bundles) - 1

    def test_release_order_follows_generations(self):
        """Cluster assignment walks Kahn's generations, not block order:
        ``a = x+1; b = a+1; c = y+1`` releases a, c, then b; and within a
        generation nodes follow the order their producers release them."""
        from repro.backend.scheduler import _release_order
        from repro.ir import IRBuilder, build_dataflow_graph

        builder = IRBuilder()
        function = builder.create_function("f", I32, [I32, I32], ["x", "y"])
        x, y = function.arguments
        b = builder.add(builder.add(x, 1), 1)
        builder.add(y, 1)
        builder.ret(b)
        add_a, add_b, add_c, ret = function.entry.instructions
        dfg = build_dataflow_graph(function.entry, include_terminator=True)
        assert _release_order(dfg) == [add_a, add_c, add_b, ret]

        builder = IRBuilder()
        function = builder.create_function("g", I32, [I32, I32], ["x", "y"])
        x, y = function.arguments
        a, b = builder.add(x, 1), builder.add(y, 1)
        c = builder.add(b, 1)
        builder.ret(builder.add(builder.add(a, 1), c))
        add_a, add_b, add_c, add_d, add_e, ret = function.entry.instructions
        dfg = build_dataflow_graph(function.entry, include_terminator=True)
        assert _release_order(dfg) == [add_a, add_b, add_d, add_c, add_e, ret]

    def test_cluster_assignment_inserts_copies(self):
        from repro.arch import clustered_vliw4

        kernel = get_kernel("dct_stage")
        module = compile_c(kernel.source)
        optimize(module, level=2)
        function = module.get_function(kernel.entry)
        block = max(function.blocks, key=lambda b: len(b.instructions))
        scheduled, stats = schedule_block(block, clustered_vliw4())
        # Pinned to the two-cluster schedule of the largest O2 block.
        assert stats.copies_inserted == 17
        assert stats.bundles == len(scheduled.bundles) == 29


class TestCodegenAndAsm:
    def test_compile_report_counts(self, sad_module):
        compiled, report = compile_module(sad_module, vliw4())
        assert report.functions == len(sad_module.functions)
        assert report.schedule.bundles > 0
        assert report.code is not None and report.code.operations > 0

    def test_assembly_rendering_mentions_blocks_and_ops(self, dot_module):
        compiled, _report = compile_module(dot_module, vliw4())
        text = render_assembly(compiled)
        assert ".function dot_product" in text
        assert "for.body" in text
        assert "mul" in text

    def test_binary_encoding_round_trip_opcode(self, dot_module):
        compiled, _report = compile_module(dot_module, vliw4())
        image = encode_module(compiled)
        assert image.total_words > 0
        function = compiled.get("dot_product")
        first_op = function.blocks[0].bundles[0].ops[0]
        word = encode_op(first_op, function, [], {})
        decoded = decode_word(word)
        assert decoded.opcode is first_op.inst.opcode


class TestMemoryAndCaches:
    def test_memory_guard_page(self):
        memory = Memory(4096)
        with pytest.raises(MemoryError_):
            memory.load(0, I32)

    def test_memory_out_of_range(self):
        memory = Memory(256)
        with pytest.raises(MemoryError_):
            memory.store(300, 1, I32)
        with pytest.raises(MemoryError_):
            memory.allocate(10_000)

    def test_scalar_round_trip(self):
        from repro.ir import F32, I8, I16

        memory = Memory()
        address = memory.allocate(16)
        memory.store(address, -2, I16)
        assert memory.load(address, I16) == -2
        memory.store(address, 1.5, F32)
        assert memory.load(address, F32) == pytest.approx(1.5)
        memory.store(address, 200, I8)
        assert memory.load(address, I8) == -56  # wraps as signed byte

    def test_program_image_places_globals(self):
        module = compile_c("int lut[3] = {7, 8, 9};\nint f(int i){return lut[i];}")
        image = ProgramImage(module)
        address = image.address_of("lut")
        assert address >= Memory.GUARD
        assert image.memory.load(address + 4, I32) == 8

    def test_cache_hit_miss_behaviour(self):
        cache = Cache(CacheConfig(size_bytes=1024, line_bytes=32, associativity=1,
                                  miss_penalty=10))
        assert cache.access(0) == 10          # cold miss
        assert cache.access(4) == 0           # same line
        assert cache.access(4096) >= 0        # other set or conflict
        assert cache.stats.accesses == 3
        assert 0 < cache.stats.miss_rate <= 1.0

    def test_cache_lru_eviction(self):
        cache = Cache(CacheConfig(size_bytes=64, line_bytes=32, associativity=2,
                                  miss_penalty=5))
        cache.access(0)
        cache.access(64)
        cache.access(0)      # touch to make 64 the LRU victim
        cache.access(128)    # evicts 64
        assert cache.access(0) == 0
        assert cache.access(64) == 5


class TestSimulators:
    @pytest.mark.parametrize("kernel_name", ["dot_product", "saturated_add", "ip_checksum"])
    def test_functional_matches_oracle(self, kernel_name):
        kernel = get_kernel(kernel_name)
        module = compile_c(kernel.source)
        args = kernel.arguments(24)
        expected = kernel.expected(args)
        simulator = FunctionalSimulator(module)
        run_args = tuple(list(a) if isinstance(a, list) else a for a in args)
        assert simulator.run(kernel.entry, *run_args) == expected

    def test_functional_profile_counts_blocks(self, dot_module):
        simulator = FunctionalSimulator(dot_module)
        simulator.run_profiled("dot_product", [1] * 10, [2] * 10, 10)
        function = dot_module.get_function("dot_product")
        body = next(b for b in function.blocks if "body" in b.name or "unrolled" in b.name)
        assert body.frequency >= 1

    def test_functional_detects_bad_argument_count(self, dot_module):
        simulator = FunctionalSimulator(dot_module)
        with pytest.raises(SimulationError):
            simulator.run("dot_product", 1)

    def test_division_by_zero_raises(self):
        module = compile_c("int f(int a){return 10 / a;}")
        with pytest.raises(SimulationError):
            FunctionalSimulator(module).run("f", 0)

    @pytest.mark.parametrize("machine_factory", [risc_baseline, vliw2, vliw4, vliw8])
    def test_cycle_simulator_matches_functional(self, machine_factory):
        kernel, compiled, _report, args = compiled_kernel("viterbi_acs", machine_factory())
        expected = kernel.expected(args)
        result = CycleSimulator(compiled).run(
            kernel.entry, *[list(a) if isinstance(a, list) else a for a in args])
        assert result.value == expected
        assert result.cycles > 0
        assert result.stats.ipc > 0

    def test_wider_machine_is_faster(self):
        kernel = get_kernel("dct_stage")
        cycles = {}
        for machine in (vliw2(), vliw8()):
            module = compile_c(kernel.source)
            optimize(module, level=3)
            compiled, _ = compile_module(module, machine)
            args = kernel.arguments(64)
            result = CycleSimulator(compiled).run(
                kernel.entry, *[list(a) if isinstance(a, list) else a for a in args])
            cycles[machine.issue_width] = result.cycles
        assert cycles[8] < cycles[2]

    def test_cache_and_energy_accounting_present(self):
        kernel, compiled, _report, args = compiled_kernel("histogram", vliw4(), size=256)
        result = CycleSimulator(compiled).run(
            kernel.entry, *[list(a) if isinstance(a, list) else a for a in args])
        assert result.dcache is not None and result.dcache.accesses > 0
        assert result.icache is not None and result.icache.accesses > 0
        assert result.energy_uj > 0
        assert result.time_us > 0

    def test_output_arrays_written_back(self):
        kernel = get_kernel("saturated_add")
        module = compile_c(kernel.source)
        optimize(module, level=2)
        compiled, _ = compile_module(module, vliw4())
        a = [40000, -40000, 10]
        b = [10000, -10000, 20]
        out = [0, 0, 0]
        CycleSimulator(compiled).run(kernel.entry, a, b, out, 3)
        assert out == [32767, -32768, 30]

    def test_call_overhead_charged(self):
        source = (
            "int helper(int x){return x * 3;}\n"
            "int f(int n){int s = 0; for (int i = 0; i < n; i++) {s += helper(i);} return s;}"
        )
        module = compile_c(source)
        optimize(module, level=0)   # keep the call
        compiled, _ = compile_module(module, vliw4())
        result = CycleSimulator(compiled).run("f", 5)
        assert result.value == sum(i * 3 for i in range(5))
        assert result.stats.call_overhead_cycles > 0

    def test_cycle_simulator_enforces_max_steps(self):
        module = compile_c(
            "int f(int n){int s = 0; for (int i = 0; i < n; i++) {s += i;} "
            "return s;}")
        optimize(module, level=2)
        compiled, _ = compile_module(module, vliw4())
        with pytest.raises(SimulationError, match="maximum step count"):
            CycleSimulator(compiled, max_steps=10).run("f", 1000)
        # The limit counts executed operations, checked once per block.
        result = CycleSimulator(compiled).run("f", 1000)
        assert result.value == sum(range(1000))
        limit = result.stats.operations_executed
        assert CycleSimulator(compiled, max_steps=limit).run(
            "f", 1000).value == result.value
        with pytest.raises(SimulationError, match="maximum step count"):
            CycleSimulator(compiled, max_steps=limit - 1).run("f", 1000)
