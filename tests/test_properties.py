"""Property-based tests (hypothesis) over core invariants.

These cover the invariants that the unit tests exercise only pointwise:
arithmetic wrapping, pattern evaluation vs. a Python oracle, convexity of
enumerated cuts, schedule legality across random machine shapes, memory
round-trips, economics monotonicity, and end-to-end compile/run
equivalence on randomly generated straight-line expressions.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import MachineDescription, vliw
from repro.arch.machine import CacheConfig
from repro.backend import compile_module, schedule_block
from repro.core import EnumerationConfig, Pattern, PatternNode, enumerate_block_cuts
from repro.econ import ChipProject, learning_curve_factor, unit_cost, ProcessAssumptions
from repro.exec import CompiledSimulator
from repro.frontend import compile_c
from repro.gen import FAMILIES, generate_kernel, sample_spec
from repro.ir import I8, I16, I32, Opcode, build_dataflow_graph
from repro.opt import optimize
from repro.sim import Cache, CycleSimulator, FunctionalSimulator, Memory


ints32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
small_ints = st.integers(min_value=-1000, max_value=1000)


class TestTypeWrapping:
    @given(value=st.integers(min_value=-(2**40), max_value=2**40))
    def test_i32_wrap_is_idempotent_and_in_range(self, value):
        wrapped = I32.wrap(value)
        assert I32.min_value <= wrapped <= I32.max_value
        assert I32.wrap(wrapped) == wrapped

    @given(value=st.integers(min_value=-(2**20), max_value=2**20))
    def test_wrap_agrees_with_modular_arithmetic(self, value):
        assert I16.wrap(value) == ((value + 2**15) % 2**16) - 2**15
        assert I8.wrap(value) == ((value + 2**7) % 2**8) - 2**7


class TestPatternSemantics:
    @given(a=small_ints, b=small_ints, c=small_ints)
    def test_mac_pattern_matches_python(self, a, b, c):
        mac = Pattern(
            [PatternNode(Opcode.MUL, (("in", 0), ("in", 1))),
             PatternNode(Opcode.ADD, (("node", 0), ("in", 2)))],
            outputs=[1], num_inputs=3,
        )
        assert mac.evaluate([a, b, c]) == I32.wrap(a * b + c)

    @given(a=small_ints, b=small_ints)
    def test_absdiff_pattern_matches_python(self, a, b):
        pattern = Pattern(
            [PatternNode(Opcode.SUB, (("in", 0), ("in", 1))),
             PatternNode(Opcode.CMPLT, (("node", 0), ("const", 0))),
             PatternNode(Opcode.NEG, (("node", 0),)),
             PatternNode(Opcode.SELECT, (("node", 1), ("node", 2), ("node", 0)))],
            outputs=[3], num_inputs=2,
        )
        assert pattern.evaluate([a, b]) == abs(a - b)

    @given(a=small_ints, b=small_ints)
    def test_hardware_latency_at_least_one(self, a, b):
        pattern = Pattern(
            [PatternNode(Opcode.ADD, (("in", 0), ("in", 1)))], [0], 2)
        assert pattern.hardware_latency() >= 1
        assert pattern.hardware_area_kgates() > 0


class TestEnumerationInvariants:
    @settings(max_examples=10, deadline=None)
    @given(max_inputs=st.integers(min_value=2, max_value=5),
           max_size=st.integers(min_value=2, max_value=6))
    def test_cuts_are_convex_and_within_limits(self, max_inputs, max_size):
        from repro.workloads import get_kernel

        kernel = get_kernel("alpha_blend")
        module = compile_c(kernel.source)
        optimize(module, level=2)
        function = module.get_function(kernel.entry)
        block = max(function.blocks, key=lambda b: len(b.instructions))
        config = EnumerationConfig(max_inputs=max_inputs, max_outputs=1,
                                   max_size=max_size)
        for cut, dfg in enumerate_block_cuts(block, config):
            assert dfg.is_convex(cut)
            assert 2 <= len(cut) <= max_size
            assert len(dfg.subgraph_outputs(cut)) == 1


class TestSchedulerInvariants:
    @settings(max_examples=8, deadline=None)
    @given(issue_width=st.sampled_from([1, 2, 4, 8]),
           mem_latency=st.integers(min_value=1, max_value=4),
           mul_latency=st.integers(min_value=1, max_value=5))
    def test_random_machines_schedule_legally(self, issue_width, mem_latency, mul_latency):
        from repro.arch.operations import OperationClass
        from repro.workloads import get_kernel

        machine = vliw(issue_width, name=f"w{issue_width}")
        machine.latency_overrides[OperationClass.MEM] = mem_latency
        machine.latency_overrides[OperationClass.IMUL] = mul_latency

        kernel = get_kernel("rgb_to_gray")
        module = compile_c(kernel.source)
        optimize(module, level=2)
        function = module.get_function(kernel.entry)
        block = max(function.blocks, key=lambda b: len(b.instructions))
        scheduled, _stats = schedule_block(block, machine)

        # Slot limits respected and all operations present exactly once.
        assert all(len(b.ops) <= issue_width for b in scheduled.bundles)
        scheduled_insts = [op.inst for bundle in scheduled.bundles for op in bundle.ops
                           if not op.is_spill and not op.is_copy]
        assert sorted(map(id, scheduled_insts)) == sorted(map(id, block.instructions))

        # Flow dependences separated by latency.
        issue = {}
        for cycle, bundle in enumerate(scheduled.bundles):
            for op in bundle.ops:
                issue[id(op.inst)] = (cycle, op.latency)
        dfg = build_dataflow_graph(block, include_terminator=True)
        for producer, consumer in dfg.flow_edges():
            pc, lat = issue[id(producer)]
            cc, _ = issue[id(consumer)]
            assert cc >= pc + lat


class TestMemoryProperties:
    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(small_ints, min_size=1, max_size=32))
    def test_array_round_trip(self, values):
        memory = Memory()
        address = memory.allocate(4 * len(values))
        memory.write_array(address, values, I32)
        assert memory.read_array(address, len(values), I32) == values

    @settings(max_examples=25, deadline=None)
    @given(addresses=st.lists(st.integers(min_value=64, max_value=65536), min_size=1,
                              max_size=60))
    def test_cache_stats_consistent(self, addresses):
        cache = Cache(CacheConfig(size_bytes=1024, line_bytes=32, associativity=2,
                                  miss_penalty=7))
        for address in addresses:
            cache.access(address)
        assert cache.stats.accesses == len(addresses)
        assert 0 <= cache.stats.misses <= cache.stats.accesses


class TestEconMonotonicity:
    @settings(max_examples=25, deadline=None)
    @given(volume_a=st.integers(min_value=1_000, max_value=10_000_000),
           volume_b=st.integers(min_value=1_000, max_value=10_000_000))
    def test_unit_cost_monotone_in_volume(self, volume_a, volume_b):
        process = ProcessAssumptions()
        lower, higher = sorted((volume_a, volume_b))
        cheap = unit_cost(ChipProject("c", core_kgates=200, nre_usd=1e6, volume=higher), process)
        dear = unit_cost(ChipProject("c", core_kgates=200, nre_usd=1e6, volume=lower), process)
        assert cheap <= dear + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(volume=st.integers(min_value=1, max_value=100_000_000))
    def test_learning_curve_positive(self, volume):
        assert learning_curve_factor(volume, ProcessAssumptions()) > 0


class TestEndToEndExpressions:
    @settings(max_examples=15, deadline=None)
    @given(a=small_ints, b=small_ints, c=st.integers(min_value=1, max_value=200))
    def test_generated_expression_compiles_and_matches(self, a, b, c):
        """Straight-line integer expressions agree between Python, the
        functional simulator and the scheduled cycle simulator."""
        source = (
            "int f(int a, int b, int c) {\n"
            "    int t1 = a * b + c;\n"
            "    int t2 = (a - b) ^ (c << 2);\n"
            "    int t3 = t1 > t2 ? t1 - t2 : t2 - t1;\n"
            "    return t3 + (t1 & 255) - (t2 & 15);\n"
            "}\n"
        )
        t1 = I32.wrap(a * b + c)
        t2 = I32.wrap((a - b) ^ (c << 2))
        t3 = t1 - t2 if t1 > t2 else t2 - t1
        expected = I32.wrap(t3 + (t1 & 255) - (t2 & 15))

        module = compile_c(source)
        optimize(module, level=2)
        assert FunctionalSimulator(module.clone()).run("f", a, b, c) == expected
        compiled, _ = compile_module(module, vliw(4))
        assert CycleSimulator(compiled).run("f", a, b, c).value == expected


class TestGeneratedKernelDifferential:
    """Differential testing over the synthetic-workload generator: for any
    sampled spec, the interpreter, the threaded-code engine and the
    generated Python oracle must agree bit-for-bit — the whole loop/branch/
    memory space the generator spans, not just straight-line expressions."""

    @settings(max_examples=10, deadline=None)
    @given(family=st.sampled_from(FAMILIES),
           spec_seed=st.integers(min_value=0, max_value=2**20),
           input_seed=st.integers(min_value=0, max_value=2**20))
    def test_engines_agree_on_generated_kernels(self, family, spec_seed,
                                                input_seed):
        generated = generate_kernel(sample_spec(family, spec_seed))
        kernel = generated.kernel
        module = compile_c(generated.c_source, module_name=kernel.name)
        optimize(module, level=2)

        args = kernel.arguments(None, seed=input_seed)
        expected = kernel.expected(args)
        values = {}
        for engine_cls in (FunctionalSimulator, CompiledSimulator):
            run_args = tuple(list(a) if isinstance(a, list) else a
                             for a in args)
            values[engine_cls.__name__] = engine_cls(module.clone()).run(
                kernel.entry, *run_args)
        assert values["FunctionalSimulator"] == expected
        assert values["CompiledSimulator"] == expected

    @settings(max_examples=5, deadline=None)
    @given(spec_seed=st.integers(min_value=0, max_value=2**20))
    def test_generated_kernels_survive_opt_levels(self, spec_seed):
        """Optimization must not change a generated kernel's value."""
        generated = generate_kernel(sample_spec("memory_mixed", spec_seed))
        kernel = generated.kernel
        args = kernel.arguments(None, seed=spec_seed + 1)
        expected = kernel.expected(args)
        for level in (0, 2, 3):
            module = compile_c(generated.c_source, module_name=kernel.name)
            optimize(module, level=level)
            run_args = tuple(list(a) if isinstance(a, list) else a
                             for a in args)
            assert FunctionalSimulator(module).run(kernel.entry,
                                                   *run_args) == expected
