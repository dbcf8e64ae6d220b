"""Tests for the ISA-customization engine (patterns, identification,
selection, rewriting, end-to-end customizer)."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from repro.arch import CustomOperation, risc_baseline, vliw4
from repro.core import (
    Candidate, EnumerationConfig, ExtensionLibrary, IsaCustomizer, Pattern,
    PatternNode, SelectionConfig, customize_isa, enumerate_block_cuts,
    identify_candidates, pattern_from_cut,
    rewrite_with_library, select,
)
from repro.core.rewrite import custom_op_usage
from repro.frontend import compile_c
from repro.ir import Opcode, assert_valid, build_dataflow_graph
from repro.opt import optimize
from repro.sim import CycleSimulator, FunctionalSimulator
from repro.backend import compile_module
from repro.workloads import get_kernel


def make_mac_pattern() -> Pattern:
    """A hand-written multiply-accumulate pattern: out = in0*in1 + in2."""
    nodes = [
        PatternNode(Opcode.MUL, (("in", 0), ("in", 1))),
        PatternNode(Opcode.ADD, (("node", 0), ("in", 2))),
    ]
    return Pattern(nodes, outputs=[1], num_inputs=3, name="mac")


class TestPatterns:
    def test_evaluate_matches_python(self):
        mac = make_mac_pattern()
        assert mac.evaluate([3, 4, 5]) == 17
        assert mac.evaluate([-2, 6, 1]) == -11

    def test_evaluate_wraps_to_32_bits(self):
        mac = make_mac_pattern()
        assert mac.evaluate([2**16, 2**16, 0]) == -(2**31) or mac.evaluate([2**16, 2**16, 0]) == 0
        # 2^32 wraps to 0 in 32-bit arithmetic.
        assert mac.evaluate([2**16, 2**16, 7]) == 7

    def test_wrong_arity_rejected(self):
        with pytest.raises(Exception):
            make_mac_pattern().evaluate([1, 2])

    def test_hardware_latency_less_than_software(self):
        mac = make_mac_pattern()
        software = mac.software_latency(lambda op: 2 if op is Opcode.MUL else 1)
        assert mac.hardware_latency() <= software

    def test_area_grows_with_size(self):
        small = make_mac_pattern()
        nodes = list(small.nodes) + [PatternNode(Opcode.ADD, (("node", 1), ("in", 3)))]
        large = Pattern(nodes, outputs=[2], num_inputs=4)
        assert large.hardware_area_kgates() > small.hardware_area_kgates()

    def test_signature_commutative_invariance(self):
        a = Pattern([PatternNode(Opcode.ADD, (("in", 0), ("in", 1)))], [0], 2)
        b = Pattern([PatternNode(Opcode.ADD, (("in", 1), ("in", 0)))], [0], 2)
        assert a.signature() == b.signature()

    def test_signature_distinguishes_structure(self):
        add = Pattern([PatternNode(Opcode.ADD, (("in", 0), ("in", 1)))], [0], 2)
        sub = Pattern([PatternNode(Opcode.SUB, (("in", 0), ("in", 1)))], [0], 2)
        assert add.signature() != sub.signature()

    def test_default_name_is_a_sha256_prefix_of_the_signature(self):
        add = Pattern([PatternNode(Opcode.ADD, (("in", 0), ("in", 1)))], [0], 2)
        assert re.fullmatch(r"cop_[0-9a-f]{12}", add.name)
        swapped = Pattern([PatternNode(Opcode.ADD, (("in", 1), ("in", 0)))],
                          [0], 2)
        assert swapped.name == add.name

    def test_pattern_from_cut_round_trip(self, sad_module):
        function = sad_module.get_function("sad16")
        body = function.get_block("for.body")
        dfg = build_dataflow_graph(body)
        chain = [i for i in body.instructions
                 if i.opcode in (Opcode.SUB, Opcode.CMPLT, Opcode.NEG, Opcode.SELECT)]
        pattern, inputs, outputs = pattern_from_cut(chain, dfg)
        assert pattern.size == 4
        assert len(outputs) == 1
        # |a - b| for a=9, b=4 and a=4, b=9.
        assert pattern.evaluate([9, 4]) == 5 or pattern.evaluate([4, 9]) == 5


class TestIdentification:
    def test_cuts_respect_io_constraints(self, sad_module):
        function = sad_module.get_function("sad16")
        body = function.get_block("for.body")
        config = EnumerationConfig(max_inputs=2, max_outputs=1, max_size=6)
        dfg = build_dataflow_graph(body)
        for cut, _dfg in enumerate_block_cuts(body, config):
            non_const_inputs = [
                v for v in dfg.subgraph_inputs(cut)
                if not hasattr(v, "value") or not isinstance(getattr(v, "value", None), int)
            ]
            assert len(non_const_inputs) <= 2
            assert len(dfg.subgraph_outputs(cut)) <= 1
            assert len(cut) <= 6
            assert dfg.is_convex(cut)

    def test_memory_ops_never_in_candidates(self, sad_module):
        candidates = identify_candidates(sad_module, EnumerationConfig(max_outputs=1))
        for candidate in candidates:
            for node in candidate.pattern.nodes:
                assert node.opcode not in (Opcode.LOAD, Opcode.STORE, Opcode.CALL)

    def test_candidates_merged_across_occurrences(self):
        kernel = get_kernel("sad16")
        module = compile_c(kernel.source)
        optimize(module, level=3, unroll_factor=4)   # 4 copies of the abs chain
        candidates = identify_candidates(module, EnumerationConfig(max_outputs=1))
        best = max(candidates, key=lambda c: c.static_count)
        assert best.static_count >= 4

    def test_benefit_weighted_by_frequency(self, sad_module):
        candidates = identify_candidates(sad_module, EnumerationConfig(max_outputs=1))
        machine = vliw4()
        for candidate in candidates:
            assert candidate.estimated_benefit(machine) == pytest.approx(
                candidate.cycles_saved_per_use(machine) * candidate.dynamic_count
            )


class TestSelection:
    def _candidates(self):
        kernel = get_kernel("alpha_blend")
        module = compile_c(kernel.source)
        optimize(module, level=3)
        return identify_candidates(module, EnumerationConfig(max_outputs=1)), module

    def test_area_budget_respected(self):
        candidates, _ = self._candidates()
        machine = vliw4()
        for budget in (5.0, 20.0, 25.0, 60.0):
            result = select(candidates, machine,
                            SelectionConfig(area_budget_kgates=budget))
            assert result.area_used_kgates <= budget + 1e-9

    def test_opcode_budget_respected(self):
        candidates, _ = self._candidates()
        result = select(candidates, vliw4(),
                        SelectionConfig(opcode_budget=3, area_budget_kgates=1e9))
        assert result.opcode_points_used <= 3

    def test_max_operations_respected(self):
        candidates, _ = self._candidates()
        result = select(candidates, vliw4(),
                        SelectionConfig(max_operations=2, area_budget_kgates=1e9))
        assert len(result.selected) <= 2

    def test_overlap_filtering_keeps_disjoint_sites(self):
        candidates, _ = self._candidates()
        result = select(candidates, vliw4(), SelectionConfig())
        claimed = set()
        for candidate in result.selected:
            for occurrence in candidate.occurrences:
                ids = {id(inst) for inst in occurrence.instructions}
                assert not (ids & claimed)
                claimed |= ids


class TestRewriteAndCustomizer:
    def test_customize_isa_end_to_end_correct(self):
        kernel = get_kernel("viterbi_acs")
        module = compile_c(kernel.source)
        optimize(module, level=3)
        base = vliw4()
        result = customize_isa(module, base, area_budget_kgates=40.0)
        assert result.machine.custom_ops
        assert custom_op_usage(module)
        assert_valid(module)
        # Semantics preserved through fused execution on both simulators.
        args = kernel.arguments(32)
        expected = kernel.expected(args)
        functional = FunctionalSimulator(module.clone()).run(
            kernel.entry, *[list(a) if isinstance(a, list) else a for a in args])
        compiled, _ = compile_module(module, result.machine)
        cycle = CycleSimulator(compiled).run(
            kernel.entry, *[list(a) if isinstance(a, list) else a for a in args])
        assert functional == expected
        assert cycle.value == expected

    def test_float_instructions_are_never_fused(self):
        # A pattern computes every node at i32, so fusing the float
        # SELECT of this running max would truncate 7.75 to 7.0.
        source = """
        float pick(float *x, int n, float lo) {
            float best = lo;
            for (int i = 0; i < n; i++) {
                float v = x[i];
                best = v > best ? v : best;
            }
            return best;
        }
        """
        module = compile_c(source, module_name="pick")
        optimize(module, level=3)
        args = lambda: ([0.5, 2.25, -3.0, 7.75], 4, 1.5)
        assert FunctionalSimulator(module.clone()).run("pick", *args()) == 7.75
        customize_isa(module, vliw4(), area_budget_kgates=40.0)
        for function in module:
            for block in function.blocks:
                for inst in block.instructions:
                    if inst.opcode is Opcode.CUSTOM:
                        values = [inst.dest, *inst.operands]
                        assert not any(v.type.is_float() for v in values
                                       if v is not None), inst
        assert FunctionalSimulator(module.clone()).run("pick", *args()) == 7.75

    def test_customization_reduces_cycles(self):
        kernel = get_kernel("saturated_add")
        module = compile_c(kernel.source)
        optimize(module, level=3)
        base = vliw4()
        baseline_compiled, _ = compile_module(module.clone(), base)
        args = kernel.arguments(48)
        run_args = lambda: tuple(list(a) if isinstance(a, list) else a for a in args)
        baseline = CycleSimulator(baseline_compiled).run(kernel.entry, *run_args())

        result = customize_isa(module, base, area_budget_kgates=40.0)
        compiled, _ = compile_module(module, result.machine)
        custom = CycleSimulator(compiled).run(kernel.entry, *run_args())
        assert custom.value == baseline.value
        assert custom.cycles <= baseline.cycles

    def test_report_fields_consistent(self):
        kernel = get_kernel("rgb_to_gray")
        module = compile_c(kernel.source)
        optimize(module, level=3)
        result = customize_isa(module, vliw4(), area_budget_kgates=30.0)
        report = result.report
        assert report.operations_selected == len(report.selected_names)
        assert report.area_added_kgates <= 30.0 + 1e-9
        assert report.base_machine == "vliw4"
        assert "custom" in report.custom_machine
        assert report.summary()

    def test_library_rewrite_applies_to_unseen_program(self):
        # Customize a machine for one kernel, apply its operations to
        # another that contains the same abs-difference idiom.
        donor = get_kernel("sad16")
        donor_module = compile_c(donor.source)
        optimize(donor_module, level=3)
        customizer = IsaCustomizer(vliw4(),
                                   selection_config=SelectionConfig(area_budget_kgates=60.0))
        machine = customizer.customize(donor_module).machine
        assert machine.custom_ops

        recipient_source = (
            "int absdiff_sum(int *a, int *b, int n) {\n"
            "    int acc = 0;\n"
            "    for (int i = 0; i < n; i++) {\n"
            "        int d = a[i] - b[i];\n"
            "        acc = acc + (d < 0 ? -d : d);\n"
            "    }\n"
            "    return acc;\n"
            "}\n"
        )
        recipient = compile_c(recipient_source)
        optimize(recipient, level=3)
        assert rewrite_with_library(recipient, vliw4()) == {}
        rewritten = rewrite_with_library(recipient, machine)
        assert sum(rewritten.values()) > 0
        assert set(rewritten) <= set(machine.custom_ops)
        a = [5, -3, 10, 0]
        b = [2, 4, -10, 0]
        value = FunctionalSimulator(recipient).run("absdiff_sum", a, b, 4)
        assert value == sum(abs(x - y) for x, y in zip(a, b))

    def test_area_customization_shares_budget_across_kernels(self):
        mix_modules = []
        for name in ("sad16", "saturated_add"):
            kernel = get_kernel(name)
            module = compile_c(kernel.source, module_name=name)
            optimize(module, level=3)
            mix_modules.append((module, 1.0))
        customizer = IsaCustomizer(vliw4(),
                                   selection_config=SelectionConfig(area_budget_kgates=50.0))
        result = customizer.customize_for_area(mix_modules, name="vliw4+area")
        assert result.machine.name == "vliw4+area"
        assert result.report.area_added_kgates <= 50.0 + 1e-9
        # Both modules remain semantically correct after rewriting.
        for (module, _w), name in zip(mix_modules, ("sad16", "saturated_add")):
            kernel = get_kernel(name)
            args = kernel.arguments(24)
            expected = kernel.expected(args)
            value = FunctionalSimulator(module).run(
                kernel.entry, *[list(a) if isinstance(a, list) else a for a in args])
            assert value == expected


class TestCustomOpNames:
    def test_selected_names_do_not_depend_on_the_hash_seed(self):
        """Native-code keys of customized modules hold across processes."""
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "from repro.api import Session\n"
            "from repro.api.requests import CustomizeRequest\n"
            "with Session() as session:\n"
            "    response = session.execute(CustomizeRequest(\n"
            "        kernel='crc32', machine='vliw4', opt_level=3))\n"
            "print(','.join(response.selected_ops))\n"
        )
        names = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [src] + [p for p in [env.get("PYTHONPATH")] if p])
            completed = subprocess.run([sys.executable, "-c", code], env=env,
                                       capture_output=True, text=True,
                                       timeout=120)
            assert completed.returncode == 0, completed.stderr
            names.append(completed.stdout.strip().splitlines()[-1])
        assert names[0] and names[0] == names[1]

    def test_viterbi_customization_does_not_depend_on_the_hash_seed(self):
        """The whole customization of the kernel with the most cuts —
        identification order, selection, rewrite and the customized run —
        is the same in processes with different hash seeds."""
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "import json\n"
            "from repro.api import Session\n"
            "from repro.api.requests import CustomizeRequest\n"
            "with Session() as session:\n"
            "    response = session.execute(CustomizeRequest(\n"
            "        kernel='viterbi_acs', machine='vliw4', opt_level=3))\n"
            "print(json.dumps([response.selected_ops, response.custom_cycles,\n"
            "                  response.correct]))\n"
        )
        results = []
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [src] + [p for p in [env.get("PYTHONPATH")] if p])
            completed = subprocess.run([sys.executable, "-c", code], env=env,
                                       capture_output=True, text=True,
                                       timeout=120)
            assert completed.returncode == 0, completed.stderr
            results.append(json.loads(completed.stdout.strip().splitlines()[-1]))
        selected_ops, _cycles, correct = results[0]
        assert selected_ops and correct
        assert results[1] == results[0] and results[2] == results[0]

    def test_register_rejects_a_name_bound_to_another_signature(self):
        library = ExtensionLibrary()
        library.register(make_mac_pattern())
        library.register(make_mac_pattern())  # same signature: replaced
        assert library.names() == ["mac"]
        impostor = Pattern([PatternNode(Opcode.SUB, (("in", 0), ("in", 1)))],
                           [0], 2, name="mac")
        with pytest.raises(ValueError, match="already bound"):
            library.register(impostor)
        assert library.lookup("mac").signature() == make_mac_pattern().signature()
