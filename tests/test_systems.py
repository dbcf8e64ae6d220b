"""Tests for the higher-level systems: toolchain facade, N×M matrix,
design-space exploration, ISA drift, economics models, workloads."""

from __future__ import annotations

import threading

import pytest

from repro.arch import IsaFamily, risc_baseline, vliw2, vliw4, vliw8
from repro.backend import compile_module
from repro.drift import (
    BinaryTranslator, CodeCache, StagedExecutionModel, assess, expand_custom_ops,
    family_compatibility_report,
)
from repro.dse import (
    DesignPoint, DesignSpace, Evaluator, Explorer, dominates, pareto_front,
    run_ablation,
)
from repro.econ import (
    ChipProject, DevelopmentCycleModel, KernelOutcome, ProcessAssumptions,
    analyze_premium, compute_table1, cost_vs_volume, crossover_volume,
    integration_advantage, matches_published_ratios, reference_set_top_design,
    unit_cost, unit_price,
)
from repro.core import customize_isa
from repro.frontend import compile_c
from repro.opt import optimize
from repro.pipeline import CompilePipeline
from repro.sim import CycleSimulator
from repro.toolchain import Toolchain, run_matrix
from repro.workloads import (
    DOMAINS, KERNELS, WorkloadMix, compile_kernel, get_kernel, get_mix,
)


class TestWorkloads:
    def test_every_kernel_compiles_and_matches_oracle(self):
        from repro.sim import FunctionalSimulator

        for name, kernel in sorted(KERNELS.items()):
            module = compile_kernel(name)
            args = kernel.arguments(min(kernel.default_size, 32))
            expected = kernel.expected(args)
            value = FunctionalSimulator(module).run(
                kernel.entry, *[list(a) if isinstance(a, list) else a for a in args])
            assert value == expected, name

    def test_domains_cover_paper_list(self):
        assert {"dsp", "video", "network", "camera", "printer"} <= set(DOMAINS)

    def test_mixes_reference_existing_kernels(self):
        for mix_name in ("cellphone", "video", "network"):
            mix = get_mix(mix_name)
            for kernel, weight in mix.kernels():
                assert kernel.name in KERNELS
                assert weight > 0

    def test_unknown_kernel_and_mix_raise(self):
        with pytest.raises(KeyError):
            get_kernel("missing")
        with pytest.raises(KeyError):
            get_mix("missing")


class TestToolchainFacade:
    def test_compile_and_run_single_call(self):
        kernel = get_kernel("dot_product")
        toolchain = Toolchain(vliw4(), opt_level=2)
        artifacts, result = toolchain.compile_and_run(
            kernel.source, kernel.entry, [1, 2, 3, 4], [5, 6, 7, 8], 4,
            name=kernel.name)
        assert result.value == 1 * 5 + 2 * 6 + 3 * 7 + 4 * 8
        assert artifacts.code_size is not None
        assert artifacts.area.core > 0
        assert ".function dot_product" in artifacts.assembly
        assert artifacts.binary.total_words > 0

    def test_retarget_shares_source(self):
        kernel = get_kernel("ip_checksum")
        toolchain = Toolchain(vliw2(), opt_level=2)
        module = toolchain.frontend(kernel.source, kernel.name)
        args = kernel.arguments(32)
        expected = kernel.expected(args)
        for target in (vliw2(), vliw4(), vliw8()):
            retargeted = toolchain.retarget(target)
            artifacts = retargeted.build(module.clone())
            result = retargeted.run(
                artifacts, kernel.entry,
                *[list(a) if isinstance(a, list) else a for a in args])
            assert result.value == expected

    def test_customize_produces_new_family_member(self):
        kernel = get_kernel("viterbi_acs")
        toolchain = Toolchain(vliw4(), opt_level=3)
        module = toolchain.frontend(kernel.source, kernel.name)
        custom = toolchain.customize(module, area_budget_kgates=40.0)
        assert custom.machine.custom_ops
        assert custom.machine.name != toolchain.machine.name

    def test_nxm_matrix_all_pass(self):
        report = run_matrix(
            [risc_baseline(), vliw4()],
            kernel_names=["dot_product", "saturated_add", "ip_checksum"],
            size=16,
        )
        assert len(report.cells) == 6
        assert report.all_correct, [c.error for c in report.failures]
        assert report.pass_rate() == 1.0
        assert set(report.machines) == {"risc32", "vliw4"}
        rows = report.to_rows()
        assert all(row["ok"] == "pass" for row in rows)

    def test_nxm_matrix_runs_one_reference_per_kernel(self, monkeypatch,
                                                       api_session):
        import repro.exec.engine as engine_module
        from repro.arch.presets import PRESETS, get_preset

        built = []
        real = engine_module.make_functional_simulator

        def counting(module, **kwargs):
            built.append(module.name)
            return real(module, **kwargs)

        monkeypatch.setattr(engine_module, "make_functional_simulator",
                            counting)
        machines = [get_preset(name) for name in sorted(PRESETS)]
        report = run_matrix(machines, size=8, pipeline=api_session.pipeline)
        assert len(report.cells) == len(machines) * len(KERNELS) == 98
        assert report.all_correct, [c.error for c in report.failures]
        assert len(built) == len(KERNELS) == 14

    def test_nxm_matrix_reference_failure_marks_every_machine(
            self, monkeypatch, api_session):
        import repro.exec.engine as engine_module
        from repro.sim import SimulationError

        real = engine_module.make_functional_simulator
        calls = []

        class Broken:
            def run(self, entry, *args):
                calls.append(entry)
                raise SimulationError(f"reference broke on {entry}")

        def breaking(module, **kwargs):
            if module.name == "saturated_add":
                return Broken()
            return real(module, **kwargs)

        monkeypatch.setattr(engine_module, "make_functional_simulator",
                            breaking)
        machines = [risc_baseline(), vliw2(), vliw4()]
        report = run_matrix(machines,
                            kernel_names=["dot_product", "saturated_add"],
                            size=8, pipeline=api_session.pipeline)
        broken = [c for c in report.cells if c.kernel == "saturated_add"]
        assert len(broken) == len(machines)
        assert not any(cell.correct for cell in broken)
        assert {cell.error for cell in broken} == {
            "SimulationError: reference broke on saturated_add"}
        assert calls == ["saturated_add"]
        assert all(cell.correct for cell in report.cells
                   if cell.kernel == "dot_product")


class TestDesignSpaceExploration:
    def test_space_enumeration_respects_constraints(self):
        space = DesignSpace(issue_widths=(2, 4), cluster_counts=(1, 2),
                            register_counts=(32,), mul_unit_counts=(1,),
                            mem_unit_counts=(1,))
        points = list(space.points())
        assert all(p.issue_width % p.clusters == 0 for p in points)
        assert space.size() == len(points)

    def test_design_point_builds_valid_machine(self):
        machine = DesignPoint(issue_width=4, registers=64).to_machine()
        machine.validate()
        assert machine.issue_width == 4

    def test_pareto_front_properties(self):
        items = [(1.0, 5.0), (2.0, 2.0), (3.0, 3.0), (5.0, 1.0)]
        front = pareto_front(items, key=lambda t: t)
        assert (3.0, 3.0) not in front
        assert {(1.0, 5.0), (2.0, 2.0), (5.0, 1.0)} == set(front)
        assert dominates((1.0, 1.0), (2.0, 2.0))
        assert not dominates((1.0, 3.0), (2.0, 2.0))

    def test_exhaustive_exploration_finds_wider_machine_faster(self):
        evaluator = Evaluator(get_mix("video"), size=24, opt_level=2)
        explorer = Explorer(evaluator, objective="performance")
        space = DesignSpace(issue_widths=(1, 4), register_counts=(64,),
                            cluster_counts=(1,), mul_unit_counts=(1,),
                            mem_unit_counts=(2,))
        result = explorer.exhaustive(space)
        assert result.best is not None and result.best.feasible
        assert result.best.machine.issue_width == 4
        assert len(result.pareto()) >= 1
        assert result.table()

    def test_greedy_exploration_terminates(self):
        evaluator = Evaluator(get_mix("network"), size=16, opt_level=2)
        explorer = Explorer(evaluator, objective="perf_per_area")
        space = DesignSpace.small()
        result = explorer.greedy(space, max_rounds=1)
        assert result.best is not None
        assert result.points_evaluated >= 1

    def test_ablation_covers_every_axis(self):
        evaluator = Evaluator(get_mix("medical"), size=16, opt_level=2)
        rows = run_ablation(evaluator, vliw4(), custom_budget=30.0)
        axes = {row.axis for row in rows}
        assert {"reference", "issue_width", "registers", "fu_mix", "latency",
                "encoding", "custom_ops"} <= axes
        reference = next(r for r in rows if r.axis == "reference")
        assert reference.speedup == pytest.approx(1.0)


class TestConcurrentCustomization:
    """Customizing evaluations share the one extension library."""

    def test_finished_evaluation_keeps_ops_an_overlapping_one_uses(self):
        # sad16 at O3 customized at 40 kgates selects the same operations
        # for vliw4 (A) and vliw8 (B).  A customizes, B customizes, A
        # finishes, and only then does B compile and run.
        mix = WorkloadMix("sad16", {"sad16": 1.0})
        a_running, b_customized, a_done = (threading.Event(),
                                           threading.Event(),
                                           threading.Event())
        results = {}

        def evaluate(name, machine, arrive, wait_for):
            evaluator = Evaluator(mix, opt_level=3,
                                  pipeline=CompilePipeline())
            backend = evaluator.pipeline.backend

            def gated(module, target):
                arrive.set()
                wait_for.wait(60)
                return backend(module, target)

            evaluator.pipeline.backend = gated
            results[name] = evaluator.evaluate(machine, custom_area_budget=40.0)

        thread_a = threading.Thread(
            target=evaluate, args=("a", vliw4(), a_running, b_customized))
        thread_b = threading.Thread(
            target=evaluate, args=("b", vliw8(), b_customized, a_done))
        thread_a.start()
        assert a_running.wait(60)
        thread_b.start()
        thread_a.join(120)
        a_done.set()
        thread_b.join(120)

        first, second = results["a"], results["b"]
        assert first.feasible and first.custom_ops == 7
        assert sorted(first.machine.custom_ops) == sorted(second.machine.custom_ops)
        assert second.feasible
        serial = Evaluator(mix, opt_level=3).evaluate(
            vliw8(), custom_area_budget=40.0)
        assert second.summary_row() == serial.summary_row()

    def test_two_threads_match_serial_evaluations(self):
        evaluator = Evaluator(get_mix("video"), size=16, opt_level=2,
                              engine="compiled")
        points = [DesignPoint(issue_width=width, registers=registers,
                              custom_area_budget=40.0)
                  for width in (1, 2, 4) for registers in (32, 64)]
        serial = {point.name(): evaluator.evaluate(
            point.to_machine(), point.custom_area_budget).summary_row()
                  for point in points}
        assert all(row["feasible"] for row in serial.values())

        threaded = []

        def sweep(order):
            for point in order:
                row = evaluator.evaluate(point.to_machine(),
                                         point.custom_area_budget).summary_row()
                threaded.append((point.name(), row))

        threads = [threading.Thread(target=sweep, args=(order,))
                   for order in (points, points[::-1])]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(300)
        assert len(threaded) == 2 * len(points)
        for name, row in threaded:
            assert row == serial[name], name


class TestIsaDrift:
    def _customized_program(self):
        kernel = get_kernel("saturated_add")
        module = compile_c(kernel.source)
        optimize(module, level=3)
        base = vliw4("family_base")
        result = customize_isa(module, base, area_budget_kgates=40.0,
                               name="family_custom")
        compiled, _ = compile_module(module, result.machine)
        return kernel, module, result, compiled

    def test_expand_custom_ops_restores_primitives(self):
        kernel, module, result, _compiled = self._customized_program()
        expanded = expand_custom_ops(module, supported=set())
        assert expanded > 0
        from repro.ir import Opcode

        assert all(i.opcode is not Opcode.CUSTOM for f in module.functions.values()
                   for i in f.instructions())
        args = kernel.arguments(24)
        from repro.sim import FunctionalSimulator

        value = FunctionalSimulator(module).run(
            kernel.entry, *[list(a) if isinstance(a, list) else a for a in args])
        assert value == kernel.expected(args)

    def test_translation_to_plain_member_runs_correctly(self):
        kernel, _module, result, compiled = self._customized_program()
        translator = BinaryTranslator()
        plain_target = vliw4("family_plain")
        translated, report = translator.translate(compiled, plain_target)
        assert report.custom_ops_expanded > 0
        assert report.translation_overhead_cycles > 0
        args = kernel.arguments(24)
        value = CycleSimulator(translated).run(
            kernel.entry, *[list(a) if isinstance(a, list) else a for a in args])
        assert value.value == kernel.expected(args)

    def test_reoptimization_recovers_custom_ops(self):
        kernel, _module, result, compiled = self._customized_program()
        translator = BinaryTranslator()
        target = result.machine.clone("family_custom2")
        translated, report = translator.translate(compiled, target, reoptimize=True)
        assert report.reoptimized
        assert report.custom_ops_rematched >= 0
        args = kernel.arguments(24)
        value = CycleSimulator(translated).run(
            kernel.entry, *[list(a) if isinstance(a, list) else a for a in args])
        assert value.value == kernel.expected(args)

    def test_compatibility_assessment(self):
        base = vliw4("a")
        same = vliw4("b")
        verdict = assess(base, same)
        assert verdict.runs_unmodified
        narrow = vliw2("c")
        verdict = assess(base, narrow)
        assert not verdict.runs_unmodified
        assert verdict.remedy in ("translate", "reoptimize", "recompile")

    def test_family_report_rows(self):
        family = IsaFamily("fam", vliw4("gen1"))
        family.derive("gen2", issue_width=8)
        rows = family_compatibility_report(family)
        assert len(rows) == 2
        assert any(row["binary_compatible"] for row in rows)

    def test_staged_execution_amortisation(self):
        model = StagedExecutionModel(
            native_cycles=1000.0, translated_cycles=1300.0,
            translation_cost=50_000.0, reoptimization_cost=150_000.0,
        )
        assert model.average_overhead(1) > model.average_overhead(100)
        breakeven = model.break_even_runs(tolerance=1.5)
        assert breakeven is not None
        assert model.cumulative_cycles(10) > 0

    def test_code_cache_tiers(self):
        cache = CodeCache(translation_threshold=2, reoptimization_threshold=5)
        assert cache.touch("loop") == "cold"
        assert cache.touch("loop") == "translated"
        for _ in range(3):
            cache.touch("loop")
        assert cache.tier_of("loop") == "hot"
        assert cache.translations == 1 and cache.reoptimizations == 1


class TestEconomics:
    def test_table1_reproduction_matches_published_values(self):
        assert matches_published_ratios()
        table = compute_table1()
        assert len(table) == 6
        assert table[0]["winstone_per_dollar"] == pytest.approx(0.127, abs=1e-3)
        assert table[-1]["quake_per_dollar"] == pytest.approx(0.086, abs=1e-3)

    def test_premium_shape_high_end_pays_more(self):
        premium = analyze_premium()
        assert premium.winstone_ratio_spread > 2.0
        assert premium.marginal_cost_high > 3 * premium.marginal_cost_low
        assert premium.price_performance_exponent > 1.0

    def test_unit_cost_decreases_with_volume(self):
        project = ChipProject("chip", core_kgates=200, nre_usd=2e6)
        rows = cost_vs_volume(project, [10_000, 100_000, 1_000_000])
        costs = [row["unit_cost"] for row in rows]
        assert costs[0] > costs[1] > costs[2]

    def test_yield_and_area_sanity(self):
        from repro.econ import die_area_mm2, die_yield

        process = ProcessAssumptions()
        small = ChipProject("small", core_kgates=100)
        large = ChipProject("large", core_kgates=900)
        assert die_area_mm2(large, process) > die_area_mm2(small, process)
        assert die_yield(die_area_mm2(small, process), process) > die_yield(
            die_area_mm2(large, process), process)

    def test_crossover_exists_with_market_margins(self):
        custom = ChipProject("custom_soc", core_kgates=180, nre_usd=2.5e6, margin=1.2)
        mass = ChipProject("mass_market", core_kgates=650,
                           cumulative_volume=20_000_000, margin=3.0)
        volumes = [10_000, 50_000, 100_000, 250_000, 500_000, 1_000_000,
                   2_000_000, 5_000_000]
        crossover = crossover_volume(custom, mass, volumes)
        assert crossover is not None
        assert 50_000 <= crossover <= 5_000_000
        # Below the crossover the mass-market part is cheaper per unit.
        below = ChipProject("custom_soc", core_kgates=180, nre_usd=2.5e6,
                            margin=1.2, volume=10_000)
        mass_below = ChipProject("mass_market", core_kgates=650, nre_usd=0.0,
                                 cumulative_volume=20_000_000, margin=3.0,
                                 volume=10_000)
        assert unit_price(below) > unit_price(mass_below)

    def test_soc_integration_wins_at_volume(self):
        design = reference_set_top_design(volume=500_000)
        comparison = integration_advantage(design, processor_price_usd=35.0)
        assert comparison["soc_wins"]
        assert comparison["saving_usd"] > 0

    def test_devcycle_expected_speedup_and_crossover(self):
        model = DevelopmentCycleModel(freeze_to_ship_months=12, monthly_change_rate=0.05)
        survival = model.survival_probability()
        assert 0.0 < survival < 1.0
        exact = [KernelOutcome("k", speedup_if_targeted=1.8, speedup_if_untargeted=1.0)]
        area = [KernelOutcome("k", speedup_if_targeted=1.5, speedup_if_untargeted=1.3)]
        # With certainty, exact tailoring wins; with heavy churn, area wins.
        assert model.expected_speedup(exact, survival=1.0) > model.expected_speedup(area, survival=1.0)
        assert model.expected_speedup(area, survival=0.1) > model.expected_speedup(exact, survival=0.1)
        crossover = model.crossover_survival(exact, area)
        assert crossover is not None and 0.0 <= crossover <= 1.0
