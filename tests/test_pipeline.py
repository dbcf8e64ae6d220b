"""Tests for the staged compilation pipeline and its artifact store.

Covers the PR-2 acceptance criteria: artifact-store correctness (hits
across clones, misses on opt-level / unroll-factor / machine-axis
changes), differential identity of cached vs. fresh compiles on every
kernel, front-half sharing across a 30+-point design-space sweep
(asserted via stage statistics), the unified engine registry, and the
pass manager's per-iteration fixpoint reporting.
"""

from __future__ import annotations

import pytest

from repro.arch import vliw2, vliw4
from repro.arch.machine import CustomOperation
from repro.arch.operations import OperationClass
from repro.backend.asm import encode_module
from repro.dse import DesignPoint, DesignSpace, Evaluator
from repro.exec import FUNCTIONAL_ENGINES, BatchEvaluator, validate_engine
from repro.exec.cache import module_fingerprint
from repro.opt import PassManager, optimize
from repro.opt import pipeline as opt_pipeline
from repro.pipeline import (
    ArtifactStore, CompilePipeline, machine_backend_fingerprint,
)
from repro.service import DiskArtifactStore
from repro.sim.cycle import CycleSimulator
from repro.toolchain import Toolchain
from repro.workloads import KERNELS, get_kernel, get_mix


# ----------------------------------------------------------------------
# ArtifactStore.
# ----------------------------------------------------------------------

class TestArtifactStore:
    def test_put_get_and_stats(self):
        store = ArtifactStore()
        assert store.get("s", "k") is None
        store.put("s", "k", {"x": 1}, seconds=0.5)
        artifact = store.get("s", "k")
        assert artifact is not None and artifact.payload == {"x": 1}
        stats = store.stats("s")
        assert (stats.hits, stats.misses, stats.puts) == (1, 1, 1)
        assert stats.seconds_saved == pytest.approx(0.5)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_lru_eviction(self):
        store = ArtifactStore(capacity=2)
        store.put("s", "a", 1)
        store.put("s", "b", 2)
        store.get("s", "a")          # refresh a
        store.put("s", "c", 3)       # evicts b
        assert store.get("s", "b") is None
        assert store.get("s", "a").payload == 1
        assert store.get("s", "c").payload == 3
        assert store.stats("s").evictions == 1

    def test_stage_namespaces_are_distinct(self):
        store = ArtifactStore()
        store.put("s1", "k", "one")
        store.put("s2", "k", "two")
        assert store.get("s1", "k").payload == "one"
        assert store.get("s2", "k").payload == "two"


# ----------------------------------------------------------------------
# Fingerprints: the machine-axis → stage dependency table.
# ----------------------------------------------------------------------

class TestBackendFingerprint:
    def test_timing_only_axes_do_not_invalidate(self):
        base = vliw4()
        fp = machine_backend_fingerprint(base)
        variant = base.clone("renamed")
        variant.clock_ns = base.clock_ns * 2
        variant.branch_penalty = base.branch_penalty + 3
        variant.icache = None
        variant.dcache = None
        variant.notes = "different provenance"
        assert machine_backend_fingerprint(variant) == fp

    @pytest.mark.parametrize("mutate", [
        lambda m: setattr(m, "issue_width", m.issue_width * 2),
        lambda m: setattr(m, "registers_per_cluster",
                          m.registers_per_cluster // 2),
        lambda m: m.latency_overrides.update({OperationClass.MEM: 9}),
        lambda m: setattr(m, "compressed_encoding",
                          not m.compressed_encoding),
        lambda m: setattr(m, "syllable_bits", 24),
        lambda m: setattr(m, "intercluster_latency",
                          m.intercluster_latency + 1),
    ])
    def test_backend_axes_invalidate(self, mutate):
        base = vliw4()
        fp = machine_backend_fingerprint(base)
        variant = base.clone()
        mutate(variant)
        assert machine_backend_fingerprint(variant) != fp

    def test_custom_op_table_invalidates(self):
        base = vliw4()
        fp = machine_backend_fingerprint(base)
        variant = base.clone()
        variant.add_custom_op(CustomOperation(
            name="madd3", num_inputs=3, num_outputs=1, latency=2,
            area_kgates=4.0))
        assert machine_backend_fingerprint(variant) != fp

    def test_custom_op_cost_axes_do_not_invalidate(self):
        base = vliw4()
        base.add_custom_op(CustomOperation(
            name="madd3", num_inputs=3, num_outputs=1, latency=2,
            area_kgates=4.0, fused_ops=3))
        fp = machine_backend_fingerprint(base)
        variant = base.clone()
        variant.custom_ops["madd3"].area_kgates = 99.0
        variant.custom_ops["madd3"].fused_ops = 7
        assert machine_backend_fingerprint(variant) == fp


# ----------------------------------------------------------------------
# CompilePipeline caching semantics.
# ----------------------------------------------------------------------

def _kernel_source(name="dot_product"):
    kernel = get_kernel(name)
    return kernel, kernel.source


class TestCompilePipelineCaching:
    def test_hit_across_module_clones(self):
        kernel, source = _kernel_source()
        pipeline = CompilePipeline()
        module, _ = pipeline.front(source, kernel.name)
        pipeline.backend(module, vliw4())
        assert pipeline.store.stats("backend").misses == 1
        pipeline.backend(module.clone(), vliw4())
        assert pipeline.store.stats("backend").hits == 1
        assert pipeline.store.stats("backend").misses == 1

    def test_front_half_cached_by_source(self):
        kernel, source = _kernel_source()
        pipeline = CompilePipeline()
        m1, records1 = pipeline.front(source, kernel.name)
        m2, records2 = pipeline.front(source, kernel.name)
        assert [r.hit for r in records1] == [False, False]
        assert [r.hit for r in records2] == [True]
        assert module_fingerprint(m1) == module_fingerprint(m2)
        assert m1 is not m2  # caller-safe clones

    def test_miss_on_opt_level_change(self):
        kernel, source = _kernel_source()
        pipeline = CompilePipeline()
        pipeline.front(source, kernel.name, opt_level=2)
        pipeline.front(source, kernel.name, opt_level=3)
        stats = pipeline.store.stats("optimize")
        assert stats.misses == 2 and stats.hits == 0
        # The raw frontend output is shared between opt configurations.
        assert pipeline.store.stats("frontend").hits == 1

    def test_miss_on_unroll_factor_change(self):
        kernel, source = _kernel_source()
        pipeline = CompilePipeline()
        pipeline.front(source, kernel.name, opt_level=3, unroll_factor=2)
        pipeline.front(source, kernel.name, opt_level=3, unroll_factor=4)
        stats = pipeline.store.stats("optimize")
        assert stats.misses == 2 and stats.hits == 0

    def test_miss_on_machine_axis_change(self):
        kernel, source = _kernel_source()
        pipeline = CompilePipeline()
        module, _ = pipeline.front(source, kernel.name)
        pipeline.backend(module, vliw4())
        pipeline.backend(module, vliw2())
        narrow_regs = vliw4()
        narrow_regs.registers_per_cluster = 16
        pipeline.backend(module, narrow_regs)
        stats = pipeline.store.stats("backend")
        assert stats.misses == 3 and stats.hits == 0

    def test_mutating_returned_module_does_not_poison_cache(self):
        kernel, source = _kernel_source()
        pipeline = CompilePipeline()
        module, _ = pipeline.front(source, kernel.name)
        fp = module_fingerprint(module)
        # Rewrite the caller's module after the backend cached it.
        pipeline.backend(module, vliw4())
        function = next(iter(module.functions.values()))
        function.blocks[0].instructions[0].annotations["mut"] = True
        del module.functions[function.name]
        # A clean clone still hits and executes correctly.
        fresh, _ = pipeline.front(source, kernel.name)
        assert module_fingerprint(fresh) == fp
        compiled, _report = pipeline.backend(fresh, vliw4())
        assert pipeline.store.stats("backend").hits == 1
        args = kernel.arguments(None, seed=7)
        run_args = tuple(list(a) if isinstance(a, list) else a for a in args)
        result = CycleSimulator(compiled).run(kernel.entry, *run_args)
        assert result.value == kernel.expected(args)

    def test_rebind_across_timing_only_machines(self):
        kernel, source = _kernel_source()
        pipeline = CompilePipeline()
        module, _ = pipeline.front(source, kernel.name)
        base = vliw4()
        compiled_a, report_a = pipeline.backend(module, base)
        fast = base.clone("fast-clock")
        fast.clock_ns = base.clock_ns / 2
        fast.branch_penalty = base.branch_penalty + 1
        compiled_b, report_b = pipeline.backend(module, fast)
        # Timing-only variation: scheduled code is reused wholesale ...
        stats = pipeline.store.stats("backend")
        assert stats.hits == 1 and stats.misses == 1
        assert compiled_b.machine is fast
        assert report_b.machine == "fast-clock"
        # ... and the simulators read timing from the rebound machine.
        args = kernel.arguments(None, seed=3)
        run_args = tuple(list(a) if isinstance(a, list) else a for a in args)
        result_a = CycleSimulator(compiled_a).run(kernel.entry, *run_args)
        result_b = CycleSimulator(compiled_b).run(kernel.entry, *run_args)
        assert result_a.value == result_b.value == kernel.expected(args)
        assert result_b.cycles > result_a.cycles  # extra branch penalty
        assert result_b.clock_ns == fast.clock_ns
        # Identical binaries modulo the machine name.
        image_a = encode_module(compiled_a)
        image_b = encode_module(compiled_b)
        assert image_a.words == image_b.words
        assert image_b.machine_name == "fast-clock"

    def test_machines_share_one_private_snapshot(self):
        kernel, source = _kernel_source()
        pipeline = CompilePipeline()
        module, _ = pipeline.front(source, kernel.name)
        compiled_a, _ = pipeline.backend(module, vliw4())
        compiled_b, _ = pipeline.backend(module, vliw2())
        assert pipeline.store.stats("backend").misses == 2
        assert compiled_a.source is compiled_b.source is not module
        # Rewriting the caller's module reaches neither compiled module.
        fingerprint = module_fingerprint(compiled_a.source)
        optimize(module, level=3)
        assert module_fingerprint(module) != fingerprint
        assert module_fingerprint(compiled_b.source) == fingerprint
        compiled_c, _ = pipeline.backend(module, vliw4())
        assert compiled_c.source is not compiled_a.source

    def test_encode_stage_serves_binary(self):
        kernel, source = _kernel_source()
        toolchain = Toolchain(vliw4(), pipeline=CompilePipeline())
        a1 = toolchain.build(source, kernel.name)
        a2 = toolchain.build(source, kernel.name)
        b1, b2 = a1.binary, a2.binary
        assert b1.words == b2.words
        stats = toolchain.pipeline.store.stats("encode")
        assert stats.misses == 1 and stats.hits == 1

    def test_binary_reencodes_after_compiled_mutation(self):
        kernel, source = _kernel_source()
        toolchain = Toolchain(vliw4(), pipeline=CompilePipeline())
        artifacts = toolchain.build(source, kernel.name)
        baseline = artifacts.binary
        dropped = next(iter(artifacts.compiled.functions))
        del artifacts.compiled.functions[dropped]
        image = artifacts.binary           # cached image no longer matches
        assert dropped in baseline.words
        assert dropped not in image.words

    def test_report_surfaces_stage_records(self):
        kernel, source = _kernel_source()
        toolchain = Toolchain(vliw4(), pipeline=CompilePipeline())
        report = toolchain.build(source, kernel.name).report
        assert [r.stage for r in report.stages] == [
            "frontend", "optimize", "backend"]
        assert all(not r.hit for r in report.stages)
        assert all(r.seconds >= 0.0 for r in report.stages)
        warm = toolchain.build(source, kernel.name).report
        assert [(r.stage, r.hit) for r in warm.stages] == [
            ("optimize", True), ("backend", True)]


# ----------------------------------------------------------------------
# Differential identity: cached vs. fresh compiles, every kernel.
# ----------------------------------------------------------------------

class TestDifferentialIdentity:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_cached_equals_fresh(self, name):
        kernel = get_kernel(name)
        machine = vliw4()
        shared = CompilePipeline()
        # Cold build, then a fully cached build on the same pipeline.
        _, cold, cold_report, _ = shared.build(
            kernel.source, machine, name=kernel.name, opt_level=2)
        _, warm, warm_report, _ = shared.build(
            kernel.source, machine, name=kernel.name, opt_level=2)
        assert all(r.hit for r in warm_report.stages)
        # And a from-scratch compile on a private pipeline.
        _, fresh, fresh_report, _ = CompilePipeline().build(
            kernel.source, machine, name=kernel.name, opt_level=2)

        images = [encode_module(c) for c in (cold, warm, fresh)]
        assert images[0].words == images[1].words == images[2].words
        assert (images[0].bundle_table == images[1].bundle_table
                == images[2].bundle_table)
        for report in (warm_report, fresh_report):
            assert report.functions == cold_report.functions
            assert report.spilled_registers == cold_report.spilled_registers
            assert report.schedule.bundles == cold_report.schedule.bundles
            assert report.code.bytes_effective == cold_report.code.bytes_effective

    @pytest.mark.parametrize("name", ["dot_product", "sad16", "crc32"])
    def test_cached_simulation_matches_fresh(self, name):
        kernel = get_kernel(name)
        machine = vliw4()
        shared = CompilePipeline()
        shared.build(kernel.source, machine, name=kernel.name)
        _, warm, _, _ = shared.build(kernel.source, machine, name=kernel.name)
        _, fresh, _, _ = CompilePipeline().build(
            kernel.source, machine, name=kernel.name)
        args = kernel.arguments(None, seed=11)
        run_args = tuple(list(a) if isinstance(a, list) else a for a in args)
        warm_result = CycleSimulator(warm).run(kernel.entry, *run_args)
        args = kernel.arguments(None, seed=11)
        run_args = tuple(list(a) if isinstance(a, list) else a for a in args)
        fresh_result = CycleSimulator(fresh).run(kernel.entry, *run_args)
        assert warm_result.value == fresh_result.value == kernel.expected(args)
        assert warm_result.cycles == fresh_result.cycles
        assert warm_result.stats.operations_executed == \
            fresh_result.stats.operations_executed


# ----------------------------------------------------------------------
# DSE sweep: front half exactly once per kernel.
# ----------------------------------------------------------------------

class TestSweepSharing:
    def test_sweep_compiles_front_half_once_per_kernel(self):
        space = DesignSpace(
            issue_widths=(4,),
            register_counts=(32, 64),
            cluster_counts=(1,),
            mul_unit_counts=(1,),
            mem_unit_counts=(1,),
            mul_latencies=(1, 2, 3, 4),
            mem_latencies=(2, 3),
            compression_options=(True, False),
        )
        points = list(space.points())
        assert len(points) >= 30
        mix = get_mix("medical")
        n_kernels = len(mix.names())
        pipeline = CompilePipeline()
        evaluator = Evaluator(mix, size=8, fidelity="trace",
                              pipeline=pipeline)
        for point in points:
            evaluation = evaluator.evaluate(point.to_machine())
            assert evaluation.feasible
        # Frontend + optimize ran exactly once per kernel over the whole
        # 32-point sweep; every (kernel, point) pair hit the backend.
        assert pipeline.store.stats("frontend").misses == n_kernels
        assert pipeline.store.stats("frontend").hits == 0
        assert pipeline.store.stats("optimize").misses == n_kernels
        assert pipeline.store.stats("optimize").hits == 0
        backend = pipeline.store.stats("backend")
        assert backend.misses == len(points) * n_kernels
        assert backend.hits == 0
        # A second sweep over the same space is compile-free.
        warm = Evaluator(mix, size=8, fidelity="trace", pipeline=pipeline)
        for point in points[:5]:
            warm.evaluate(point.to_machine())
        assert pipeline.store.stats("optimize").hits == n_kernels
        assert pipeline.store.stats("backend").hits == 5 * n_kernels
        assert backend.misses == len(points) * n_kernels

    def test_evaluations_identical_with_and_without_shared_pipeline(self):
        mix = get_mix("network")
        point = DesignPoint(issue_width=2, registers=32)
        shared = CompilePipeline()
        evaluator = Evaluator(mix, size=8, pipeline=shared)
        first = evaluator.evaluate(point.to_machine())
        second = evaluator.evaluate(point.to_machine())
        isolated = Evaluator(mix, size=8,
                             pipeline=CompilePipeline()).evaluate(
                                 point.to_machine())
        for other in (second, isolated):
            assert other.weighted_cycles == first.weighted_cycles
            assert other.weighted_energy_uj == first.weighted_energy_uj
            assert other.total_code_bytes == first.total_code_bytes


# ----------------------------------------------------------------------
# Engine registry (unified validation).
# ----------------------------------------------------------------------

class TestEngineRegistry:
    def test_registry_contents(self):
        assert "interpreter" in FUNCTIONAL_ENGINES
        assert validate_engine("compiled") == "compiled"
        assert validate_engine("trace", "fidelity") == "trace"

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            validate_engine("quantum")
        with pytest.raises(ValueError, match="unknown engine"):
            validate_engine("interpreter", "fidelity")
        with pytest.raises(KeyError):
            validate_engine("cycle", "nonsense")

    def test_toolchain_and_evaluator_share_validation(self):
        with pytest.raises(ValueError, match="unknown engine"):
            Toolchain(vliw4(), engine="warp")
        with pytest.raises(ValueError, match="unknown engine"):
            Evaluator(get_mix("medical"), size=8, fidelity="warp")


# ----------------------------------------------------------------------
# BatchEvaluator on the shared artifact store.
# ----------------------------------------------------------------------

class TestBatchEvaluatorStore:
    @pytest.fixture(autouse=True)
    def _bind_evaluator(self, medical_evaluator):
        self._evaluator = lambda: medical_evaluator(pipeline=CompilePipeline())

    def test_two_batches_share_a_store(self):
        store = ArtifactStore(capacity=None)
        point = DesignPoint(issue_width=2)
        first = BatchEvaluator(self._evaluator(), store=store)
        first.evaluate(point)
        assert first.stats.evaluated == 1
        second = BatchEvaluator(self._evaluator(), store=store)
        second.evaluate(point)
        assert second.stats.evaluated == 0
        assert second.stats.memory_hits == 1

    def test_disk_layer_still_works(self, tmp_path):
        point = DesignPoint(issue_width=2)
        cold = BatchEvaluator(self._evaluator(),
                              store=DiskArtifactStore(str(tmp_path)))
        cold.evaluate(point)
        warm = BatchEvaluator(self._evaluator(),
                              store=DiskArtifactStore(str(tmp_path)))
        result = warm.evaluate(point)
        assert warm.stats.disk_hits == 1 and warm.stats.evaluated == 0
        assert result.weighted_cycles > 0


# ----------------------------------------------------------------------
# PassManager fixpoint reporting.
# ----------------------------------------------------------------------

class TestFixpointReporting:
    def test_per_iteration_counts_recorded(self):
        kernel = get_kernel("fir_filter")
        pipeline = CompilePipeline()
        module, _ = pipeline.frontend(kernel.source, kernel.name)
        stats = optimize(module, level=2)
        assert stats.fixpoint_runs, "optimize() must record fixpoint runs"
        labels = [run.label for run in stats.fixpoint_runs]
        assert labels == ["initial", "post-inline", "post-if-convert"]
        for run in stats.fixpoint_runs:
            assert run.converged
            assert run.iterations[-1] == 0          # the proving iteration
            assert all(n >= 0 for n in run.iterations)
        # Per-iteration counts must sum to the aggregate counters' total
        # for the cleanup passes.
        cleanup_names = {name for name, _fn in opt_pipeline.CLEANUP_PASSES}
        cleanup_total = sum(count for name, count in stats.changes.items()
                            if name in cleanup_names)
        assert sum(run.total_changes
                   for run in stats.fixpoint_runs) == cleanup_total
        assert stats.cap_hits == []

    def test_cap_hit_warns_and_reports(self, monkeypatch):
        def always_changes(function):
            return 1

        monkeypatch.setattr(opt_pipeline, "CLEANUP_PASSES",
                            (("always_changes", always_changes),))
        kernel = get_kernel("dot_product")
        pipeline = CompilePipeline()
        module, _ = pipeline.frontend(kernel.source, kernel.name)
        manager = PassManager(verify=False)
        with pytest.warns(RuntimeWarning, match="iteration cap"):
            run = manager.run_to_fixpoint("test", module, max_iterations=3)
        assert not run.converged
        assert run.iterations == [1, 1, 1]
        assert manager.stats.cap_hits == [run]
