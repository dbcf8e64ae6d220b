"""Differential tests: the compiled engine against the interpreter oracle.

The contract of :class:`repro.exec.CompiledSimulator` is bit-for-bit
equivalence with :class:`repro.sim.FunctionalSimulator` on successful
runs: same return values, same memory write-backs, same
:class:`ExecutionProfile` counters — for every kernel of the workload
suite, with and without CUSTOM (ISA-extension) operations.  These tests
enforce that contract, plus the code cache, the batch evaluator and the
engine-selector plumbing.
"""

from __future__ import annotations

import pytest

from repro.arch import vliw4
from repro.dse import DesignPoint, DesignSpace, Evaluator, Explorer
from repro.exec import (
    CODE_STAGE, BatchEvaluator, CompiledSimulator, make_functional_simulator,
    module_fingerprint, reset_global_code_cache, translate,
)
from repro.exec import cache as cache_module
from repro.frontend import compile_c
from repro.ir import Opcode
from repro.opt import optimize
from repro.pipeline import ArtifactStore
from repro.service import DiskArtifactStore
from repro.sim import FunctionalSimulator, SimulationError
from repro.toolchain import Toolchain
from repro.workloads import KERNELS, get_kernel, get_mix, run_kernel, validate_suite

from _shared import build_kernel_module


@pytest.fixture(autouse=True)
def _clean_code_cache():
    reset_global_code_cache()
    yield
    reset_global_code_cache()


def _run_both(module, entry, args):
    """Run interpreter and compiled engine; return both (value, args, profile)."""
    args_a = tuple(list(a) if isinstance(a, list) else a for a in args)
    args_b = tuple(list(a) if isinstance(a, list) else a for a in args)
    interp = FunctionalSimulator(module)
    compiled = CompiledSimulator(module)
    value_a = interp.run(entry, *args_a)
    value_b = compiled.run(entry, *args_b)
    return (value_a, args_a, interp.profile), (value_b, args_b, compiled.profile)


class TestDifferentialSuite:
    """Every workload kernel: identical values, write-backs and profiles."""

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_kernel_matches_interpreter(self, name):
        kernel, module = build_kernel_module(name)
        args = kernel.arguments(None, seed=99)
        (va, aa, pa), (vb, ab, pb) = _run_both(module, kernel.entry, args)
        assert vb == va
        assert ab == aa          # memory write-backs into list arguments
        assert pb == pa          # full ExecutionProfile equality
        assert va == kernel.expected(args)

    @pytest.mark.parametrize("name", ["sad16", "viterbi_acs", "saturated_add"])
    def test_kernel_with_custom_ops_matches_interpreter(self, name):
        kernel, module = build_kernel_module(name)
        toolchain = Toolchain(vliw4())
        toolchain.customize(module, area_budget_kgates=40.0)
        assert any(inst.opcode is Opcode.CUSTOM
                   for f in module for b in f.blocks for inst in b.instructions), \
            "customization produced no CUSTOM ops; test is vacuous"
        args = kernel.arguments(None, seed=5)
        (va, aa, pa), (vb, ab, pb) = _run_both(module, kernel.entry, args)
        assert vb == va
        assert ab == aa
        assert pb == pa
        assert pa.opcode_counts.get("custom", 0) > 0

    def test_run_profiled_applies_identical_frequencies(self):
        kernel, module = build_kernel_module("dot_product")
        clone = module.clone()
        args = kernel.arguments(None, seed=3)
        FunctionalSimulator(module).run_profiled(
            kernel.entry, *[list(a) if isinstance(a, list) else a for a in args])
        CompiledSimulator(clone).run_profiled(
            kernel.entry, *[list(a) if isinstance(a, list) else a for a in args])
        for function in module.functions.values():
            twin = clone.get_function(function.name)
            for block in function.blocks:
                assert twin.get_block(block.name).frequency == block.frequency

    def test_recursive_calls_match(self):
        source = """
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
"""
        module = compile_c(source, module_name="fib")
        optimize(module, level=2)
        (va, _aa, pa), (vb, _ab, pb) = _run_both(module, "fib", (12,))
        assert va == vb == 144
        assert pa == pb

    def test_max_steps_enforced(self):
        kernel, module = build_kernel_module("dot_product")
        args = kernel.arguments(None, seed=1)
        simulator = CompiledSimulator(module, max_steps=10)
        with pytest.raises(SimulationError):
            simulator.run(kernel.entry,
                          *[list(a) if isinstance(a, list) else a for a in args])

    def test_float_into_int_destination_truncates_like_interpreter(self):
        from repro.ir import Function, Module
        from repro.ir.instructions import move, ret
        from repro.ir.types import F32, I32
        from repro.ir.values import VirtualRegister

        module = Module("t")
        function = Function("f", return_type=I32, param_types=[F32],
                            param_names=["x"])
        module.add_function(function)
        block = function.new_block("entry")
        register = VirtualRegister(I32)
        block.append(move(register, function.arguments[0]))
        block.append(ret(register))
        assert (FunctionalSimulator(module).run("f", 3.5)
                == CompiledSimulator(module).run("f", 3.5) == 3)

    def test_division_by_zero_raises_simulation_error(self):
        module = compile_c("int f(int a) { return 100 / a; }", module_name="d")
        assert CompiledSimulator(module).run("f", 5) == 20
        with pytest.raises(SimulationError):
            CompiledSimulator(module).run("f", 0)


class TestCodeCache:
    def test_fingerprint_stable_across_clones(self):
        _kernel, module = build_kernel_module("fir_filter")
        assert module_fingerprint(module) == module_fingerprint(module.clone())

    def test_fingerprint_distinguishes_different_modules(self):
        _k1, m1 = build_kernel_module("fir_filter")
        _k2, m2 = build_kernel_module("dot_product")
        assert module_fingerprint(m1) != module_fingerprint(m2)

    def test_structurally_identical_modules_share_translation(self):
        kernel, module = build_kernel_module("dot_product")
        store = ArtifactStore()
        first = CompiledSimulator(module, store=store)
        second = CompiledSimulator(module.clone(), store=store)
        assert first.program is second.program
        stats = store.stats(CODE_STAGE)
        assert stats.misses == 1 and stats.hits == 1
        args = kernel.arguments(None, seed=11)
        run_args = tuple(list(a) if isinstance(a, list) else a for a in args)
        assert first.run(kernel.entry, *run_args) == kernel.expected(args)
        run_args = tuple(list(a) if isinstance(a, list) else a for a in args)
        assert second.run(kernel.entry, *run_args) == kernel.expected(args)

    def test_mutated_module_misses_cache(self):
        _kernel, module = build_kernel_module("dot_product")
        store = ArtifactStore()
        translate(module, store)
        clone = module.clone()
        # Mutate: renaming the entry function changes the structure.
        function = clone.functions.pop("dot_product")
        function.name = "renamed"
        clone.functions["renamed"] = function
        translate(clone, store)
        assert store.stats(CODE_STAGE).misses == 2

    def test_lru_eviction(self):
        store = ArtifactStore(capacity=1)
        _k1, m1 = build_kernel_module("dot_product")
        _k2, m2 = build_kernel_module("crc32")
        translate(m1, store)
        translate(m2, store)
        assert len(store) == 1
        assert store.stats(CODE_STAGE).evictions == 1

    def test_reset_empties_the_global_translation_store(self):
        # No store given: simulators share the process-wide store.
        stats = cache_module._GLOBAL_CODE_STORE.stats(CODE_STAGE)
        _kernel, module = build_kernel_module("dot_product")
        CompiledSimulator(module)
        warm = CompiledSimulator(module.clone())
        assert (stats.misses, stats.hits) == (1, 1)
        reset_global_code_cache()
        assert len(cache_module._GLOBAL_CODE_STORE) == 0
        cold = CompiledSimulator(module.clone())
        assert (stats.misses, stats.hits) == (1, 0)
        assert cold.program is not warm.program

    def test_disk_store_keeps_translations_in_memory(self, tmp_path):
        from repro.api import RunRequest, Session

        store = DiskArtifactStore(str(tmp_path))
        with Session(store=store) as session:
            response = session.execute(RunRequest(
                kernel="dot_product", machine="vliw4", size=16,
                engine="compiled"))
        assert response.correct
        stats = store.stats(CODE_STAGE)
        assert stats.misses == 1 and stats.corrupt == 0
        assert not (tmp_path / CODE_STAGE).exists()
        assert store.disk_len() > 0  # the compile stages did persist


class TestRememberedFingerprints:
    """``module_fingerprint`` remembers its hash per module object; these
    hold the memo to a from-scratch hash."""

    @staticmethod
    def _fresh(module):
        from repro.core.library import global_extension_library

        return cache_module._hash_module(module,
                                         global_extension_library())[0]

    def test_never_stale_across_request_kinds(self, monkeypatch):
        from repro.api import (
            AppRequest, CustomizeRequest, MatrixRequest, PopulationRequest,
            Session,
        )
        from repro.exec import native as native_module
        from repro.model import trace as trace_module
        from repro.pipeline import compile as compile_module

        real = cache_module.module_fingerprint
        calls = {"all": 0, "remembered": 0, "mismatches": 0}

        def checked(module):
            calls["all"] += 1
            calls["remembered"] += module in cache_module._REMEMBERED
            fingerprint = real(module)
            calls["mismatches"] += fingerprint != self._fresh(module)
            return fingerprint

        for owner in (cache_module, native_module, trace_module,
                      compile_module):
            monkeypatch.setattr(owner, "module_fingerprint", checked)
        matrix = dict(machines=["vliw4", "risc_baseline"],
                      kernels=["dot_product", "crc32"], size=16)
        with Session(workers=0) as session:
            for request in (
                    MatrixRequest(fidelity="cycle", **matrix),
                    MatrixRequest(fidelity="trace", **matrix),
                    CustomizeRequest(kernel="crc32", machine="vliw4",
                                     opt_level=3, size=16),
                    PopulationRequest(count=2, seed=3, budget_kgates=16.0,
                                      kernels_per_family=1, workers=0),
                    AppRequest(topology="chain", app_seed=11,
                               machine="vliw4", windows=2)):
                session.execute(request)
        assert calls["mismatches"] == 0
        assert calls["remembered"] > 0 and calls["all"] > calls["remembered"]

    def test_rewriters_drop_the_remembered_hash(self):
        from repro.core import rewrite_with_library
        from repro.drift import expand_custom_ops

        _kernel, module = build_kernel_module("crc32", opt_level=3)
        retarget = module.clone()
        before = module_fingerprint(module)
        assert module in cache_module._REMEMBERED
        custom = Toolchain(vliw4()).customize(module, area_budget_kgates=40.0)
        customized = module_fingerprint(module)    # apply_selection
        assert customized != before
        assert customized == self._fresh(module)

        assert module_fingerprint(retarget) == before
        rewrite_with_library(retarget, custom.machine)
        assert module_fingerprint(retarget) == self._fresh(retarget) != before

        expand_custom_ops(module)
        assert module_fingerprint(module) == self._fresh(module) != customized

        raw = compile_c(get_kernel("crc32").source, module_name="crc32")
        unoptimized = module_fingerprint(raw)
        optimize(raw, level=2)
        assert module_fingerprint(raw) == self._fresh(raw) != unoptimized

    def test_unregistered_custom_op_is_not_remembered(self):
        from repro.core import reset_global_library

        _kernel, module = build_kernel_module("crc32", opt_level=3)
        Toolchain(vliw4()).customize(module, area_budget_kgates=40.0)
        registered = module_fingerprint(module)
        assert module in cache_module._REMEMBERED
        reset_global_library()
        # The remembered hash names patterns that are gone: not served.
        unregistered = module_fingerprint(module)
        assert unregistered != registered
        assert unregistered == self._fresh(module)
        assert module not in cache_module._REMEMBERED

    def test_memo_stays_with_the_object(self):
        import pickle

        _kernel, module = build_kernel_module("fir_filter")
        fingerprint = module_fingerprint(module)
        assert module.clone() not in cache_module._REMEMBERED
        assert pickle.loads(pickle.dumps(module)) not in cache_module._REMEMBERED
        assert module_fingerprint(module.clone()) == fingerprint
        reset_global_code_cache()
        assert len(cache_module._REMEMBERED) == 0


class TestEngineSelector:
    def test_make_functional_simulator_dispatch(self):
        _kernel, module = build_kernel_module("dot_product")
        assert isinstance(make_functional_simulator(module), FunctionalSimulator)
        assert isinstance(make_functional_simulator(module, engine="compiled"),
                          CompiledSimulator)
        with pytest.raises(ValueError):
            make_functional_simulator(module, engine="quantum")

    def test_toolchain_engine_selection(self):
        kernel, module = build_kernel_module("ip_checksum")
        args = kernel.arguments(None, seed=2)
        reference = Toolchain(vliw4()).run_reference(
            module, kernel.entry,
            *[list(a) if isinstance(a, list) else a for a in args])
        compiled = Toolchain(vliw4(), engine="compiled").run_reference(
            module, kernel.entry,
            *[list(a) if isinstance(a, list) else a for a in args])
        assert reference == compiled
        with pytest.raises(ValueError):
            Toolchain(vliw4(), engine="nope")

    def test_run_kernel_and_validate_suite(self):
        interp = run_kernel("rgb_to_gray", engine="interpreter")
        compiled = run_kernel("rgb_to_gray", engine="compiled")
        assert interp.correct and compiled.correct
        assert interp.value == compiled.value
        assert interp.instructions == compiled.instructions
        results = validate_suite(["dot_product", "histogram"], engine="compiled")
        assert all(results.values())


class TestBatchEvaluator:
    @pytest.fixture(autouse=True)
    def _bind_evaluator(self, medical_evaluator):
        self._evaluator = medical_evaluator

    def test_deduplicates_and_memoizes(self):
        batch = BatchEvaluator(self._evaluator())
        point = DesignPoint(issue_width=2)
        first, second = batch.evaluate_many([point, point])
        assert first is second
        assert batch.stats.evaluated == 1
        assert batch.stats.memory_hits == 1
        batch.evaluate(point)
        assert batch.stats.evaluated == 1

    def test_disk_cache_round_trip(self, tmp_path):
        point = DesignPoint(issue_width=2)
        cold = BatchEvaluator(self._evaluator(),
                              store=DiskArtifactStore(str(tmp_path)))
        before = cold.evaluate(point)
        warm = BatchEvaluator(self._evaluator(),
                              store=DiskArtifactStore(str(tmp_path)))
        after = warm.evaluate(point)
        assert warm.stats.disk_hits == 1 and warm.stats.evaluated == 0
        assert after.summary_row() == before.summary_row()

    def test_parallel_matches_serial(self):
        points = [DesignPoint(issue_width=w) for w in (1, 2)]
        serial = BatchEvaluator(self._evaluator()).evaluate_many(points)
        parallel = BatchEvaluator(self._evaluator(),
                                  workers=2).evaluate_many(points)
        assert ([e.summary_row() for e in serial]
                == [e.summary_row() for e in parallel])

    def test_cache_key_covers_every_axis(self):
        batch = BatchEvaluator(self._evaluator())
        base = DesignPoint()
        assert (batch.point_key(base)
                != batch.point_key(DesignPoint(mem_latency=3)))
        assert (batch.point_key(base)
                != batch.point_key(DesignPoint(compressed_encoding=False)))


class TestExplorerBatching:
    def _explorer(self, **kwargs):
        evaluator = Evaluator(get_mix("medical"), size=8, fidelity="trace")
        return Explorer(evaluator, **kwargs)

    def _space(self):
        return DesignSpace(issue_widths=(1, 2), register_counts=(32,),
                           cluster_counts=(1,), mul_unit_counts=(1,),
                           mem_unit_counts=(1, 2))

    def test_exhaustive_through_batch(self):
        explorer = self._explorer()
        space = self._space()
        expected_points = space.size()   # w1-ls2 is filtered out -> 3
        result = explorer.exhaustive(space)
        assert result.points_evaluated == expected_points == 3
        assert explorer.batch.stats.evaluated == expected_points
        assert result.best is not None and result.best.feasible

    def test_greedy_unique_evaluations(self):
        result = self._explorer().greedy(self._space())
        names = [e.machine.name for e in result.evaluations]
        assert len(names) == len(set(names))
        assert result.best is not None

    def test_annealing_deterministic_and_deduplicated(self):
        first = self._explorer().annealing(self._space(), iterations=8, seed=3)
        second = self._explorer().annealing(self._space(), iterations=8, seed=3)
        assert ([e.machine.name for e in first.evaluations]
                == [e.machine.name for e in second.evaluations])
        assert first.best.machine.name == second.best.machine.name
        names = [e.machine.name for e in first.evaluations]
        assert len(names) == len(set(names))
