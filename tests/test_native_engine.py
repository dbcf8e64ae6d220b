"""The native (generated-C) engine and batched runs.

Differential harness: :class:`repro.exec.NativeSimulator` must be
bit-identical to the :class:`repro.sim.FunctionalSimulator` oracle —
return values, memory write-backs and full execution profiles — over the
builtin workload suite, the customized (CUSTOM-op) variants on every
machine preset, and the fixed-seed generated population.
:func:`repro.exec.run_batch` must return the per-set values on whichever
engine ran (native, or compiled on a host without a C compiler).

Failure modes have defined semantics, tested here: a missing C compiler
degrades to the compiled engine with a single process-wide warning; a
module whose compile fails is quarantined and never retried; a corrupt
stored ``.so`` is recompiled from source exactly once; clearing a native
cache ``dlclose``\\ s its libraries so repeated session lifetimes cannot
leak mappings.
"""

from __future__ import annotations

import warnings

import pytest

from repro.arch import vliw4
from repro.arch.presets import PRESETS, get_preset
from repro.exec import (
    CODE_STAGE, NATIVE_STAGE, CodeCache, CompiledSimulator, NativeCodeCache,
    NativeSimulator, NativeToolchain, NativeUnavailableError,
    global_native_cache, make_functional_simulator, native_available,
    reset_global_native_cache, reset_native_fallback_warning,
    reset_native_toolchain, run_batch,
)
from repro.exec.native import CC_ENV, NativeCompileError
from repro.exec.registry import (
    EVALUATION_ENGINES, FUNCTIONAL_ENGINES,
)
from repro.ir import Opcode
from repro.pipeline import ArtifactStore
from repro.sim import FunctionalSimulator, SimulationError
from repro.toolchain import Toolchain
from repro.workloads import KERNELS, get_kernel

from _shared import arg_copies, build_kernel_module

requires_cc = pytest.mark.skipif(not native_available(),
                                 reason="no C compiler on this host")

#: argument size for the generated-population differential (keeps the
#: interpreter side of each comparison fast).
GEN_SIZE = 24


def _run_pair(module, entry, args, make_candidate):
    """(value, write-backs, profile) from the oracle and a candidate."""
    args_a, args_b = arg_copies(args), arg_copies(args)
    interp = FunctionalSimulator(module)
    candidate = make_candidate(module)
    value_a = interp.run(entry, *args_a)
    value_b = candidate.run(entry, *args_b)
    return (value_a, args_a, interp.profile), (value_b, args_b,
                                               candidate.profile)


def _assert_native_matches(module, entry, args):
    (va, aa, pa), (vb, ab, pb) = _run_pair(module, entry, args,
                                           NativeSimulator)
    assert vb == va
    assert ab == aa          # memory write-backs into list arguments
    assert pb == pa          # full ExecutionProfile equality


# ----------------------------------------------------------------------
# Differential suite: native vs. the interpreter oracle.
# ----------------------------------------------------------------------

@requires_cc
class TestNativeDifferential:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_builtin_kernel_matches_interpreter(self, name):
        kernel, module = build_kernel_module(name)
        args = kernel.arguments(None, seed=99)
        _assert_native_matches(module, kernel.entry, args)

    @pytest.mark.parametrize("name", ["sad16", "viterbi_acs",
                                      "saturated_add"])
    def test_custom_op_kernel_matches_interpreter(self, name):
        kernel, module = build_kernel_module(name)
        Toolchain(vliw4()).customize(module, area_budget_kgates=40.0)
        assert any(inst.opcode is Opcode.CUSTOM
                   for f in module for b in f.blocks
                   for inst in b.instructions)
        args = kernel.arguments(None, seed=5)
        _assert_native_matches(module, kernel.entry, args)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_every_preset_customization_matches_interpreter(self, preset):
        # The functional engines are machine independent; the preset axis
        # enters through ISA customization, which rewrites the module with
        # preset-specific CUSTOM ops.
        kernel, module = build_kernel_module("viterbi_acs")
        Toolchain(get_preset(preset)).customize(module,
                                                area_budget_kgates=40.0)
        args = kernel.arguments(None, seed=7)
        _assert_native_matches(module, kernel.entry, args)

    def test_generated_population_matches_interpreter(self,
                                                      seeded_population):
        with seeded_population:
            for name in seeded_population.names():
                kernel = get_kernel(name)
                _, module = build_kernel_module(name)
                args = kernel.arguments(GEN_SIZE, seed=11)
                _assert_native_matches(module, kernel.entry, args)

    def test_recursion_and_error_messages_match(self):
        from repro.frontend import compile_c
        from repro.opt import optimize

        module = compile_c(
            "int fib(int n) { if (n < 2) { return n; }"
            " return fib(n - 1) + fib(n - 2); }", module_name="fib")
        optimize(module, level=2)
        assert NativeSimulator(module).run("fib", 12) == 144

        div = compile_c("int f(int a) { return 100 / a; }", module_name="d")
        with pytest.raises(SimulationError) as native_exc:
            NativeSimulator(div).run("f", 0)
        with pytest.raises(SimulationError) as interp_exc:
            FunctionalSimulator(div).run("f", 0)
        assert str(native_exc.value) == str(interp_exc.value)

    def test_max_steps_enforced_with_interpreter_message(self):
        kernel, module = build_kernel_module("dot_product")
        args = kernel.arguments(None, seed=1)
        with pytest.raises(SimulationError, match="maximum step count"):
            NativeSimulator(module, max_steps=10).run(kernel.entry,
                                                      *arg_copies(args))


# ----------------------------------------------------------------------
# Failure modes (satellite: defined degradation semantics).
# ----------------------------------------------------------------------

class TestMissingCompilerFallback:
    @pytest.fixture(autouse=True)
    def _disable_compiler(self, monkeypatch):
        monkeypatch.setenv(CC_ENV, "none")
        reset_native_toolchain()
        reset_native_fallback_warning()
        yield
        reset_native_toolchain()
        reset_native_fallback_warning()

    def test_degrades_to_compiled_with_single_warning(self):
        kernel, module = build_kernel_module("dot_product")
        with pytest.warns(RuntimeWarning, match="native engine unavailable"):
            simulator = make_functional_simulator(module, engine="native")
        assert isinstance(simulator, CompiledSimulator)
        assert not isinstance(simulator, NativeSimulator)
        args = kernel.arguments(None, seed=3)
        assert (simulator.run(kernel.entry, *arg_copies(args))
                == kernel.expected(args))

        # The warning is once per process: the second degradation is silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = make_functional_simulator(module.clone(), engine="native")
        assert isinstance(again, CompiledSimulator)

    def test_run_batch_skips_straight_past_native(self):
        kernel, module = build_kernel_module("ip_checksum")
        arg_sets = [kernel.arguments(16, seed=s) for s in range(4)]
        expected = [kernel.expected(a) for a in arg_sets]
        result = run_batch(module, kernel.entry,
                           [arg_copies(a) for a in arg_sets])
        assert result.values == expected
        assert result.engine_used == "compiled"
        per_set = [CompiledSimulator(module) for _ in arg_sets]
        for simulator, args in zip(per_set, arg_sets):
            simulator.run(kernel.entry, *arg_copies(args))
        assert result.instructions == [
            s.profile.instructions_executed for s in per_set]


class TestCompileErrorQuarantine:
    def _failing_toolchain(self):
        toolchain = NativeToolchain(cc="none")
        toolchain.cc = "fake-cc"
        toolchain._version = "fake-cc 0.0"
        calls = []

        def explode(source):
            calls.append(source)
            raise NativeCompileError("fake-cc: exploded")

        toolchain.compile = explode
        return toolchain, calls

    def test_failed_compile_is_never_retried(self, tmp_path):
        _kernel, module = build_kernel_module("dot_product")
        toolchain, calls = self._failing_toolchain()
        cache = NativeCodeCache(toolchain=toolchain, lib_dir=str(tmp_path))
        assert cache.get_or_compile(module) is None
        assert len(calls) == 1
        assert cache.stats.compile_errors == 1
        assert cache.stats.quarantined == 1
        # Quarantined: the compiler is not invoked again, even for clones.
        assert cache.get_or_compile(module.clone()) is None
        assert len(calls) == 1
        reason = cache.quarantine_reason(cache.key_for(module))
        assert reason and "compile error" in reason

    def test_quarantined_module_degrades_to_compiled(self, tmp_path):
        kernel, module = build_kernel_module("dot_product")
        toolchain, _calls = self._failing_toolchain()
        cache = NativeCodeCache(toolchain=toolchain, lib_dir=str(tmp_path))
        with pytest.raises(NativeUnavailableError, match="compile error"):
            NativeSimulator(module, native_cache=cache)
        reset_native_fallback_warning()
        with pytest.warns(RuntimeWarning):
            simulator = make_functional_simulator(
                module.clone(), engine="native", native_cache=cache)
        assert isinstance(simulator, CompiledSimulator)
        args = kernel.arguments(None, seed=13)
        assert (simulator.run(kernel.entry, *arg_copies(args))
                == kernel.expected(args))
        reset_native_fallback_warning()


@requires_cc
class TestCorruptStoredArtifact:
    def test_recompiled_once_and_store_repaired(self, tmp_path):
        kernel, module = build_kernel_module("crc32")
        cache = NativeCodeCache(lib_dir=str(tmp_path))
        store = ArtifactStore()
        key = cache.key_for(module)
        store.put(NATIVE_STAGE, key, b"this is not a shared object",
                  persist=True)

        simulator = NativeSimulator(module, native_cache=cache, store=store)
        args = kernel.arguments(None, seed=8)
        assert (simulator.run(kernel.entry, *arg_copies(args))
                == kernel.expected(args))
        # The bad artifact was rebuilt from source (exactly one compile)
        # and the store entry replaced with the working .so.
        assert cache.stats.builds == 1
        repaired = store.get(NATIVE_STAGE, key, persist=True)
        assert repaired is not None
        assert repaired.payload[:4] == b"\x7fELF"
        cache.clear()


@requires_cc
class TestUnloadAcrossSessions:
    def test_cleared_cache_dlcloses_and_recompiles_cleanly(self):
        from repro.api import Session
        from repro.api.requests import RunRequest

        reset_global_native_cache()
        request = RunRequest(kernel="dot_product", engine="native", size=32)
        with Session() as first:
            before = first.execute(request)
        loaded = len(global_native_cache())
        assert before.correct and loaded >= 1
        # End of lifetime: every library is dlclosed...
        global_native_cache().clear()
        assert len(global_native_cache()) == 0
        assert global_native_cache().stats.unloads >= loaded
        # ...and a later session recompiles (or re-materializes) cleanly.
        with Session() as second:
            after = second.execute(request)
        assert after.correct and after.value == before.value
        reset_global_native_cache()


# ----------------------------------------------------------------------
# Batched runs.
# ----------------------------------------------------------------------

class TestRunBatchCascade:
    def _sets(self, kernel, n=4, size=16):
        arg_sets = [kernel.arguments(size, seed=s) for s in range(n)]
        return arg_sets, [kernel.expected(a) for a in arg_sets]

    @requires_cc
    def test_native_ceiling_uses_native(self):
        kernel, module = build_kernel_module("dot_product")
        arg_sets, expected = self._sets(kernel)
        result = run_batch(module, kernel.entry,
                           [arg_copies(a) for a in arg_sets])
        assert result.engine_used == "native"
        assert result.values == expected
        assert all(n > 0 for n in result.instructions)

    @pytest.mark.parametrize("engine", ["compiled", "interpreter"])
    def test_explicit_engine_skips_cascade(self, engine):
        kernel, module = build_kernel_module("fir_filter")
        arg_sets, expected = self._sets(kernel)
        result = run_batch(module, kernel.entry,
                           [arg_copies(a) for a in arg_sets], engine=engine)
        assert result.engine_used == engine
        assert result.values == expected


# ----------------------------------------------------------------------
# Registry / API plumbing.
# ----------------------------------------------------------------------

class TestEnginePlumbing:
    def test_registry_includes_native(self):
        assert "native" in FUNCTIONAL_ENGINES
        assert "native" in EVALUATION_ENGINES

    def test_run_request_accepts_native_and_batch(self):
        from repro.api.requests import RunRequest

        request = RunRequest(kernel="crc32", engine="native", batch=8)
        clone = RunRequest.from_dict(request.to_dict())
        assert clone.engine == "native" and clone.batch == 8
        with pytest.raises(ValueError):
            RunRequest(kernel="crc32", batch=0)
        with pytest.raises(ValueError):
            RunRequest(kernel="crc32", engine="cycle", batch=2)

    def test_session_resolves_engine_from_environment(self, monkeypatch):
        from repro.api import Session

        monkeypatch.setenv("REPRO_ENGINE", "compiled")
        with Session() as session:
            assert session.engine == "compiled"
        monkeypatch.setenv("REPRO_ENGINE", "warp-drive")
        with pytest.raises(ValueError):
            Session()

    @requires_cc
    def test_session_batched_native_run(self):
        from repro.api import Session
        from repro.api.requests import RunRequest, response_from_json

        with Session() as session:
            response = session.execute(RunRequest(
                kernel="dot_product", engine="native", size=32, batch=6))
        assert response.correct
        assert response.batch == 6 and len(response.values) == 6
        assert response.batch_engine == "native"
        assert response.value == response.values[0]
        round_trip = response_from_json(response.to_json())
        assert round_trip.values == response.values

    @requires_cc
    def test_toolchain_and_matrix_native_engine(self):
        from repro.toolchain.matrix import run_matrix

        kernel, module = build_kernel_module("ip_checksum")
        args = kernel.arguments(None, seed=2)
        toolchain = Toolchain(vliw4(), engine="native")
        value = toolchain.run_reference(module, kernel.entry,
                                        *arg_copies(args))
        assert value == kernel.expected(args)

        report = run_matrix([vliw4()], kernel_names=["dot_product"],
                            size=32, engine="native")
        assert report.all_correct and report.engine == "native"


class TestCodeCacheEvictionCounter:
    def test_eviction_mirrors_onto_store_stage_stats(self):
        store = ArtifactStore()
        cache = CodeCache(capacity=1, store=store)
        _k1, m1 = build_kernel_module("dot_product")
        _k2, m2 = build_kernel_module("crc32")
        cache.get_or_translate(m1)
        cache.get_or_translate(m2)
        assert cache.stats.evictions == 1
        assert store.stats(CODE_STAGE).evictions == 1
        assert CODE_STAGE in store.stats_dict()

    def test_session_surfaces_code_cache_pressure(self):
        from repro.api import Session

        with Session() as session:
            session.code_cache.capacity = 1
            _k1, m1 = build_kernel_module("dot_product")
            _k2, m2 = build_kernel_module("crc32")
            session.code_cache.get_or_translate(m1)
            session.code_cache.get_or_translate(m2)
            # One counter, counted once: the store's view of the code
            # cache shows the single eviction.
            stats = session.store.stats_dict()
            assert stats[CODE_STAGE]["evictions"] == 1
