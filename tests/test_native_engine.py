"""The native (generated-C) engine and batched runs.

Differential harness: :class:`repro.exec.NativeSimulator` must be
bit-identical to the :class:`repro.sim.FunctionalSimulator` oracle —
return values, memory write-backs and full execution profiles — over the
builtin workload suite, the customized (CUSTOM-op) variants on every
machine preset, and the fixed-seed generated population.  Custom ops run
inline as their pattern's base operations: every pattern opcode at i32
and i64 edge values, an in-place op and the customized generated
population (with trace-vs-cycle agreement) are held to the interpreter
on the native and compiled engines, and an op with no registered
semantics fails only when executed, with one message on every engine.
:func:`repro.exec.run_batch` must return the per-set values on whichever
engine ran (native, or compiled on a host without a C compiler), and its
one reset-between-sets simulator must match a fresh simulator per set.
The rendered C is freestanding: no ``#include`` and nothing left for libc
to resolve in the built object.

Failure modes have defined semantics, tested here: a missing C compiler
degrades to the compiled engine with a single process-wide warning; a
module whose compile fails is quarantined and never retried; a corrupt
stored ``.so`` is recompiled from source exactly once; a loaded program
``dlclose``\\ s its library and deletes its file when it is collected,
never while a simulator holds it, so store evictions and repeated
session lifetimes leak neither mappings nor disk; a call chain past
``MAX_CALL_DEPTH`` raises the same error on every engine.
"""

from __future__ import annotations

import gc
import itertools
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro.arch import vliw4
from repro.arch.presets import PRESETS, get_preset
from repro.backend import compile_module
from repro.core import HW_DELAY, Pattern, PatternNode, global_extension_library
from repro.exec import (
    CODE_STAGE, NATIVE_STAGE, PROGRAM_STAGE, CompiledSimulator,
    NativeSimulator, NativeToolchain, NativeUnavailableError,
    global_native_toolchain, load_native, make_functional_simulator,
    module_fingerprint, native_available, reset_global_native_cache,
    reset_native_fallback_warning, reset_native_toolchain, run_batch,
)
from repro.exec import cache as cache_module
from repro.exec import native as native_module
from repro.exec.native import CC_ENV, NativeCompileError
from repro.exec.nativegen import render_c_program
from repro.exec.registry import FUNCTIONAL_ENGINES
from repro.frontend import compile_c
from repro.ir import Function, Module, Opcode, VirtualRegister
from repro.ir.instructions import branch, custom, jump, move, ret
from repro.ir.types import I32, I64
from repro.model import TRACE_CYCLE_TOLERANCE, RetimingModel, capture_trace
from repro.opt import optimize
from repro.pipeline import ArtifactStore
from repro.pipeline.fingerprints import native_fingerprint
from repro.sim import (
    MAX_CALL_DEPTH, CycleSimulator, FunctionalSimulator, SimulationError,
)
from repro.toolchain import Toolchain
from repro.workloads import KERNELS, get_kernel

from _shared import arg_copies, build_kernel_module

requires_cc = pytest.mark.skipif(not native_available(),
                                 reason="no C compiler on this host")

#: argument size for the generated-population differential (keeps the
#: interpreter side of each comparison fast).
GEN_SIZE = 24

#: a kernel whose loads and stores go through the float (memcpy) path.
FLOAT_SOURCE = """
float scale(float *x, int n, float k) {
  float acc = 0.0;
  int i;
  for (i = 0; i < n; i = i + 1) { x[i] = x[i] * k; acc = acc + x[i]; }
  return acc;
}
"""

#: a kernel that updates its globals, so a reused simulator must lay
#: them out again between sets.
GLOBALS_SOURCE = """
int table[4] = {1, 2, 3, 4};
int total;
int bump(int x) {
  table[0] = table[0] + x;
  total = total + table[0];
  return table[0] * 100 + total;
}
"""


#: f(n) keeps n + 1 calls active: the entry and n nested ones.
DEEP_SOURCE = ("int f(int n) { if (n == 0) { return 0; }"
               " return 1 + f(n - 1); }")

#: runs the native f(2_000_000) in a child process and prints the error.
DEEP_NATIVE_SCRIPT = f"""
from repro.exec import NativeSimulator
from repro.frontend import compile_c
from repro.opt import optimize
from repro.sim import SimulationError
module = compile_c({DEEP_SOURCE!r}, module_name="deep")
optimize(module, level=2)
try:
    print(NativeSimulator(module).run("f", 2_000_000))
except SimulationError as exc:
    print(type(exc).__name__, exc)
"""


def _nested(frames, thunk):
    """``thunk()`` called from ``frames`` extra Python frames down."""
    return thunk() if frames == 0 else _nested(frames - 1, thunk)


def _module_from_source(source, name, opt_level=2):
    module = compile_c(source, module_name=name)
    optimize(module, level=opt_level)
    return module


def _customized_crc32():
    """crc32 at O3 rewritten with vliw4 custom ops (run inline as base ops)."""
    kernel, module = build_kernel_module("crc32", opt_level=3)
    Toolchain(vliw4()).customize(module, area_budget_kgates=40.0)
    assert any(inst.opcode is Opcode.CUSTOM
               for f in module for b in f.blocks for inst in b.instructions)
    return kernel, module


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
        module = _module_from_source(
            "int fib(int n) { if (n < 2) { return n; }"
            " return fib(n - 1) + fib(n - 2); }", "fib")
        assert NativeSimulator(module).run("fib", 12) == 144

        div = compile_c("int f(int a) { return 100 / a; }", module_name="d")
        with pytest.raises(SimulationError) as native_exc:
            NativeSimulator(div).run("f", 0)
        with pytest.raises(SimulationError) as interp_exc:
            FunctionalSimulator(div).run("f", 0)
        assert str(native_exc.value) == str(interp_exc.value)

        # One call-depth limit: every engine runs the deepest allowed
        # chain, even from a caller 300 Python frames down, and raises the
        # same typed error one call past it.
        deep = _module_from_source(DEEP_SOURCE, "deep")
        compiled, _ = compile_module(deep, vliw4())
        engines = {
            "interpreter": lambda n: FunctionalSimulator(deep).run("f", n),
            "compiled": lambda n: CompiledSimulator(deep).run("f", n),
            "cycle": lambda n: CycleSimulator(compiled).run("f", n).value,
            "native": lambda n: NativeSimulator(deep).run("f", n),
        }
        at_limit = MAX_CALL_DEPTH - 1
        for name, run in engines.items():
            assert _nested(300, lambda: run(at_limit)) == at_limit, name
            with pytest.raises(SimulationError) as exc:
                run(at_limit + 1)
            assert str(exc.value) == "maximum call depth exceeded", name

        # Far past the limit the native engine traps instead of
        # overflowing the C stack and killing the process.
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        child = subprocess.run([sys.executable, "-c", DEEP_NATIVE_SCRIPT],
                               capture_output=True, text=True, env=env,
                               timeout=120)
        assert child.returncode == 0, child.stderr
        assert (child.stdout.strip()
                == "SimulationError maximum call depth exceeded")

    def test_max_steps_enforced_with_interpreter_message(self):
        kernel, module = build_kernel_module("dot_product")
        args = kernel.arguments(None, seed=1)
        with pytest.raises(SimulationError, match="maximum step count"):
            NativeSimulator(module, max_steps=10).run(kernel.entry,
                                                      *arg_copies(args))


# ----------------------------------------------------------------------
# Custom ops run inline as their pattern's base operations.
# ----------------------------------------------------------------------

INT32_MIN, INT32_MAX = -(1 << 31), (1 << 31) - 1
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
#: argument values at the edges of the 32- and 64-bit wraps and shifts.
EDGE_VALUES = (0, 1, -1, 31, 32, 33, INT32_MIN, INT32_MAX,
               (1 << 40) + 3, -(1 << 40) - 5, INT64_MIN, INT64_MAX)
#: the subset the three-input SELECT runs over (all triples).
SELECT_VALUES = (0, 1, -1, INT32_MIN, (1 << 40) + 3, INT64_MIN)
UNARY_PATTERN_OPS = {Opcode.ABS, Opcode.NEG, Opcode.NOT, Opcode.MOV,
                     Opcode.SEXT, Opcode.ZEXT, Opcode.TRUNC}

#: the engines held to the interpreter; the native one is the class
#: itself, so a silent fallback to compiled code fails the test.
inline_engines = pytest.mark.parametrize("engine", [
    pytest.param(NativeSimulator, id="native", marks=requires_cc),
    pytest.param(CompiledSimulator, id="compiled")])


def _custom_function(module, name, op_name, param_types, dest_type):
    """Add ``name(a0, ...) { return custom op_name(a0, ...); }``."""
    function = Function(name, return_type=dest_type, param_types=param_types,
                        param_names=[f"a{k}" for k in range(len(param_types))])
    module.add_function(function)
    block = function.new_block("entry")
    dest = VirtualRegister(dest_type)
    block.append(custom(dest, op_name, function.arguments))
    block.append(ret(dest))


class TestInlineCustomOps:
    @inline_engines
    @pytest.mark.parametrize("type_", [I32, I64], ids=str)
    def test_every_pattern_opcode_matches_interpreter(self, engine, type_):
        # One pattern per fusable opcode: the opcode over the inputs, then
        # XOR with a constant, so the output node reads a temporary.
        module = Module("pattern_ops")
        cases = []
        for opcode in sorted(HW_DELAY, key=lambda op: op.value):
            arity = (3 if opcode is Opcode.SELECT
                     else 1 if opcode in UNARY_PATTERN_OPS else 2)
            pattern = Pattern(
                [PatternNode(opcode, tuple(("in", k) for k in range(arity))),
                 PatternNode(Opcode.XOR, (("node", 0), ("const", 0x5A5A5A5A)))],
                outputs=[1], num_inputs=arity)
            global_extension_library().register(pattern)
            name = f"f_{opcode.value}"
            _custom_function(module, name, pattern.name, [type_] * arity,
                             type_)
            values = SELECT_VALUES if arity == 3 else EDGE_VALUES
            cases += [(name, args)
                      for args in itertools.product(values, repeat=arity)]
        oracle = FunctionalSimulator(module)
        candidate = engine(module)
        mismatches = [(name, args, expected, actual)
                      for name, args in cases
                      for expected, actual in [(oracle.run(name, *args),
                                                candidate.run(name, *args))]
                      if expected != actual]
        assert mismatches == []
        assert candidate.profile == oracle.profile
        assert oracle.profile.opcode_counts["custom"] == len(cases)

    @inline_engines
    @pytest.mark.parametrize("type_", [I32, I64], ids=str)
    def test_in_place_op_reads_its_inputs_unchanged(self, engine, type_):
        # %a = (a + b) ^ a: the second node reads input 0 again, so
        # writing %a before the last node would change the result.
        pattern = Pattern(
            [PatternNode(Opcode.ADD, (("in", 0), ("in", 1))),
             PatternNode(Opcode.XOR, (("node", 0), ("in", 0)))],
            outputs=[1], num_inputs=2)
        global_extension_library().register(pattern)
        module = Module("in_place")
        function = Function("f", return_type=type_,
                            param_types=[type_, type_],
                            param_names=["x", "y"])
        module.add_function(function)
        block = function.new_block("entry")
        a = VirtualRegister(type_)
        block.append(move(a, function.arguments[0]))
        block.append(custom(a, pattern.name, [a, function.arguments[1]]))
        block.append(ret(a))
        candidate = engine(module)
        for x, y in [(5, 3), (-7, 100), (INT32_MAX, 1), (1 << 40, -1)]:
            expected = I32.wrap((x + y) ^ x)
            assert FunctionalSimulator(module).run("f", x, y) == expected
            assert candidate.run("f", x, y) == expected

    @inline_engines
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_customized_population_matches_interpreter(
            self, engine, preset, seeded_population):
        customized = 0
        with seeded_population:
            for name in seeded_population.names():
                kernel, module = build_kernel_module(name)
                toolchain = Toolchain(get_preset(preset)).customize(
                    module, area_budget_kgates=40.0)
                customized += any(
                    inst.opcode is Opcode.CUSTOM for f in module
                    for b in f.blocks for inst in b.instructions)
                args = kernel.arguments(GEN_SIZE, seed=11)
                (va, aa, pa), (vb, ab, pb) = _run_pair(
                    module, kernel.entry, args, engine)
                assert (vb, ab, pb) == (va, aa, pa), name

                # The trace model prices the customized machine within
                # its own error bound of the cycle simulator.
                compiled, _report = compile_module(module, toolchain.machine)
                truth = CycleSimulator(compiled).run(kernel.entry,
                                                     *arg_copies(args))
                estimate = RetimingModel().price(
                    compiled, toolchain.machine,
                    capture_trace(module, kernel.entry, args))
                assert truth.value == va
                assert (abs(estimate.cycles - truth.cycles)
                        <= max(TRACE_CYCLE_TOLERANCE * truth.cycles,
                               estimate.error_bound_cycles)), name
        assert customized > 0, "no kernel received CUSTOM ops"


class TestUnregisteredCustomOp:
    """A CUSTOM op the library does not know fails only when executed."""

    MESSAGE = "custom op cop_unregistered has no registered semantics"

    def _module(self):
        """``f(x, go) = go ? cop_unregistered(x) : x``."""
        module = Module("unregistered")
        function = Function("f", return_type=I32, param_types=[I32, I32],
                            param_names=["x", "go"])
        module.add_function(function)
        x, go = function.arguments
        entry = function.new_block("entry")
        then = function.new_block("then")
        done = function.new_block("done")
        result = VirtualRegister(I32)
        entry.append(move(result, x))
        entry.append(branch(go, then, done))
        then.append(custom(result, "cop_unregistered", [x]))
        then.append(jump(done))
        done.append(ret(result))
        return module

    @pytest.fixture(autouse=True)
    def _rearm_warning(self):
        reset_native_fallback_warning()
        yield
        reset_native_fallback_warning()

    def test_same_error_on_every_engine(self):
        module = self._module()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            native = [make_functional_simulator(module.clone(),
                                                engine="native")
                      for _ in range(2)]
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "native engine unavailable" in str(caught[0].message)
        engines = [FunctionalSimulator(module), CompiledSimulator(module),
                   *native]
        for simulator in engines:
            with pytest.raises(SimulationError) as exc:
                simulator.run("f", 7, 1)
            assert str(exc.value) == self.MESSAGE

    def test_runs_when_the_op_is_not_executed(self):
        module = self._module()
        with pytest.warns(RuntimeWarning, match="native engine unavailable"):
            native = make_functional_simulator(module, engine="native")
        for simulator in (FunctionalSimulator(module),
                          CompiledSimulator(module), native):
            assert simulator.run("f", 7, 0) == 7

    @requires_cc
    def test_native_render_refuses_the_module(self):
        with pytest.raises(NativeUnavailableError, match=self.MESSAGE):
            NativeSimulator(self._module())


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
    @pytest.fixture
    def calls(self, monkeypatch):
        """Source handed to a process-wide toolchain that always fails."""
        toolchain = NativeToolchain(cc="none")
        toolchain.cc = "fake-cc"
        toolchain._version = "fake-cc 0.0"
        calls = []

        def explode(source):
            calls.append(source)
            raise NativeCompileError("fake-cc: exploded")

        toolchain.compile = explode
        monkeypatch.setattr(native_module, "_TOOLCHAIN", toolchain)
        reset_global_native_cache()
        yield calls
        reset_global_native_cache()

    def test_failed_compile_is_never_retried(self, calls):
        _kernel, module = build_kernel_module("dot_product")
        store = ArtifactStore()
        with pytest.raises(NativeUnavailableError,
                           match="compile error: fake-cc: exploded"):
            load_native(module, store)
        assert len(calls) == 1
        assert store.stats(NATIVE_STAGE).puts == 0
        assert store.stats(PROGRAM_STAGE).puts == 0
        # Quarantined: the compiler is not invoked again, even for clones
        # in other stores.
        with pytest.raises(NativeUnavailableError, match="compile error"):
            load_native(module.clone(), ArtifactStore())
        assert len(calls) == 1

    def test_quarantined_module_degrades_to_compiled(self, calls):
        kernel, module = build_kernel_module("dot_product")
        with pytest.raises(NativeUnavailableError, match="compile error"):
            NativeSimulator(module)
        reset_native_fallback_warning()
        with pytest.warns(RuntimeWarning):
            simulator = make_functional_simulator(
                module.clone(), engine="native")
        assert isinstance(simulator, CompiledSimulator)
        args = kernel.arguments(None, seed=13)
        assert (simulator.run(kernel.entry, *arg_copies(args))
                == kernel.expected(args))
        reset_native_fallback_warning()


@requires_cc
class TestCorruptStoredArtifact:
    def test_recompiled_once_and_store_repaired(self):
        kernel, module = build_kernel_module("crc32")
        store = ArtifactStore()
        key = native_fingerprint(module_fingerprint(module),
                                 global_native_toolchain().abi_id())
        store.put(NATIVE_STAGE, key, b"this is not a shared object")

        simulator = NativeSimulator(module, store=store)
        args = kernel.arguments(None, seed=8)
        assert (simulator.run(kernel.entry, *arg_copies(args))
                == kernel.expected(args))
        # The bad artifact was rebuilt from source and the store entry
        # replaced with the working .so: the second put.
        assert store.stats(NATIVE_STAGE).puts == 2
        repaired = store.get(NATIVE_STAGE, key)
        assert repaired is not None
        assert repaired.payload[:4] == b"\x7fELF"
        assert simulator.native.key == key


@requires_cc
class TestProgramLifetime:
    def test_evicted_program_runs_until_its_simulator_is_released(self):
        kernel, module = build_kernel_module("crc32")
        store = ArtifactStore(capacity=1)
        simulator = NativeSimulator(module, store=store)
        path = simulator.native.path
        assert (PROGRAM_STAGE, simulator.native.key) in store
        store.put("other", "entry", b"")
        assert store.stats(PROGRAM_STAGE).evictions == 1
        assert (PROGRAM_STAGE, simulator.native.key) not in store
        # Evicted from the store, still loaded for its simulator.
        args = kernel.arguments(None, seed=5)
        assert (simulator.run(kernel.entry, *arg_copies(args))
                == FunctionalSimulator(module).run(kernel.entry,
                                                   *arg_copies(args)))
        assert os.path.exists(path)
        del simulator
        gc.collect()
        assert not os.path.exists(path)

    def test_closed_session_unloads_its_programs(self):
        from repro.api import Session
        from repro.api.requests import RunRequest

        lib_dir = Path(native_module._lib_dir())
        before = set(lib_dir.iterdir())
        request = RunRequest(kernel="dot_product", engine="native", size=32)
        with Session() as session:
            response = session.execute(request)
            loaded = set(lib_dir.iterdir()) - before
        assert response.correct and loaded
        del session
        gc.collect()
        assert not loaded & set(lib_dir.iterdir())

    def test_reset_keeps_live_programs_and_reloads_cleanly(self):
        kernel, module = build_kernel_module("dot_product")
        args = kernel.arguments(16, seed=4)
        first = NativeSimulator(module)
        reset_global_native_cache()
        second = NativeSimulator(module.clone())
        # One key, two loads: each owns its own file.
        assert second.native is not first.native
        assert second.native.key == first.native.key
        assert second.native.path != first.native.path
        for simulator in (first, second):
            assert (simulator.run(kernel.entry, *arg_copies(args))
                    == kernel.expected(args))


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


native_or_compiled = pytest.mark.parametrize(
    "engine", [pytest.param("native", marks=requires_cc), "compiled"])


def _fresh_per_set(module, entry, arg_sets, engine):
    """(values, instructions) from one new simulator per argument set."""
    values, instructions = [], []
    for args in arg_sets:
        simulator = make_functional_simulator(module, engine=engine)
        values.append(simulator.run(entry, *arg_copies(args)))
        instructions.append(simulator.profile.instructions_executed)
    return values, instructions


class TestBatchSimulatorReuse:
    """One simulator per batch, reset between sets, matches fresh ones."""

    def _assert_matches_fresh(self, module, entry, arg_sets, engine):
        result = run_batch(module, entry, [arg_copies(a) for a in arg_sets],
                           engine=engine)
        assert result.engine_used == engine
        assert (result.values, result.instructions) == _fresh_per_set(
            module, entry, arg_sets, engine)
        return result

    @native_or_compiled
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_builtin_kernel_matches_fresh_simulators(self, name, engine):
        kernel, module = build_kernel_module(name)
        arg_sets = [kernel.arguments(16, seed=s) for s in range(3)]
        result = self._assert_matches_fresh(module, kernel.entry, arg_sets,
                                            engine)
        assert result.values == [kernel.expected(a) for a in arg_sets]

    @native_or_compiled
    def test_reset_lays_globals_out_again(self, engine):
        module = _module_from_source(GLOBALS_SOURCE, "globals")
        result = self._assert_matches_fresh(module, "bump",
                                            [(1,), (2,), (3,)], engine)
        assert result.values == [202, 303, 404]

    @native_or_compiled
    def test_customized_module_matches_fresh_simulators(self, engine):
        kernel, module = _customized_crc32()
        arg_sets = [kernel.arguments(32, seed=s) for s in range(3)]
        result = self._assert_matches_fresh(module, kernel.entry, arg_sets,
                                            engine)
        assert result.values == [kernel.expected(a) for a in arg_sets]

    @requires_cc
    def test_batch_fingerprints_module_once_per_cache(self, monkeypatch):
        counts = {"translation": 0, "native": 0}

        def counting(label, real):
            def fingerprint(*args, **kwargs):
                counts[label] += 1
                return real(*args, **kwargs)
            return fingerprint

        monkeypatch.setattr(cache_module, "module_fingerprint", counting(
            "translation", cache_module.module_fingerprint))
        monkeypatch.setattr(native_module, "module_fingerprint", counting(
            "native", native_module.module_fingerprint))
        kernel, module = build_kernel_module("fir_filter")
        arg_sets = [kernel.arguments(16, seed=s) for s in range(8)]
        result = run_batch(module, kernel.entry, arg_sets)
        assert result.engine_used == "native"
        assert counts == {"translation": 1, "native": 1}

    @requires_cc
    def test_native_call_releases_the_memory_export_without_gc(self):
        kernel, module = build_kernel_module("dot_product")
        simulator = NativeSimulator(module)
        gc.disable()
        try:
            simulator.run(kernel.entry,
                          *arg_copies(kernel.arguments(16, seed=1)))
            # Resizing raises BufferError while a ctypes view is exported.
            simulator.memory.data.resize(simulator.memory.size)
        finally:
            gc.enable()


# ----------------------------------------------------------------------
# Freestanding C prelude.
# ----------------------------------------------------------------------

class TestFreestandingPrelude:
    #: the flags in use before the unit went freestanding.
    HOSTED_FLAGS = ("-O2", "-fPIC", "-shared", "-fwrapv",
                    "-fno-strict-aliasing")

    def test_rendered_unit_includes_no_header(self):
        _kernel, module = build_kernel_module("fir_filter")
        assert "#include" not in render_c_program(module).source
        float_module = _module_from_source(FLOAT_SOURCE, "fscale")
        assert "#include" not in render_c_program(float_module).source

    def test_abi_id_moves_with_flags_and_schema(self, monkeypatch):
        current = NativeToolchain().abi_id()
        assert NativeToolchain(flags=self.HOSTED_FLAGS).abi_id() != current
        monkeypatch.setattr(native_module, "RENDER_SCHEMA", 1)
        assert NativeToolchain().abi_id() != current
        assert NativeToolchain(flags=self.HOSTED_FLAGS).abi_id() != current

    @requires_cc
    def test_float_memory_kernel_runs_natively_like_compiled(self):
        module = _module_from_source(FLOAT_SOURCE, "fscale")
        args = ([0.5, 1.25, -3.0, 7.75, 1e-3], 5, 1.5)
        native_args, compiled_args = arg_copies(args), arg_copies(args)
        native = NativeSimulator(module)
        compiled = CompiledSimulator(module)
        assert (native.run("scale", *native_args)
                == compiled.run("scale", *compiled_args))
        assert native_args == compiled_args
        assert native.profile == compiled.profile

    @requires_cc
    @pytest.mark.skipif(shutil.which("nm") is None, reason="no nm on this host")
    def test_built_objects_leave_no_symbol_unresolved(self):
        """-nostdlib holds only while the unit needs nothing from libc."""
        assert "-nostdlib" in global_native_toolchain().flags
        modules = [build_kernel_module(name)[1] for name in sorted(KERNELS)]
        modules.append(_module_from_source(FLOAT_SOURCE, "fscale"))
        modules.append(_customized_crc32()[1])
        store = ArtifactStore()
        for module in modules:
            program = load_native(module, store)
            undefined = subprocess.run(
                ["nm", "-D", "--undefined-only", program.path],
                capture_output=True, text=True, check=True).stdout
            assert undefined.strip() == "", (module.name, undefined)


# ----------------------------------------------------------------------
# Registry / API plumbing.
# ----------------------------------------------------------------------

class TestEnginePlumbing:
    def test_registry_includes_native(self):
        assert "native" in FUNCTIONAL_ENGINES

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
    def test_eviction_counts_on_store_stage_stats(self):
        store = ArtifactStore(capacity=1)
        _k1, m1 = build_kernel_module("dot_product")
        _k2, m2 = build_kernel_module("crc32")
        CompiledSimulator(m1, store=store)
        CompiledSimulator(m2, store=store)
        assert store.stats(CODE_STAGE).evictions == 1
        assert CODE_STAGE in store.stats_dict()

    def test_session_surfaces_code_cache_pressure(self):
        from repro.api import Session

        with Session(store=ArtifactStore(capacity=1)) as session:
            _k1, m1 = build_kernel_module("dot_product")
            _k2, m2 = build_kernel_module("crc32")
            CompiledSimulator(m1, store=session.store)
            CompiledSimulator(m2, store=session.store)
            # One counter, counted once: the session store's stats show
            # the single eviction of a translation.
            stats = session.store.stats_dict()
            assert stats[CODE_STAGE]["evictions"] == 1
