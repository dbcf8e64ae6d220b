"""Compiled execution: threaded code, generated C, batching, caching.

This package is the performance tier of the simulation stack:

* :mod:`repro.exec.translator` — pre-translates IR basic blocks into
  specialized Python closures (threaded code);
* :mod:`repro.exec.engine` — :class:`CompiledSimulator`, a drop-in for
  :class:`repro.sim.FunctionalSimulator` with identical results/profiles,
  plus :func:`run_batch`, which runs one kernel over many argument sets
  (native, falling back to compiled);
* :mod:`repro.exec.native` — :class:`NativeSimulator`, the generated-C
  JIT tier: modules rendered to C, compiled on the fly and driven via
  ctypes, with ``.so`` bytes and loaded programs kept as stages of the
  artifact store;
* :mod:`repro.exec.cache` — translation as a stage of the artifact
  store, keyed by module structure, so identical modules are translated
  once;
* :mod:`repro.exec.batch` — :class:`BatchEvaluator`, parallel and
  persistently cached design-point evaluation for the explorer;
* :mod:`repro.exec.registry` — the single registry of engine names used
  by every ``engine=`` parameter across the stack.

Engine selection: everything that runs functional simulation accepts an
``engine`` argument — ``"interpreter"`` (reference oracle), ``"compiled"``
(threaded code) or ``"native"`` (generated C, degrading to compiled with
one warning when no C compiler exists); see
:func:`make_functional_simulator` and :func:`validate_engine`.
"""

from .registry import (
    ENGINE_KINDS, FIDELITY_LEVELS, FUNCTIONAL_ENGINES, validate_engine,
)
from .batch import BatchEvaluator, BatchStats, EvaluatorSpec
from .cache import (
    CODE_STAGE, module_fingerprint, reset_global_code_cache, translate,
)
from .engine import (
    BatchResult, CompiledSimulator, make_functional_simulator,
    reset_native_fallback_warning, run_batch,
)
from .native import (
    NATIVE_STAGE, PROGRAM_STAGE, NativeCompileError, NativeProgram,
    NativeSimulator, NativeToolchain, NativeUnavailableError,
    global_native_toolchain, load_native, native_available,
    reset_global_native_cache, reset_native_toolchain,
)
from .translator import TranslatedProgram, translate_module

__all__ = [
    "ENGINE_KINDS", "FIDELITY_LEVELS", "FUNCTIONAL_ENGINES",
    "validate_engine",
    "BatchEvaluator", "BatchStats", "EvaluatorSpec",
    "CODE_STAGE", "module_fingerprint", "reset_global_code_cache",
    "translate",
    "BatchResult", "CompiledSimulator", "make_functional_simulator",
    "reset_native_fallback_warning", "run_batch",
    "NATIVE_STAGE", "PROGRAM_STAGE", "NativeCompileError", "NativeProgram",
    "NativeSimulator", "NativeToolchain", "NativeUnavailableError",
    "global_native_toolchain", "load_native", "native_available",
    "reset_global_native_cache", "reset_native_toolchain",
    "TranslatedProgram", "translate_module",
]
