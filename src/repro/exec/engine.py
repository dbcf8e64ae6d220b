"""Compiled-execution engine: a drop-in for the functional interpreter.

:class:`CompiledSimulator` exposes the same ``run`` / ``run_profiled`` /
``profile`` contract as :class:`repro.sim.FunctionalSimulator` but executes
threaded code produced by :mod:`repro.exec.translator` and cached as
the ``exec.code`` stage of an artifact store (:mod:`repro.exec.cache`).
On successful runs it produces bit-identical return values, memory
write-backs and :class:`ExecutionProfile` counters;
the interpreter remains the semantic oracle and the differential tests in
``tests/test_exec_engine.py`` enforce the equivalence over the whole
workload suite.

Engine selection elsewhere in the stack (``Toolchain(engine=...)``,
``run_kernel(engine=...)``, ``Session(engine=...)``) resolves through
:func:`make_functional_simulator`, so "interpreter", "compiled" and the
generated-C "native" (:mod:`repro.exec.native`) are interchangeable
functional-execution engines; "native" degrades to "compiled" with a
single per-process warning when no C compiler is available.
:func:`run_batch` runs one kernel over many argument sets on the same
engines.

Known, deliberate divergences from the interpreter (error paths only):

* the maximum-step check runs per basic block, not per instruction, so a
  runaway program may be stopped a few instructions earlier;
* a read of an undefined virtual register raises :class:`SimulationError`
  without naming the register (the interpreter formats the IR node);
* profiles are flushed per completed call, so a run aborted by an exception
  reports whole-block counts for the faulting block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..ir import Module
from ..sim.functional import (
    CALL_DEPTH_MESSAGE, MAX_CALL_DEPTH, ExecutionProfile, SimulationError,
)
from ..sim.memory import Memory, ProgramImage
from ..workloads.kernels import copy_run_args
from .cache import translate
from .registry import FUNCTIONAL_ENGINES, validate_engine
from .translator import TranslatedFunction, TranslatedProgram


class CompiledSimulator:
    """Executes translated (threaded-code) modules with a flat memory."""

    def __init__(self, module: Module, memory_size: int = 1 << 20,
                 max_steps: int = 50_000_000, store=None) -> None:
        self.module = module
        #: translations come from ``store`` (a session's artifact store)
        #: or, without one, from the process-wide translation store.
        self.program: TranslatedProgram = translate(module, store)
        # The translated code reads and writes globals at this image's
        # addresses: both come from the one layout of sim.memory.
        self.image = ProgramImage(module, Memory(memory_size))
        self.memory = self.image.memory
        self.max_steps = max_steps
        self.profile = ExecutionProfile()
        self._steps = 0
        self._depth = 0
        self._retval = None

    def reset(self) -> None:
        """Return to the state of a freshly built simulator.

        The memory is zeroed in place and the globals laid out again, so
        the next run sees exactly what a new simulator would, without
        re-translating the module or allocating a new memory image.
        """
        self.image.reset()
        self.profile = ExecutionProfile()
        self._steps = 0
        self._retval = None

    # ------------------------------------------------------------------
    # Public API (mirrors FunctionalSimulator).
    # ------------------------------------------------------------------
    def run(self, function_name: str, *args, copy_back: bool = True):
        """Execute ``function_name`` with Python arguments.

        Arguments are lowered by the program image, as on every engine:
        numbers by value, lists and tuples copied into simulated memory
        and passed as pointers, with list contents copied back after the
        call unless ``copy_back`` is False.
        """
        try:
            function = self.program.functions[function_name]
        except KeyError:
            raise KeyError(f"no function named {function_name} in module "
                           f"{self.module.name}") from None
        if len(args) != len(function.arg_ids):
            raise SimulationError(
                f"{function_name} expects {len(function.arg_ids)} arguments, "
                f"got {len(args)}"
            )

        lowered, writebacks = self.image.lower(function.arg_types, args,
                                               copy_back)
        result = self._call(function, lowered)
        self.image.write_back(writebacks)
        return result

    def run_profiled(self, function_name: str, *args):
        """Run and then write the measured profile back onto the module."""
        result = self.run(function_name, *args)
        self.profile.apply_to_module(self.module)
        return result

    # ------------------------------------------------------------------
    # Execution core.
    # ------------------------------------------------------------------
    def _call(self, function: TranslatedFunction, args):
        depth = self._depth
        if depth >= MAX_CALL_DEPTH:
            raise SimulationError(CALL_DEPTH_MESSAGE)
        regs = {}
        for reg_id, value in zip(function.arg_ids, args):
            regs[reg_id] = value

        blocks = function.blocks
        if not blocks:
            raise SimulationError(f"function {function.name} has no blocks")
        visits = [0] * len(blocks)
        index = 0
        self._depth = depth + 1
        try:
            while True:
                block = blocks[index]
                visits[index] += 1
                self._steps += block.n_steps
                if self._steps > self.max_steps:
                    raise SimulationError("maximum step count exceeded")
                for op in block.ops:
                    op(regs, self)
                index = block.terminator(regs, self)
                if index is None:
                    break
        except KeyError:
            raise SimulationError(
                f"read of undefined register in {function.name}") from None
        finally:
            self._depth = depth
            self._flush(function, visits)
        result = self._retval
        self._retval = None
        return result

    def _flush(self, function: TranslatedFunction, visits) -> None:
        """Fold per-block visit counts into the execution profile."""
        profile = self.profile
        block_counts = profile.block_counts.setdefault(function.name, {})
        opcode_counts = profile.opcode_counts
        call_counts = profile.call_counts
        for block, count in zip(function.blocks, visits):
            if not count:
                continue
            block_counts[block.name] = block_counts.get(block.name, 0) + count
            profile.instructions_executed += count * block.n_steps
            for opcode, per_visit in block.opcode_delta.items():
                opcode_counts[opcode] = (
                    opcode_counts.get(opcode, 0) + count * per_visit)
            profile.loads += count * block.loads
            profile.stores += count * block.stores
            profile.branches += count * block.branches
            for callee, per_visit in block.call_delta.items():
                call_counts[callee] = (
                    call_counts.get(callee, 0) + count * per_visit)


#: set after the first native → compiled degradation so a compiler-less
#: host warns exactly once per process, not once per simulator.
_NATIVE_FALLBACK_WARNED = False


def reset_native_fallback_warning() -> None:
    """Re-arm the once-per-process native-fallback warning (tests)."""
    global _NATIVE_FALLBACK_WARNED
    _NATIVE_FALLBACK_WARNED = False


def make_functional_simulator(module: Module, engine: str = "interpreter",
                              **kwargs):
    """Build the requested functional-execution engine for ``module``.

    ``engine`` is ``"interpreter"`` (the reference
    :class:`~repro.sim.FunctionalSimulator`), ``"compiled"`` (this
    module's :class:`CompiledSimulator`) or ``"native"`` (the generated-C
    :class:`~repro.exec.native.NativeSimulator`).  All expose the same
    ``run``/``run_profiled``/``profile`` contract.

    ``"native"`` is a *ceiling*, not a hard requirement: when no C
    compiler is available — or the module was quarantined after a compile
    failure — the call degrades to ``"compiled"`` and a single
    :class:`RuntimeWarning` is emitted per process.
    """
    global _NATIVE_FALLBACK_WARNED

    validate_engine(engine, "functional")
    if engine == "interpreter":
        from ..sim.functional import FunctionalSimulator

        kwargs.pop("store", None)
        return FunctionalSimulator(module, **kwargs)
    if engine == "native":
        from .native import NativeSimulator, NativeUnavailableError

        try:
            return NativeSimulator(module, **kwargs)
        except NativeUnavailableError as exc:
            if not _NATIVE_FALLBACK_WARNED:
                _NATIVE_FALLBACK_WARNED = True
                import warnings

                warnings.warn(
                    f"native engine unavailable ({exc}); falling back to "
                    f"the compiled engine", RuntimeWarning, stacklevel=2)
            engine = "compiled"
    if engine == "compiled":
        return CompiledSimulator(module, **kwargs)
    raise ValueError(
        f"engine '{engine}' is registered but has no constructor here; "
        f"teach make_functional_simulator about it")


@dataclass
class BatchResult:
    """Per-set outcomes of one :func:`run_batch` call."""

    values: List
    engine_used: str
    instructions: List[int]


def run_batch(module: Module, entry: str, arg_sets: Sequence[Sequence],
              engine: str = "native", store=None,
              memory_size: int = 1 << 20,
              max_steps: int = 50_000_000) -> BatchResult:
    """Run ``entry`` once per argument set on one simulator.

    The simulator is built once per batch (one translation lookup, one
    native program lookup, one memory image) and reset between sets, so
    each set starts from a zeroed memory with freshly laid-out globals
    and an empty profile, exactly as a new simulator would.

    ``engine="native"`` runs every set on the generated-C engine and
    falls back to the compiled engine when no C compiler is available;
    ``"compiled"`` and ``"interpreter"`` run on that engine.
    ``engine_used`` names the engine that ran.  Values are bit-identical
    to the interpreter run one set at a time.
    """
    simulator = None
    if engine == "native":
        from .native import NativeSimulator, NativeUnavailableError

        try:
            simulator = NativeSimulator(module, memory_size=memory_size,
                                        max_steps=max_steps, store=store)
        except NativeUnavailableError:
            engine = "compiled"
    if simulator is None:
        simulator = make_functional_simulator(
            module, engine=engine, memory_size=memory_size,
            max_steps=max_steps, store=store)
    values, instructions = [], []
    for index, arg_set in enumerate(arg_sets):
        if index:
            simulator.reset()
        values.append(simulator.run(entry, *copy_run_args(arg_set)))
        instructions.append(simulator.profile.instructions_executed)
    return BatchResult(values, engine, instructions)
