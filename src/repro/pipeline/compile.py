"""The staged C → IR → scheduled-code → binary compilation pipeline.

:class:`CompilePipeline` decomposes what used to be the ad-hoc
``Toolchain.frontend → optimize → compile_module → encode_module`` call
chain into four content-addressed stages sharing one
:class:`~repro.pipeline.store.ArtifactStore`:

* ``frontend``  — C source → raw IR, keyed by the source text;
* ``optimize``  — raw IR → optimized IR, keyed by the frontend key plus
  the optimization configuration;
* ``backend``   — optimized IR → scheduled code + compile report, keyed
  by the *structural* module fingerprint times the machine axes the back
  end actually reads (see :mod:`repro.pipeline.fingerprints`);
* ``encode``    — scheduled code → binary image, keyed by the backend key.

Two machine-independent side stages share the same store: ``trace``
(profile-once kernel traces for analytic retiming) and ``native``
(generated-C shared objects for the ``engine="native"`` execution tier,
keyed by module structure × compiler ABI).

After the stages comes the one kernel measurement,
:meth:`CompilePipeline.measure`: it times scheduled code on its machine
at either fidelity — the cycle simulator at ``"cycle"``, the ``trace``
stage priced by :class:`~repro.model.RetimingModel` at ``"trace"``.  The
N×M matrix, the design-space evaluator and the application runner's
trace screen all time kernels through it.

The split sits exactly at the machine-independence boundary, so a
design-space sweep compiles C→optimized-IR once per kernel no matter how
many machines it visits, and design points that differ only in
timing/energy axes (clock, caches, branch penalty) share scheduled code
and binaries wholesale — the compiled artifacts are *rebound* to the
requesting machine on the way out, never rebuilt.
"""

from __future__ import annotations

import copy
import time
import weakref
from typing import List, Optional, Tuple, Union

from ..arch.machine import MachineDescription
from ..backend.asm import BinaryImage, encode_module
from ..backend.codegen import CompileReport, compile_module
from ..backend.mcode import CompiledFunction, CompiledModule
from ..exec.cache import module_fingerprint
from ..exec.registry import validate_engine
from ..frontend import compile_c
from ..ir import Module
from ..obs import global_tracer
from ..opt import optimize
from .fingerprints import (
    backend_fingerprint, encode_fingerprint, opt_fingerprint,
    source_fingerprint, trace_fingerprint,
)
from .stage import Stage, StageRecord
from .store import ArtifactStore


class FrontendStage(Stage):
    """C source text → raw (unoptimized) IR module."""

    name = "frontend"

    def key(self, source: str, module_name: str) -> str:
        return source_fingerprint(source, module_name)

    def build(self, source: str, module_name: str) -> Module:
        return compile_c(source, module_name=module_name)

    def replicate(self, payload: Module, *inputs) -> Module:
        # Callers optimize/customize modules in place; never leak the
        # pristine stored module.
        return payload.clone()


class OptimizeStage(Stage):
    """Raw IR + optimization configuration → optimized IR module."""

    name = "optimize"

    def key(self, module: Module, frontend_key: str, opt_level: int,
            unroll_factor: int) -> str:
        return opt_fingerprint(frontend_key, opt_level, unroll_factor)

    def build(self, module: Module, frontend_key: str, opt_level: int,
              unroll_factor: int) -> Module:
        # ``module`` is already this stage's private copy (the frontend
        # stage replicates on every return), so in-place optimization is
        # safe.
        optimize(module, level=opt_level, unroll_factor=unroll_factor)
        return module

    def replicate(self, payload: Module, *inputs) -> Module:
        return payload.clone()


class BackendStage(Stage):
    """Optimized IR × backend machine axes → scheduled code + report."""

    name = "backend"

    def __init__(self) -> None:
        #: module fingerprint -> the private snapshot compiled code of
        #: that module references; alive while some compiled code is.
        self._snapshots: "weakref.WeakValueDictionary[str, Module]" = (
            weakref.WeakValueDictionary())

    def key(self, module: Module, machine: MachineDescription) -> str:
        return backend_fingerprint(module_fingerprint(module), machine)

    def build(self, module: Module,
              machine: MachineDescription) -> Tuple[CompiledModule, CompileReport]:
        # Compile against a private snapshot: callers may rewrite their
        # module in place later (ISA customization), and the cached
        # compiled code must keep referencing the IR it was built from.
        # Compiled code only reads it, so every machine shares one.
        fingerprint = module_fingerprint(module)
        snapshot = self._snapshots.get(fingerprint)
        if snapshot is None:
            snapshot = self._snapshots[fingerprint] = module.clone()
        return compile_module(snapshot, machine)

    def replicate(self, payload: Tuple[CompiledModule, CompileReport],
                  module: Module, machine: MachineDescription
                  ) -> Tuple[CompiledModule, CompileReport]:
        compiled, report = payload
        rebound = rebind_compiled(compiled, machine)
        out_report = copy.deepcopy(report)
        out_report.machine = machine.name
        out_report.stages = []
        return rebound, out_report


class EncodeStage(Stage):
    """Scheduled code → binary image (keyed by the backend key)."""

    name = "encode"

    def key(self, compiled: CompiledModule, backend_key: str) -> str:
        return encode_fingerprint(backend_key)

    def build(self, compiled: CompiledModule, backend_key: str) -> BinaryImage:
        return encode_module(compiled)

    def replicate(self, payload: BinaryImage, compiled: CompiledModule,
                  backend_key: str) -> BinaryImage:
        # Deep enough a copy that caller-side mutation of words/tables can
        # never reach the stored image.
        return BinaryImage(
            machine_name=compiled.machine.name,
            words={name: list(w) for name, w in payload.words.items()},
            bundle_table={name: list(b)
                          for name, b in payload.bundle_table.items()},
            custom_op_names=list(payload.custom_op_names),
        )


class NativeStage(Stage):
    """Rendered C source × native toolchain → shared-object bytes.

    The build artifact of the generated-C execution engine: the raw
    bytes of the ``.so`` compiled from a module's rendered unit.  They
    are plain data, so a service's shared
    :class:`~repro.service.DiskArtifactStore` lets every worker reuse
    one compile.  The key is the caller's
    :func:`~repro.pipeline.fingerprints.native_fingerprint` of the
    structural module fingerprint times the toolchain's ABI digest
    (compiler identity/version/flags/platform and the renderer schema),
    so an incompatible compiler never serves a stale binary.  Its caller
    is the ``exec.native`` stage of :mod:`repro.exec.native`, which
    renders the module and loads the bytes.
    """

    name = "native"

    def key(self, key: str, source: str, toolchain) -> str:
        return key

    def build(self, key: str, source: str, toolchain) -> bytes:
        return toolchain.compile(source)


class TraceStage(Stage):
    """Optimized IR × entry × arguments → machine-independent trace.

    The profile-once half of trace-fidelity evaluation: one run of the
    threaded-code engine under a recording memory, reduced to a
    serializable :class:`~repro.model.trace.KernelTrace`.  Keyed by the
    structural module fingerprint and the argument recipe — no machine
    axis, so the artifact is shared by every design point of a sweep.
    Traces are plain data, so a disk store keeps them across processes.
    """

    name = "trace"

    def key(self, module: Module, entry: str, args, args_key: str) -> str:
        return trace_fingerprint(module_fingerprint(module), entry, args_key)

    def build(self, module: Module, entry: str, args, args_key: str):
        from ..model.trace import capture_trace

        return capture_trace(module, entry, args)

    # KernelTrace artifacts are treated as immutable; no replicate().


def rebind_compiled(compiled: CompiledModule,
                    machine: MachineDescription) -> CompiledModule:
    """``compiled`` with its machine reference replaced by ``machine``.

    Valid only when the two machines have equal backend fingerprints: the
    schedule, register assignment and code size are identical, and the
    simulators read the timing-only axes (clock, caches, branch penalty)
    from the rebound reference.  A fresh module/function container is
    always returned (so callers can add or drop functions without
    touching the cached artifact); blocks and register assignments are
    shared, not copied — they are immutable after scheduling.
    """
    rebound = CompiledModule(machine=machine, source=compiled.source)
    for function in compiled:
        rebound.add(CompiledFunction(
            name=function.name, machine=machine, blocks=function.blocks,
            source=function.source, registers=function.registers,
        ))
    return rebound


class CompilePipeline:
    """Content-addressed staged compilation over one artifact store."""

    def __init__(self, store: Optional[ArtifactStore] = None) -> None:
        self.store = store if store is not None else ArtifactStore()
        self.frontend_stage = FrontendStage()
        self.optimize_stage = OptimizeStage()
        self.backend_stage = BackendStage()
        self.encode_stage = EncodeStage()
        self.trace_stage = TraceStage()

    # ------------------------------------------------------------------
    # Front half (machine independent).
    # ------------------------------------------------------------------
    def frontend(self, source: str, name: str = "module"
                 ) -> Tuple[Module, StageRecord]:
        """C source → raw IR (cached by source text)."""
        return self.frontend_stage.run(self.store, source, name)

    def front(self, source: str, name: str = "module", opt_level: int = 2,
              unroll_factor: int = 4) -> Tuple[Module, List[StageRecord]]:
        """C source → optimized IR: the whole machine-independent half.

        An optimize-stage hit short-circuits the frontend stage entirely
        (its key is derivable from the source text alone), so a warm
        sweep consults exactly one stage per kernel.
        """
        stage = self.optimize_stage
        tracer = global_tracer()
        with tracer.span("pipeline.front", module=name, opt_level=opt_level):
            frontend_key = self.frontend_stage.key(source, name)
            opt_key = stage.key(None, frontend_key, opt_level, unroll_factor)
            # The short-circuit hit path bypasses Stage.run, so it opens
            # its own stage.optimize span to keep the trace uniform.
            with tracer.span("stage.optimize") as span:
                cached = self.store.get(stage.name, opt_key)
                if cached is not None:
                    span.note(key=opt_key[:16], hit=True,
                              source=cached.source)
                    record = StageRecord(stage=stage.name, key=opt_key,
                                         hit=True, seconds=cached.seconds)
                    return stage.replicate(cached.payload), [record]
                raw, front_record = self.frontend(source, name)
                start = time.perf_counter()
                module = stage.build(raw, frontend_key, opt_level,
                                     unroll_factor)
                seconds = time.perf_counter() - start
                self.store.put(stage.name, opt_key, module, seconds=seconds)
                span.note(key=opt_key[:16], hit=False)
            opt_record = StageRecord(stage=stage.name, key=opt_key, hit=False,
                                     seconds=seconds)
            return stage.replicate(module), [front_record, opt_record]

    def trace(self, module: Module, entry: str, args):
        """Profile ``entry(args)`` once; returns ``(KernelTrace, record)``.

        Machine independent (front half of the boundary): the trace is
        keyed by module structure and the argument recipe only, so a
        design-space sweep profiles each kernel exactly once no matter
        how many machines it prices.
        """
        from ..model.trace import trace_args_key

        return self.trace_stage.run(self.store, module, entry, args,
                                    trace_args_key(args))

    # ------------------------------------------------------------------
    # Back half (machine dependent).
    # ------------------------------------------------------------------
    def backend(self, module: Module, machine: MachineDescription
                ) -> Tuple[CompiledModule, CompileReport]:
        """Optimized IR → scheduled code for ``machine`` (cached by the
        structural module fingerprint × the machine's backend axes)."""
        (compiled, report), record = self.backend_stage.run(
            self.store, module, machine)
        report.stages.append(record)
        return compiled, report

    def encode(self, compiled: CompiledModule, backend_key: str) -> BinaryImage:
        """Scheduled code → binary image, reusing the backend key."""
        image, _record = self.encode_stage.run(self.store, compiled,
                                               backend_key)
        return image

    def backend_key(self, module: Module, machine: MachineDescription) -> str:
        """The content key the backend stage would use for this pair."""
        return self.backend_stage.key(module, machine)

    # ------------------------------------------------------------------
    # The one kernel measurement.
    # ------------------------------------------------------------------
    def measure(self, module: Module, compiled: CompiledModule, entry: str,
                args, fidelity: str):
        """Time one run of ``entry(*args)`` on ``compiled.machine``.

        ``compiled`` is ``module``'s scheduled code for the machine being
        measured (as :meth:`backend` returns it, rebound to that machine).
        At ``"cycle"`` the :class:`~repro.sim.cycle.CycleSimulator`
        executes it on a copy of ``args``; at ``"trace"`` the kernel's
        machine-independent trace (the ``trace`` stage, profiled once per
        module and arguments) is priced over its schedule by a
        :class:`~repro.model.RetimingModel` whose d-cache replays are
        memoized in this pipeline's store.  Either way the result is a
        :class:`~repro.sim.cycle.SimulationResult`: the kernel's value,
        cycles, statistics and energy.
        """
        validate_engine(fidelity, "fidelity")
        if fidelity == "trace":
            from ..model.retime import RetimingModel

            trace, _record = self.trace(module, entry, args)
            return RetimingModel(store=self.store).price(
                compiled, compiled.machine, trace)
        from ..sim.cycle import CycleSimulator
        from ..workloads.kernels import copy_run_args

        return CycleSimulator(compiled).run(entry, *copy_run_args(args))

    # ------------------------------------------------------------------
    # Whole pipeline.
    # ------------------------------------------------------------------
    def build(self, source_or_module: Union[str, Module],
              machine: MachineDescription, name: str = "module",
              opt_level: int = 2, unroll_factor: int = 4
              ) -> Tuple[Module, CompiledModule, CompileReport, str]:
        """Source (or pre-optimized module) → scheduled code + report.

        Returns ``(module, compiled, report, backend_key)``;
        ``report.stages`` records every stage consulted, with hit/miss and
        timing, in pipeline order.
        """
        records: List[StageRecord] = []
        if isinstance(source_or_module, str):
            module, records = self.front(source_or_module, name,
                                         opt_level=opt_level,
                                         unroll_factor=unroll_factor)
        else:
            module = source_or_module
        compiled, report = self.backend(module, machine)
        report.stages = records + report.stages
        return module, compiled, report, report.stages[-1].key

    def stats(self):
        """Per-stage hit/miss/timing counters of the underlying store."""
        return self.store.stats_dict()

