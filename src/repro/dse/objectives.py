"""Evaluation of one machine against one workload mix.

The evaluator compiles each kernel of a weighted mix for the candidate
machine (optionally customizing the ISA first; candidate machines share
the process-wide extension library, and each one uses only the
operations its own ``custom_ops`` name), runs the cycle simulator, and
reduces the measurements to the objective metrics the paper's argument
uses: execution time, silicon area, energy, code size, and their ratios.

Two measurement engines are available (``engine=``):

* ``"cycle"`` (default) — the cycle-accurate simulator executes the
  scheduled code directly: exact timing including cache behaviour.
* ``"compiled"`` — the threaded-code engine
  (:class:`repro.exec.CompiledSimulator`) executes the kernel for the
  value and dynamic profile, and cycles are reduced *statically* from the
  schedule: measured block visit counts times each block's schedule
  length, plus call and taken-branch penalties.  This matches the cycle
  simulator except for cache-stall modelling (no i/d-cache stalls and no
  cache access energy) and is several times faster — the screening mode
  for large design-space sweeps.
* ``"native"`` — same static timing reduction, but the kernel executes
  on the generated-C engine (:class:`repro.exec.NativeSimulator`, ``.so``
  artifacts shared through the pipeline store); degrades to
  ``"compiled"`` with one warning when no C compiler is available.

Orthogonally, ``fidelity=`` selects the timing model itself:

* ``"cycle"`` (default) — per-point execution with whichever engine is
  selected above;
* ``"trace"`` — profile-once/estimate-many: each kernel is executed
  exactly once per (module, arguments) pair (the pipeline's ``trace``
  stage) and every design point is priced analytically by the
  :class:`repro.model.RetimingModel`, including modeled cache stalls and
  cache energy.  No per-point simulation at all — the screening mode for
  N×M sweeps, locked to the cycle simulator by the differential harness
  in ``tests/test_trace_model.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..arch.area import estimate_area
from ..arch.machine import MachineDescription
from ..core.customizer import IsaCustomizer
from ..core.selection import SelectionConfig
from ..backend.mcode import CompiledModule
from ..exec.registry import EVALUATION_ENGINES, validate_engine
from ..ir import Module
from ..pipeline import CompilePipeline
from ..sim.cycle import CycleSimulator
from ..sim.functional import ExecutionProfile
from ..workloads.kernels import Kernel, copy_run_args
from ..workloads.suite import WorkloadMix


@dataclass
class KernelMeasurement:
    """Cycle/energy/code measurements of one kernel on one machine."""

    kernel: str
    weight: float
    cycles: int
    correct: bool
    energy_uj: float
    code_bytes: int
    ipc: float


@dataclass
class Evaluation:
    """Aggregate evaluation of one machine over a workload mix."""

    machine: MachineDescription
    measurements: List[KernelMeasurement] = field(default_factory=list)
    customized: bool = False
    custom_ops: int = 0
    #: which timing model produced these numbers ("cycle" or "trace").
    fidelity: str = "cycle"
    #: the design point this evaluation was requested for, when it came
    #: through the batch layer (lets re-scoring map back to points).
    point: Optional[object] = None

    @property
    def feasible(self) -> bool:
        return bool(self.measurements) and all(m.correct for m in self.measurements)

    @property
    def weighted_cycles(self) -> float:
        return sum(m.cycles * m.weight for m in self.measurements)

    @property
    def weighted_time_us(self) -> float:
        return self.weighted_cycles * self.machine.clock_ns / 1000.0

    @property
    def weighted_energy_uj(self) -> float:
        return sum(m.energy_uj * m.weight for m in self.measurements)

    @property
    def total_code_bytes(self) -> int:
        return sum(m.code_bytes for m in self.measurements)

    @property
    def area_kgates(self) -> float:
        return estimate_area(self.machine).core

    @property
    def performance(self) -> float:
        """Throughput-style metric: 1e6 / weighted execution time (us)."""
        time = self.weighted_time_us
        return 0.0 if time <= 0 else 1e6 / time

    @property
    def perf_per_area(self) -> float:
        area = self.area_kgates
        return 0.0 if area <= 0 else self.performance / area

    @property
    def perf_per_watt(self) -> float:
        energy = self.weighted_energy_uj
        return 0.0 if energy <= 0 else self.performance / energy

    def summary_row(self) -> Dict[str, object]:
        return {
            "machine": self.machine.name,
            "fidelity": self.fidelity,
            "feasible": self.feasible,
            "custom_ops": self.custom_ops,
            "cycles": round(self.weighted_cycles),
            "time_us": round(self.weighted_time_us, 2),
            "area_kgates": round(self.area_kgates, 1),
            "energy_uj": round(self.weighted_energy_uj, 2),
            "code_bytes": self.total_code_bytes,
            "perf": round(self.performance, 3),
            "perf_per_area": round(self.perf_per_area, 5),
        }


def customized_isa(evaluation: Evaluation,
                   weighted: Sequence[Tuple[Module, float]],
                   area_budget_kgates: float) -> MachineDescription:
    """Customize ``evaluation.machine`` for ``weighted`` and return it.

    With a positive budget, the ``(module, weight)`` pairs are rewritten
    in place to use operations chosen by one area-budgeted customization
    (named ``"{machine}+x{budget}"``), and ``evaluation`` records the
    customized machine.  The operations are registered in the
    process-wide extension library, where they stay: names are content
    hashes, so a concurrent evaluation that selects the same operation
    registers the same entry.
    """
    machine = evaluation.machine
    if area_budget_kgates > 0.0:
        customizer = IsaCustomizer(
            machine,
            selection_config=SelectionConfig(
                area_budget_kgates=area_budget_kgates),
        )
        result = customizer.customize_for_area(
            weighted, name=f"{machine.name}+x{int(area_budget_kgates)}")
        evaluation.machine = result.machine
        evaluation.customized = True
        evaluation.custom_ops = result.report.operations_selected
    return evaluation.machine


class Evaluator:
    """Compiles and measures workload mixes on candidate machines."""

    def __init__(self, mix: WorkloadMix, size: Optional[int] = None,
                 opt_level: int = 3, seed: int = 1234,
                 engine: str = "cycle",
                 fidelity: str = "cycle",
                 pipeline: Optional[CompilePipeline] = None) -> None:
        validate_engine(engine, "evaluation")
        validate_engine(fidelity, "fidelity")
        self.mix = mix
        self.size = size
        self.opt_level = opt_level
        self.seed = seed
        self.engine = engine
        self.fidelity = fidelity
        #: staged compile pipeline shared across design points (and, via
        #: the default session, across evaluators): the machine-
        #: independent front half runs once per kernel, and scheduled
        #: code is reused between machines with equal backend axes.
        if pipeline is not None:
            self.pipeline = pipeline
        else:
            from ..api.session import default_pipeline

            self.pipeline = default_pipeline()
        # Pre-compile the machine-independent IR once per kernel.
        self._modules = {}
        for kernel, weight in mix.kernels():
            module, _records = self.pipeline.front(
                kernel.source, kernel.name, opt_level=self.opt_level)
            self._modules[kernel.name] = module
        # One retiming model per evaluator: d-cache replays are memoized
        # in the pipeline's artifact store, shared across design points.
        from ..model.retime import RetimingModel

        self._retimer = RetimingModel(store=self.pipeline.store)

    def with_fidelity(self, fidelity: str) -> "Evaluator":
        """This evaluator's recipe at another fidelity (shared pipeline)."""
        if fidelity == self.fidelity:
            return self
        return Evaluator(self.mix, size=self.size, opt_level=self.opt_level,
                         seed=self.seed, engine=self.engine,
                         fidelity=fidelity, pipeline=self.pipeline)

    def evaluate(self, machine: MachineDescription,
                 custom_area_budget: float = 0.0) -> Evaluation:
        """Measure ``machine`` on the mix; optionally customize its ISA first."""
        evaluation = Evaluation(machine=machine, fidelity=self.fidelity)
        modules = {name: module.clone() for name, module in self._modules.items()}
        weighted = [(modules[kernel.name], weight)
                    for kernel, weight in self.mix.kernels()]

        working_machine = customized_isa(evaluation, weighted,
                                         custom_area_budget)
        for kernel, weight in self.mix.kernels():
            module = modules[kernel.name]
            args = kernel.arguments(self.size, seed=self.seed)
            expected = kernel.expected(args)
            try:
                compiled, report = self.pipeline.backend(module, working_machine)
                run_args = copy_run_args(args)
                code_bytes = (report.code.bytes_effective
                              if report.code is not None else 0)
                if self.fidelity == "trace":
                    measurement = self._measure_trace(
                        kernel, weight, module, compiled, working_machine,
                        args, expected, code_bytes)
                elif self.engine in ("compiled", "native"):
                    measurement = self._measure_compiled(
                        kernel, weight, module, compiled, working_machine,
                        run_args, expected, code_bytes)
                else:
                    simulator = CycleSimulator(compiled)
                    result = simulator.run(kernel.entry, *run_args)
                    measurement = KernelMeasurement(
                        kernel=kernel.name,
                        weight=weight,
                        cycles=result.cycles,
                        correct=(result.value == expected),
                        energy_uj=result.energy_uj,
                        code_bytes=code_bytes,
                        ipc=result.stats.ipc,
                    )
                evaluation.measurements.append(measurement)
            except Exception:  # noqa: BLE001 - infeasible point
                evaluation.measurements.append(KernelMeasurement(
                    kernel=kernel.name, weight=weight, cycles=0,
                    correct=False, energy_uj=0.0, code_bytes=0, ipc=0.0,
                ))

        return evaluation

    # ------------------------------------------------------------------
    # Trace fidelity: profile once, retime analytically per machine.
    # ------------------------------------------------------------------
    def _measure_trace(self, kernel: Kernel, weight: float, module,
                       compiled: CompiledModule, machine: MachineDescription,
                       args: tuple, expected, code_bytes: int
                       ) -> KernelMeasurement:
        trace, _record = self.pipeline.trace(module, kernel.entry, args)
        estimate = self._retimer.price(compiled, machine, trace)
        return KernelMeasurement(
            kernel=kernel.name, weight=weight, cycles=estimate.cycles,
            correct=(trace.value == expected),
            energy_uj=estimate.energy_uj, code_bytes=code_bytes,
            ipc=estimate.stats.ipc,
        )

    # ------------------------------------------------------------------
    # Functional screening engines: fast execution + static timing.
    # ------------------------------------------------------------------
    def _measure_compiled(self, kernel: Kernel, weight: float, module,
                          compiled: CompiledModule, machine: MachineDescription,
                          run_args: tuple, expected, code_bytes: int
                          ) -> KernelMeasurement:
        from ..exec.engine import make_functional_simulator

        simulator = make_functional_simulator(
            module, engine=self.engine, store=self.pipeline.store)
        value = simulator.run(kernel.entry, *run_args)
        cycles, energy_uj, ipc = reduce_schedule_timing(
            compiled, machine, simulator.profile)
        return KernelMeasurement(
            kernel=kernel.name, weight=weight, cycles=cycles,
            correct=(value == expected), energy_uj=energy_uj,
            code_bytes=code_bytes, ipc=ipc,
        )


def reduce_schedule_timing(compiled: CompiledModule,
                           machine: MachineDescription,
                           profile: ExecutionProfile
                           ) -> Tuple[int, float, float]:
    """Reduce a dynamic profile over a static schedule to (cycles, uJ, ipc).

    Mirrors the cycle simulator's accounting exactly except for the cache
    models (deliberately off: the compiled engine records no address
    stream).  One code path with trace fidelity: this is the
    :class:`repro.model.RetimingModel` with cache modelling disabled.
    """
    from ..model.retime import RetimingModel

    estimate = RetimingModel(model_caches=False).price(
        compiled, machine, profile)
    return estimate.stats.cycles, estimate.energy_uj, estimate.stats.ipc
