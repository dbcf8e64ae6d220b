"""Evaluation of one machine against one workload mix.

The evaluator compiles each kernel of a weighted mix for the candidate
machine (optionally customizing the ISA first; candidate machines share
the process-wide extension library, and each one uses only the
operations its own ``custom_ops`` name), times it through the pipeline's
one kernel measurement (:meth:`~repro.pipeline.CompilePipeline.measure`),
and reduces the measurements to the objective metrics the paper's
argument uses: execution time, silicon area, energy, code size, and
their ratios.  Each kernel's optimized IR, arguments and oracle answer
are prepared once per evaluator, not once per design point.

``fidelity=`` selects the timing model of ``measure``, the one timing
axis of design-space evaluation:

* ``"cycle"`` (default) — the cycle-accurate simulator executes the
  scheduled code of every design point: exact timing including cache
  behaviour;
* ``"trace"`` — profile-once/estimate-many: each kernel is executed
  exactly once per (module, arguments) pair (the pipeline's ``trace``
  stage) and every design point is priced analytically by the
  :class:`repro.model.RetimingModel`, including modeled cache stalls and
  cache energy.  No per-point simulation at all — the screening mode for
  large sweeps, locked to the cycle simulator by the differential
  harness in ``tests/test_trace_model.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..arch.area import estimate_area
from ..arch.machine import MachineDescription
from ..core.customizer import IsaCustomizer
from ..core.selection import SelectionConfig
from ..exec.registry import validate_engine
from ..ir import Module
from ..pipeline import CompilePipeline
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
                 fidelity: str = "cycle",
                 pipeline: Optional[CompilePipeline] = None) -> None:
        validate_engine(fidelity, "fidelity")
        self.mix = mix
        self.size = size
        self.opt_level = opt_level
        self.seed = seed
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
        # Per-kernel work is the same at every design point, so it is done
        # once: the machine-independent IR, the arguments and the oracle's
        # answer.  ``measure`` copies the arguments on every run.
        self._modules = {}
        self._inputs = {}
        for kernel, weight in mix.kernels():
            module, _records = self.pipeline.front(
                kernel.source, kernel.name, opt_level=self.opt_level)
            self._modules[kernel.name] = module
            args = kernel.arguments(self.size, seed=self.seed)
            self._inputs[kernel.name] = (args, kernel.expected(args))

    def with_fidelity(self, fidelity: str) -> "Evaluator":
        """This evaluator's recipe at another fidelity (shared pipeline)."""
        if fidelity == self.fidelity:
            return self
        return Evaluator(self.mix, size=self.size, opt_level=self.opt_level,
                         seed=self.seed, fidelity=fidelity,
                         pipeline=self.pipeline)

    def evaluate(self, machine: MachineDescription,
                 custom_area_budget: float = 0.0) -> Evaluation:
        """Measure ``machine`` on the mix; optionally customize its ISA first."""
        evaluation = Evaluation(machine=machine, fidelity=self.fidelity)
        # Only customization rewrites modules in place; the backend stage
        # compiles its own snapshot, so an uncustomized point reads the
        # evaluator's modules directly.
        modules = self._modules
        if custom_area_budget > 0.0:
            modules = {name: module.clone()
                       for name, module in modules.items()}
        weighted = [(modules[kernel.name], weight)
                    for kernel, weight in self.mix.kernels()]

        working_machine = customized_isa(evaluation, weighted,
                                         custom_area_budget)
        for kernel, weight in self.mix.kernels():
            module = modules[kernel.name]
            args, expected = self._inputs[kernel.name]
            try:
                compiled, report = self.pipeline.backend(module, working_machine)
                result = self.pipeline.measure(module, compiled, kernel.entry,
                                               args, self.fidelity)
                evaluation.measurements.append(KernelMeasurement(
                    kernel=kernel.name,
                    weight=weight,
                    cycles=result.cycles,
                    correct=(result.value == expected),
                    energy_uj=result.energy_uj,
                    code_bytes=(report.code.bytes_effective
                                if report.code is not None else 0),
                    ipc=result.stats.ipc,
                ))
            except Exception:  # noqa: BLE001 - infeasible point
                evaluation.measurements.append(KernelMeasurement(
                    kernel=kernel.name, weight=weight, cycles=0,
                    correct=False, energy_uj=0.0, code_bytes=0, ipc=0.0,
                ))

        return evaluation
