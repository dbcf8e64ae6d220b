"""Evaluation of one machine against a weighted *application* mix.

:class:`AppEvaluator` is the application-level sibling of
:class:`~repro.dse.objectives.Evaluator`: where the kernel evaluator
scores a machine by weighted kernel cycles, this one runs (or, at trace
fidelity, analytically re-aggregates) whole dataflow applications
window by window through :class:`~repro.app.AppRunner` and reduces them
to *real-time* figures of merit — deadline-miss rate, p50/p95/p99
window latency, jitter, and energy per window — weighted across the
mix.  It deliberately exposes the same surface the rest of the DSE
stack already consumes (``mix``/``size``/``opt_level``/``seed``/
``engine``/``fidelity``/``evaluate``/``with_fidelity``), so
:class:`~repro.dse.Explorer`, :class:`~repro.exec.batch.BatchEvaluator`
memoization, service sharding and ``screen_then_rescore`` all work over
applications unchanged.

ISA customization composes too: a positive ``custom_area_budget``
customizes the machine against every node module of every application
(weighted by the app's mix weight) before any window runs, through the
kernel evaluator's :func:`~repro.dse.objectives.customized_isa`.

One deliberate mapping: the ``"cycle"`` *engine* selector runs node
windows on the threaded-code engine with statically reduced timing (the
cycle-accurate simulator models caches per run, which the per-window
loop does not need for screening), so the evaluator records ``engine``
as ``"compiled"`` and both spellings share one memo key;
``fidelity="cycle"`` vs ``"trace"`` keeps its usual execute-every-window
vs price-once meaning.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..app.runner import AppReport, AppRunner
from ..app.spec import ApplicationSpec
from ..arch.machine import MachineDescription
from ..exec.registry import validate_engine
from ..pipeline import CompilePipeline
from .objectives import Evaluation, KernelMeasurement, customized_isa


class ApplicationMix:
    """A named, weighted set of applications (the product's workload)."""

    def __init__(self, name: str,
                 apps: Sequence[Tuple[ApplicationSpec, float]]) -> None:
        if not apps:
            raise ValueError("an application mix needs at least one app")
        self.name = name
        self._apps: List[Tuple[ApplicationSpec, float]] = []
        seen = set()
        for spec, weight in apps:
            if spec.name in seen:
                raise ValueError(
                    f"duplicate application '{spec.name}' in mix '{name}'")
            if weight <= 0:
                raise ValueError("application weights must be positive")
            seen.add(spec.name)
            self._apps.append((spec, float(weight)))

    def applications(self) -> List[Tuple[ApplicationSpec, float]]:
        return list(self._apps)

    @property
    def weights(self) -> Dict[str, float]:
        """``{application name: weight}`` — the surface
        :class:`~repro.exec.batch.EvaluatorSpec` reads off any mix."""
        return {spec.name: weight for spec, weight in self._apps}

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "apps": [{"spec": spec.to_dict(), "weight": weight}
                     for spec, weight in self._apps],
        }

    @classmethod
    def from_dict(cls, data) -> "ApplicationMix":
        return cls(str(data["name"]), [
            (ApplicationSpec.from_dict(entry["spec"]), float(entry["weight"]))
            for entry in data["apps"]
        ])

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ApplicationMix":
        return cls.from_dict(json.loads(text))

    @classmethod
    def single(cls, spec: ApplicationSpec) -> "ApplicationMix":
        """A one-application mix named after the application."""
        return cls(spec.name, [(spec, 1.0)])


@dataclass
class AppEvaluation(Evaluation):
    """An :class:`Evaluation` extended with weighted real-time metrics.

    ``measurements`` holds one row per application (cycles = mean cycles
    per window), so every inherited metric — weighted time, energy,
    area, performance ratios — keeps working; ``app_rows`` carries the
    per-application real-time detail as plain dicts (picklable through
    the evaluation memo).
    """

    app_rows: List[Dict[str, object]] = field(default_factory=list)

    def _weighted(self, key: str) -> float:
        total = sum(row["weight"] for row in self.app_rows)
        if total <= 0:
            return 0.0
        return sum(row[key] * row["weight"] for row in self.app_rows) / total

    @property
    def deadline_miss_rate(self) -> float:
        return self._weighted("miss_rate")

    @property
    def p50_latency_us(self) -> float:
        return self._weighted("p50_us")

    @property
    def p95_latency_us(self) -> float:
        return self._weighted("p95_us")

    @property
    def p99_latency_us(self) -> float:
        return self._weighted("p99_us")

    @property
    def jitter_us(self) -> float:
        return self._weighted("jitter_us")

    @property
    def energy_per_window_uj(self) -> float:
        return self._weighted("energy_per_window_uj")

    def summary_row(self) -> Dict[str, object]:
        row = super().summary_row()
        row.update({
            "miss_rate": round(self.deadline_miss_rate, 4),
            "p50_us": round(self.p50_latency_us, 2),
            "p99_us": round(self.p99_latency_us, 2),
            "jitter_us": round(self.jitter_us, 2),
            "energy_per_window_uj": round(self.energy_per_window_uj, 4),
        })
        return row


class AppEvaluator:
    """Compiles and measures application mixes on candidate machines."""

    def __init__(self, mix: ApplicationMix, size: Optional[int] = None,
                 opt_level: int = 2, seed: int = 1234,
                 engine: str = "compiled", fidelity: str = "cycle",
                 pipeline: Optional[CompilePipeline] = None) -> None:
        validate_engine(engine, "evaluation")
        validate_engine(fidelity, "fidelity")
        self.mix = mix
        #: accepted for recipe compatibility with the kernel evaluator;
        #: applications carry their own window sizes and stream seeds.
        self.size = size
        self.seed = seed
        self.opt_level = opt_level
        #: the functional engine node windows actually execute on.
        self.engine = "compiled" if engine == "cycle" else engine
        self.fidelity = fidelity
        if pipeline is not None:
            self.pipeline = pipeline
        else:
            from ..api.session import default_pipeline

            self.pipeline = default_pipeline()
        # Pre-compile every node's machine-independent IR once.
        from ..gen.generator import generate_kernel

        self._modules: Dict[Tuple[str, str], object] = {}
        for spec, _weight in mix.applications():
            for node in spec.nodes:
                kernel = generate_kernel(node.spec).kernel
                module, _records = self.pipeline.front(
                    kernel.source, kernel.name, opt_level=self.opt_level)
                self._modules[(spec.name, node.name)] = module

    @property
    def application_json(self) -> str:
        """Canonical mix serialization — the recipe field that makes
        evaluation cache keys content-addressed across processes."""
        return self.mix.to_json()

    def with_fidelity(self, fidelity: str) -> "AppEvaluator":
        """This evaluator's recipe at another fidelity (shared pipeline)."""
        if fidelity == self.fidelity:
            return self
        return AppEvaluator(self.mix, size=self.size,
                            opt_level=self.opt_level, seed=self.seed,
                            engine=self.engine, fidelity=fidelity,
                            pipeline=self.pipeline)

    # ------------------------------------------------------------------
    def evaluate(self, machine: MachineDescription,
                 custom_area_budget: float = 0.0) -> AppEvaluation:
        """Measure ``machine`` on the mix; optionally customize its ISA."""
        evaluation = AppEvaluation(machine=machine, fidelity=self.fidelity)
        modules = {key: module.clone()
                   for key, module in self._modules.items()}
        weighted = [(modules[(spec.name, node.name)], weight)
                    for spec, weight in self.mix.applications()
                    for node in spec.nodes]

        working_machine = customized_isa(evaluation, weighted,
                                         custom_area_budget)
        for spec, weight in self.mix.applications():
            try:
                runner = AppRunner(
                    spec, working_machine, engine=self.engine,
                    opt_level=self.opt_level, fidelity=self.fidelity,
                    pipeline=self.pipeline,
                    modules={node.name: modules[(spec.name, node.name)]
                             for node in spec.nodes})
                report = runner.run()
                evaluation.measurements.append(
                    self._measurement(spec, weight, report, runner))
                row = report.summary_row()
                row["weight"] = weight
                evaluation.app_rows.append(row)
            except Exception:  # noqa: BLE001 - infeasible point
                evaluation.measurements.append(KernelMeasurement(
                    kernel=spec.name, weight=weight, cycles=0,
                    correct=False, energy_uj=0.0, code_bytes=0, ipc=0.0,
                ))
                evaluation.app_rows.append({
                    "application": spec.name, "weight": weight,
                    "correct": False, "miss_rate": 1.0, "p50_us": 0.0,
                    "p95_us": 0.0, "p99_us": 0.0, "jitter_us": 0.0,
                    "energy_per_window_uj": 0.0,
                })

        return evaluation

    @staticmethod
    def _measurement(spec: ApplicationSpec, weight: float,
                     report: AppReport, runner: AppRunner
                     ) -> KernelMeasurement:
        code_bytes = runner.total_code_bytes
        return KernelMeasurement(
            kernel=spec.name,
            weight=weight,
            cycles=round(report.cycles_per_window),
            correct=report.correct,
            energy_uj=report.energy_per_window_uj,
            code_bytes=code_bytes,
            ipc=0.0,
        )
