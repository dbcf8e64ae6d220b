"""Population-scale experiments over generated workloads.

:class:`WorkloadPopulation` is the bridge between the generator and the
rest of the stack: it expands a deterministic set of specs, registers
the resulting kernels into the :mod:`repro.workloads` registry (so the
suite helpers, mixes and DSE evaluators resolve them by name), validates
them bit-identically across both functional engines, characterizes
them, and measures per-family customization gains through the standard
``Evaluator``/``BatchEvaluator`` path — the "population, not
cherry-picked points" experiment harness.

Registration is scoped: use the population as a context manager (or the
explicit ``register``/``unregister`` pair) so test runs and benchmarks
leave the global registry exactly as they found it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from ..workloads.kernels import (
    copy_run_args, register_kernel, unregister_kernel,
)
from ..workloads.suite import WorkloadMix
from .characterize import WorkloadCharacterization, characterize_kernel
from .generator import GeneratedKernel, generate_kernel
from .spec import sample_population_specs


@dataclass
class FamilyGain:
    """Customization gain of one family's mix on one baseline point."""

    family: str
    kernels: List[str]
    base_time_us: float
    custom_time_us: float
    gain: float
    custom_ops: int
    base_area_kgates: float
    custom_area_kgates: float
    feasible: bool

    def as_dict(self) -> Dict[str, object]:
        return {
            "family": self.family,
            "kernels": len(self.kernels),
            "base_time_us": round(self.base_time_us, 2),
            "custom_time_us": round(self.custom_time_us, 2),
            "gain": round(self.gain, 3),
            "custom_ops": self.custom_ops,
            "base_area_kgates": round(self.base_area_kgates, 1),
            "custom_area_kgates": round(self.custom_area_kgates, 1),
            "feasible": self.feasible,
        }


class WorkloadPopulation:
    """A deterministic, registerable set of generated kernels."""

    def __init__(self, generated: Sequence[GeneratedKernel],
                 seed: int = 0) -> None:
        self.generated: List[GeneratedKernel] = list(generated)
        self.seed = seed
        self._registered: List[str] = []

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------
    @classmethod
    def generate(cls, count: int, seed: int,
                 families: Optional[Sequence[str]] = None
                 ) -> "WorkloadPopulation":
        """``count`` kernels, round-robin over ``families``, fixed seed."""
        specs = sample_population_specs(count, seed, families)
        return cls([generate_kernel(spec) for spec in specs], seed=seed)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.generated)

    def __iter__(self) -> Iterator[GeneratedKernel]:
        return iter(self.generated)

    def names(self, family: Optional[str] = None) -> List[str]:
        return [gk.name for gk in self.generated
                if family is None or gk.family == family]

    def families(self) -> List[str]:
        seen: List[str] = []
        for gk in self.generated:
            if gk.family not in seen:
                seen.append(gk.family)
        return seen

    def by_family(self) -> Dict[str, List[GeneratedKernel]]:
        grouped: Dict[str, List[GeneratedKernel]] = {}
        for gk in self.generated:
            grouped.setdefault(gk.family, []).append(gk)
        return grouped

    def fingerprints(self) -> List[str]:
        return [gk.spec.fingerprint() for gk in self.generated]

    # ------------------------------------------------------------------
    # Registry scoping.
    # ------------------------------------------------------------------
    def register(self) -> "WorkloadPopulation":
        """Register every kernel into the workloads registry (idempotent)."""
        for gk in self.generated:
            if gk.name not in self._registered:
                register_kernel(gk.kernel, replace=True)
                self._registered.append(gk.name)
        return self

    def unregister(self) -> None:
        """Remove this population's kernels from the registry."""
        while self._registered:
            unregister_kernel(self._registered.pop())

    def __enter__(self) -> "WorkloadPopulation":
        return self.register()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.unregister()

    # ------------------------------------------------------------------
    # Population-scale runs.
    # ------------------------------------------------------------------
    def validate(self, size: Optional[int] = None, seed: int = 4321,
                 engines: Sequence[str] = ("interpreter", "compiled"),
                 opt_level: int = 2, pipeline=None) -> Dict[str, bool]:
        """Run every kernel on every engine; True iff all values match the
        oracle (and therefore each other bit-identically)."""
        from ..api.session import default_pipeline
        from ..exec.engine import make_functional_simulator

        pipeline = pipeline if pipeline is not None else default_pipeline()
        results: Dict[str, bool] = {}
        for gk in self.generated:
            kernel = gk.kernel
            module, _records = pipeline.front(kernel.source, kernel.name,
                                              opt_level=opt_level)
            args = kernel.arguments(size, seed=seed)
            expected = kernel.expected(args)
            ok = True
            for engine in engines:
                simulator = make_functional_simulator(module, engine=engine)
                value = simulator.run(kernel.entry, *copy_run_args(args))
                ok = ok and value == expected
            results[kernel.name] = ok
        return results

    def characterize_all(self, size: Optional[int] = None, seed: int = 1234,
                         opt_level: int = 2,
                         pipeline=None) -> List[WorkloadCharacterization]:
        return [characterize_kernel(gk, size=size, seed=seed,
                                    opt_level=opt_level, pipeline=pipeline)
                for gk in self.generated]

    def family_mix(self, family: str, limit: Optional[int] = None,
                   ) -> WorkloadMix:
        """A unit-weight mix over (up to ``limit`` of) one family's kernels.

        The population must be registered for evaluators to resolve the
        mix's kernel names.
        """
        names = self.names(family)
        if not names:
            raise KeyError(
                f"population has no '{family}' kernels; "
                f"families: {', '.join(self.families()) or 'none'}"
            )
        if limit is not None:
            names = names[:limit]
        return WorkloadMix(f"gen-{family}", {name: 1.0 for name in names})

    def customization_gain(self, family: str, budget: float = 32.0,
                           size: Optional[int] = None,
                           opt_level: int = 2, kernels_per_family: int = 3,
                           baseline=None, workers: int = 0,
                           pipeline=None) -> FamilyGain:
        """Measure what an ISA-customization budget buys this family.

        Evaluates the family mix on ``baseline`` (a
        :class:`~repro.dse.space.DesignPoint`; 4-issue/64-reg default)
        with and without ``budget`` kgates of custom-datapath area,
        through the standard batched evaluation path.  Requires the
        population to be registered.
        """
        from ..dse.objectives import Evaluator
        from ..dse.space import DesignPoint
        from ..exec.batch import BatchEvaluator

        mix = self.family_mix(family, limit=kernels_per_family)
        evaluator = Evaluator(mix, size=size, opt_level=opt_level,
                              seed=self.seed + 1, pipeline=pipeline)
        batch = BatchEvaluator(evaluator, workers=workers)
        base_point = (baseline if baseline is not None
                      else DesignPoint(issue_width=4, registers=64))
        custom_point = dataclasses.replace(base_point,
                                           custom_area_budget=budget)
        base, custom = batch.evaluate_many([base_point, custom_point])
        custom_time = custom.weighted_time_us
        gain = (base.weighted_time_us / custom_time
                if custom_time > 0 else 0.0)
        return FamilyGain(
            family=family,
            kernels=mix.names(),
            base_time_us=base.weighted_time_us,
            custom_time_us=custom_time,
            gain=gain,
            custom_ops=custom.custom_ops,
            base_area_kgates=base.area_kgates,
            custom_area_kgates=custom.area_kgates,
            feasible=base.feasible and custom.feasible,
        )

    def report(self, budget: float = 32.0,
               size: Optional[int] = None, opt_level: int = 2,
               kernels_per_family: int = 3, workers: int = 0,
               pipeline=None) -> Dict[str, object]:
        """Characterize and sweep the whole population, grouped by family.

        ``pipeline`` is threaded through characterization and evaluation,
        so a caller that already warmed a private compile pipeline keeps
        every front-half artifact (the default session's otherwise).
        """
        characterizations = self.characterize_all(size=size,
                                                  opt_level=opt_level,
                                                  pipeline=pipeline)
        by_family: Dict[str, List[WorkloadCharacterization]] = {}
        for item in characterizations:
            by_family.setdefault(item.family, []).append(item)

        families = []
        for family in self.families():
            members = by_family.get(family, [])
            gain = self.customization_gain(
                family, budget=budget, size=size,
                opt_level=opt_level, kernels_per_family=kernels_per_family,
                workers=workers, pipeline=pipeline)
            count = max(1, len(members))
            row = {
                "family": family,
                "kernels": len(members),
                "mean_ilp_bound": round(
                    sum(c.static.ilp_bound for c in members) / count, 3),
                "mean_memory_fraction": round(
                    sum(c.dynamic.memory_fraction for c in members) / count, 4),
                "mean_branch_fraction": round(
                    sum(c.dynamic.branch_fraction for c in members) / count, 4),
                "mean_instructions": round(
                    sum(c.dynamic.instructions for c in members) / count),
            }
            # The gain record's "kernels" is the size of the measured mix,
            # not the family population — keep the population count.
            row.update({key: value for key, value in gain.as_dict().items()
                        if key not in row})
            row["gain_mix_kernels"] = len(gain.kernels)
            families.append(row)
        return {
            "population": len(self.generated),
            "seed": self.seed,
            "families": families,
        }
