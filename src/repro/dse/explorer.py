"""Design-space exploration: fitting an architecture to an application.

The explorer evaluates design points against a workload mix and returns
the evaluations, the Pareto front over (time, area), and the best point
under a chosen scalar objective.  Three search strategies are provided:

* exhaustive — enumerate the whole (small) space,
* greedy — coordinate ascent from a starting point, one axis at a time,
* annealing — simulated annealing over the axes with a deterministic RNG.

Exploration re-runs the full toolchain (compile, optionally customize,
schedule, simulate) for every point, which is exactly the "explore a
design space of architectures to fit one to a given application" loop the
paper describes the table-driven toolchain enabling.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .objectives import Evaluation, Evaluator
from .pareto import knee_point, pareto_front
from .space import DesignPoint, DesignSpace


def _app_metric(evaluation: Evaluation, attr: str, objective: str) -> float:
    """Fetch a real-time metric; only application evaluations carry them."""
    value = getattr(evaluation, attr, None)
    if value is None:
        raise ValueError(
            f"objective '{objective}' needs real-time application metrics; "
            f"explore over an ApplicationMix (repro.dse.AppEvaluator), not "
            f"a kernel mix")
    return value


#: scalar objectives: map an Evaluation to a figure of merit (higher = better).
#: The real-time objectives need an :class:`~repro.dse.app.AppEvaluation`
#: (explorations over an application mix).  ``deadline_miss_rate``
#: breaks ties among deadline-meeting machines by energy per window —
#: "meet every deadline at least energy" — which the miss-rate term
#: dominates by construction (miss-rate granularity is 1/windows,
#: many orders above the scaled energy term).
OBJECTIVES: Dict[str, Callable[[Evaluation], float]] = {
    "performance": lambda e: e.performance,
    "perf_per_area": lambda e: e.perf_per_area,
    "perf_per_watt": lambda e: e.perf_per_watt,
    "deadline_miss_rate": lambda e: -(
        _app_metric(e, "deadline_miss_rate", "deadline_miss_rate")
        + 1e-9 * _app_metric(e, "energy_per_window_uj", "deadline_miss_rate")),
    "p99_latency": lambda e: -_app_metric(e, "p99_latency_us", "p99_latency"),
    "energy_per_window": lambda e: -_app_metric(
        e, "energy_per_window_uj", "energy_per_window"),
}

#: version of ExplorationResult's exported dict/JSON form.
RESULT_SCHEMA_VERSION = 1


@dataclass
class ExplorationResult:
    """Everything an exploration run produced."""

    evaluations: List[Evaluation] = field(default_factory=list)
    best: Optional[Evaluation] = None
    objective: str = "perf_per_area"
    points_evaluated: int = 0
    #: timing-model fidelity the run used: "cycle", "trace", or
    #: "trace+rescore" (screened at trace fidelity, Pareto frontier
    #: re-scored at cycle fidelity — per-row fidelity is in the rows).
    fidelity: str = "cycle"
    #: rescoring accounting when fidelity == "trace+rescore": the number
    #: of points re-scored at cycle fidelity and the rescoring batch's
    #: cache counters (None otherwise).
    rescore: Optional[Dict[str, object]] = None

    def feasible(self) -> List[Evaluation]:
        return [e for e in self.evaluations if e.feasible]

    def pareto(self) -> List[Evaluation]:
        """Pareto front over (execution time, core area)."""
        return pareto_front(
            self.feasible(),
            key=lambda e: (e.weighted_time_us, e.area_kgates),
        )

    def knee(self) -> Optional[Evaluation]:
        return knee_point(
            self.feasible(),
            key=lambda e: (e.weighted_time_us, e.area_kgates),
        )

    def table(self) -> List[Dict[str, object]]:
        rows = [e.summary_row() for e in self.evaluations]
        rows.sort(key=lambda r: (-int(r["feasible"]), r["time_us"]))
        return rows

    def to_rows(self) -> List[Dict[str, object]]:
        """Rows suitable for printing or JSON export (alias of table)."""
        return self.table()

    def to_dict(self) -> Dict[str, object]:
        """Schema-versioned, JSON-representable form of the whole run."""
        knee = self.knee()
        return {
            "kind": "exploration_result",
            "schema_version": RESULT_SCHEMA_VERSION,
            "objective": self.objective,
            "fidelity": self.fidelity,
            "rescore": self.rescore,
            "points_evaluated": self.points_evaluated,
            "best": self.best.summary_row() if self.best else None,
            "knee": knee.summary_row() if knee else None,
            "pareto": [e.machine.name for e in
                       sorted(self.pareto(), key=lambda e: e.area_kgates)],
            "rows": self.to_rows(),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)


class Explorer:
    """Searches a :class:`DesignSpace` for the best fit to a workload mix."""

    def __init__(self, evaluator: Evaluator, objective: str = "perf_per_area",
                 batch: Optional["BatchEvaluator"] = None,
                 seed: int = 7) -> None:
        if objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective '{objective}'; options: {', '.join(OBJECTIVES)}"
            )
        from ..exec.batch import BatchEvaluator

        self.evaluator = evaluator
        self.objective = objective
        self._objective_fn = OBJECTIVES[objective]
        #: default seed for the stochastic strategies: one explicit place
        #: to pin so repeated sweeps are bit-reproducible end to end.
        self.seed = seed
        #: all evaluation flows through the batch layer (memoized by the
        #: design point's cache key; optionally parallel and disk-backed).
        self.batch = batch if batch is not None else BatchEvaluator(evaluator)

    # ------------------------------------------------------------------
    def _new_result(self) -> ExplorationResult:
        return ExplorationResult(
            objective=self.objective,
            fidelity=getattr(self.evaluator, "fidelity", "cycle"))

    def _evaluate(self, point: DesignPoint) -> Evaluation:
        return self.batch.evaluate(point)

    def _score(self, evaluation: Evaluation) -> float:
        if not evaluation.feasible:
            return float("-inf")
        return self._objective_fn(evaluation)

    # ------------------------------------------------------------------
    # Strategies.
    # ------------------------------------------------------------------
    def exhaustive(self, space: DesignSpace) -> ExplorationResult:
        """Evaluate every point of ``space`` (in one batch)."""
        result = self._new_result()
        points = list(space.points())
        for evaluation in self.batch.evaluate_many(points):
            result.evaluations.append(evaluation)
            result.points_evaluated += 1
            if result.best is None or self._score(evaluation) > self._score(result.best):
                result.best = evaluation
        return result

    def greedy(self, space: DesignSpace,
               start: Optional[DesignPoint] = None,
               max_rounds: int = 4) -> ExplorationResult:
        """Coordinate ascent: improve one axis at a time until no axis helps."""
        axes: Dict[str, Sequence] = {
            "issue_width": space.issue_widths,
            "registers": space.register_counts,
            "clusters": space.cluster_counts,
            "mul_units": space.mul_unit_counts,
            "mem_units": space.mem_unit_counts,
            "custom_area_budget": space.custom_budgets,
        }
        current = start or DesignPoint(
            issue_width=min(space.issue_widths),
            registers=min(space.register_counts),
            clusters=min(space.cluster_counts),
            mul_units=min(space.mul_unit_counts),
            mem_units=min(space.mem_unit_counts),
            custom_area_budget=min(space.custom_budgets),
        )
        result = self._new_result()
        seen = {current.cache_key()}
        best_eval = self._evaluate(current)
        result.evaluations.append(best_eval)
        result.points_evaluated += 1

        for _ in range(max_rounds):
            improved = False
            for axis, options in axes.items():
                for option in options:
                    if getattr(current, axis) == option:
                        continue
                    candidate = dataclasses.replace(current, **{axis: option})
                    if candidate.issue_width % candidate.clusters != 0:
                        continue
                    evaluation = self._evaluate(candidate)
                    if candidate.cache_key() not in seen:
                        seen.add(candidate.cache_key())
                        result.evaluations.append(evaluation)
                        result.points_evaluated += 1
                    if self._score(evaluation) > self._score(best_eval):
                        best_eval = evaluation
                        current = candidate
                        improved = True
            if not improved:
                break

        result.best = best_eval
        return result

    def annealing(self, space: DesignSpace, iterations: int = 40,
                  seed: Optional[int] = None,
                  initial_temperature: float = 1.0,
                  rng: Optional[random.Random] = None) -> ExplorationResult:
        """Simulated annealing with a deterministic RNG.

        Candidate selection does not depend on evaluation outcomes, so the
        whole candidate sequence is drawn up front and evaluated as one
        batch; the annealing walk is then replayed over the prefetched
        evaluations.  The random source is explicit: pass ``rng`` to share
        a generator across calls, or ``seed`` to pin this call; otherwise
        the explorer's ``seed`` is used, so repeated runs of the same
        explorer configuration are bit-reproducible.
        """
        if rng is None:
            rng = random.Random(self.seed if seed is None else seed)
        points = list(space.points())
        if not points:
            raise ValueError("design space is empty")
        current = rng.choice(points)
        candidates = [rng.choice(points) for _ in range(iterations)]
        prefetched = self.batch.evaluate_many([current] + candidates)
        current_eval = prefetched[0]
        best_eval = current_eval

        result = self._new_result()
        seen = {current.cache_key()}
        result.evaluations.append(current_eval)
        result.points_evaluated += 1

        for step, (candidate, evaluation) in enumerate(
                zip(candidates, prefetched[1:])):
            temperature = initial_temperature * (1.0 - step / max(1, iterations))
            if candidate.cache_key() not in seen:
                seen.add(candidate.cache_key())
                result.evaluations.append(evaluation)
                result.points_evaluated += 1
            delta = self._score(evaluation) - self._score(current_eval)
            accept = delta > 0
            if not accept and temperature > 0 and math.isfinite(delta):
                accept = rng.random() < math.exp(delta / max(temperature, 1e-6))
            if accept:
                current, current_eval = candidate, evaluation
            if self._score(evaluation) > self._score(best_eval):
                best_eval = evaluation

        result.best = best_eval
        return result

    # ------------------------------------------------------------------
    # Screen-then-rescore: trace-fidelity sweep, cycle-fidelity frontier.
    # ------------------------------------------------------------------
    def screen_then_rescore(self, space: DesignSpace,
                            strategy: str = "exhaustive",
                            **strategy_kwargs) -> ExplorationResult:
        """Screen ``space`` at trace fidelity, re-score its Pareto frontier
        at cycle fidelity.

        The named ``strategy`` runs with a trace-fidelity evaluator (the
        explorer's own when it already is one), then every evaluation on
        the resulting (time, area) Pareto frontier — plus the screening
        winner, which objectives like perf-per-watt may place off that
        frontier — is re-measured by the cycle simulator and substituted
        into the result; ``best`` is recomputed over the re-scored set.
        Each row's ``fidelity`` field records which model produced its
        numbers, and ``result.rescore`` records how much cycle-fidelity
        work the rescoring pass did.
        """
        from ..exec.batch import BatchEvaluator

        if strategy not in ("exhaustive", "greedy", "annealing"):
            raise ValueError(
                f"unknown strategy '{strategy}'; options: exhaustive, "
                f"greedy, annealing")

        def _sibling(fidelity: str) -> "Explorer":
            if getattr(self.evaluator, "fidelity", "cycle") == fidelity:
                return self
            evaluator = self.evaluator.with_fidelity(fidelity)
            batch = BatchEvaluator(evaluator, workers=self.batch.workers,
                                   store=self.batch.store)
            return Explorer(evaluator, objective=self.objective, batch=batch,
                            seed=self.seed)

        screener = _sibling("trace")
        result = getattr(screener, strategy)(space, **strategy_kwargs)

        candidates = result.pareto()
        if result.best is not None:
            candidates = candidates + [result.best]
        points, seen = [], set()
        for evaluation in candidates:
            point = getattr(evaluation, "point", None)
            if point is not None and point.cache_key() not in seen:
                seen.add(point.cache_key())
                points.append(point)
        result.fidelity = "trace+rescore"
        if not points:
            return result

        # The rescoring pass always gets a fresh BatchEvaluator over the
        # same store: the memo is shared, but its stats window covers
        # exactly the rescoring work (reusing self.batch would fold any
        # earlier sweeps into the accounting).
        rescore_batch = BatchEvaluator(self.evaluator.with_fidelity("cycle"),
                                       workers=self.batch.workers,
                                       store=self.batch.store)
        rescored = rescore_batch.evaluate_many(points)
        by_key = {point.cache_key(): evaluation
                  for point, evaluation in zip(points, rescored)}
        result.evaluations = [
            by_key.get(e.point.cache_key(), e)
            if getattr(e, "point", None) is not None else e
            for e in result.evaluations
        ]
        result.best = max(rescored, key=self._score)
        result.rescore = {"points": len(points),
                          "batch": rescore_batch.stats.as_dict()}
        return result
