"""Batched design-space evaluation with a persistent result cache.

The explorer's inner loop — compile a candidate machine's workload, run
it, reduce to metrics — is embarrassingly parallel across design points
and completely deterministic given the evaluator configuration.
:class:`BatchEvaluator` exploits both properties:

* **batching** — ``evaluate_many`` deduplicates the requested points and
  fans the misses out over a process pool (``workers > 1``) or evaluates
  them serially in-process (``workers <= 1``, the default: cheap, no pool
  startup, still cached);
* **caching** — results are memoized in a
  :class:`repro.pipeline.ArtifactStore` (the same content-addressed store
  the staged compile pipeline uses) under the ``"evaluation"`` stage,
  keyed by a SHA-256 of the full evaluation recipe (workload mix, problem
  size, optimization level, seed, fidelity, application mix, design
  point); with a :class:`~repro.service.DiskArtifactStore` as ``store``,
  repeated explorations of the same space are nearly free even across
  processes.

Worker processes are primed by fork inheritance when the platform allows
it (the parent's evaluator, with its pre-compiled kernel IR, is reused
copy-on-write); under spawn they rebuild the evaluator from a primitive
spec.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..dse.space import DesignPoint
from ..obs import global_tracer
from ..obs.metrics import MetricsRegistry
from ..pipeline.store import ArtifactStore, SupportsArtifactStore

#: bump when the evaluation recipe or the evaluation payload changes
#: incompatibly (2: the memo moved into the artifact store; 3: the recipe
#: gained the fidelity selector and evaluations carry fidelity/point
#: fields; 4: the recipe gained the application-mix serialization so
#: application evaluations are content-addressed; 5: the recipe lost the
#: engine selector, leaving fidelity the one timing axis).
_CACHE_SCHEMA = 5

#: artifact-store stage name under which evaluations are memoized.
EVALUATION_STAGE = "evaluation"

#: evaluator inherited by forked workers (see _initialize_worker).
_WORKER_EVALUATOR = None

#: serializes the set-global -> fork window so concurrent BatchEvaluators
#: cannot hand a worker pool the wrong evaluator.
_FORK_LOCK = threading.Lock()


@dataclass(frozen=True)
class EvaluatorSpec:
    """Primitive, picklable recipe for rebuilding an Evaluator in a worker."""

    mix_name: str
    weights: tuple            # ((kernel, weight), ...) sorted
    size: Optional[int]
    opt_level: int
    seed: int
    fidelity: str = "cycle"
    #: canonical :class:`~repro.dse.app.ApplicationMix` JSON when the
    #: recipe evaluates applications (None for kernel mixes).  Carrying
    #: the full serialization — not just the mix name — keeps evaluation
    #: cache keys content-addressed: two app mixes sharing a name but
    #: not a graph never share a memo entry.
    application: Optional[str] = None

    @staticmethod
    def from_evaluator(evaluator) -> "EvaluatorSpec":
        return EvaluatorSpec(
            mix_name=evaluator.mix.name,
            weights=tuple(sorted(evaluator.mix.weights.items())),
            size=evaluator.size,
            opt_level=evaluator.opt_level,
            seed=evaluator.seed,
            fidelity=getattr(evaluator, "fidelity", "cycle"),
            application=getattr(evaluator, "application_json", None),
        )

    def build(self, pipeline=None):
        if self.application is not None:
            from ..dse.app import AppEvaluator, ApplicationMix

            mix = ApplicationMix.from_json(self.application)
            return AppEvaluator(mix, size=self.size,
                                opt_level=self.opt_level, seed=self.seed,
                                fidelity=self.fidelity, pipeline=pipeline)
        from ..dse.objectives import Evaluator
        from ..workloads.suite import WorkloadMix

        mix = WorkloadMix(self.mix_name, dict(self.weights))
        return Evaluator(mix, size=self.size, opt_level=self.opt_level,
                         seed=self.seed, fidelity=self.fidelity,
                         pipeline=pipeline)


def _initialize_worker(spec: EvaluatorSpec) -> None:
    global _WORKER_EVALUATOR
    if _WORKER_EVALUATOR is None:
        _WORKER_EVALUATOR = spec.build()


def _evaluate_point(point: DesignPoint):
    return _WORKER_EVALUATOR.evaluate(
        point.to_machine(), custom_area_budget=point.custom_area_budget)


#: the batch-evaluator counter names, as ``batch_<name>`` registry series.
_BATCH_FIELDS = ("requested", "memory_hits", "disk_hits", "evaluated",
                 "batches")

_BATCH_HELP = {
    "batch_requested": "design points requested from the batch evaluator",
    "batch_memory_hits": "evaluations served from the memory layer",
    "batch_disk_hits": "evaluations served from the disk layer",
    "batch_evaluated": "design points actually evaluated",
    "batch_batches": "evaluate_many calls",
}


class BatchStats:
    """What one BatchEvaluator did so far — a registry-counter view.

    Each evaluator counts into its own private
    :class:`~repro.obs.MetricsRegistry` (evaluators routinely share a
    store, so store-level aggregation would conflate them); the daemon
    aggregates across workers by merging snapshots instead.
    """

    __slots__ = ("registry", "_counters")

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        if registry is None:
            registry = MetricsRegistry()
        object.__setattr__(self, "registry", registry)
        object.__setattr__(self, "_counters", {
            name: registry.counter(f"batch_{name}",
                                   help=_BATCH_HELP[f"batch_{name}"])
            for name in _BATCH_FIELDS
        })

    def __getattr__(self, name: str) -> int:
        counters = object.__getattribute__(self, "_counters")
        if name in counters:
            return int(counters[name].value)
        raise AttributeError(name)

    def __setattr__(self, name: str, value) -> None:
        counters = object.__getattribute__(self, "_counters")
        if name in counters:
            counters[name].set(float(value))
            return
        raise AttributeError(f"BatchStats has no counter {name!r}")

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def hit_rate(self) -> float:
        return 0.0 if self.requested == 0 else self.hits / self.requested

    def as_dict(self) -> Dict[str, object]:
        return {"requested": self.requested, "memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits, "evaluated": self.evaluated,
                "batches": self.batches, "hit_rate": round(self.hit_rate, 4)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchStats({self.as_dict()!r})"


class BatchEvaluator:
    """Evaluates design points in parallel with persistent memoization."""

    def __init__(self, evaluator, workers: int = 0,
                 store: Optional[SupportsArtifactStore] = None) -> None:
        self.evaluator = evaluator
        self.workers = workers
        self.spec = EvaluatorSpec.from_evaluator(evaluator)
        self.stats = BatchStats()
        #: evaluations live in the same kind of content-addressed store as
        #: compile artifacts; pass one in to share it with a compile
        #: pipeline or another batch evaluator (a DiskArtifactStore also
        #: shares it across processes).
        self.store = (store if store is not None
                      else ArtifactStore(capacity=None))

    # ------------------------------------------------------------------
    # Cache keys.
    # ------------------------------------------------------------------
    def point_key(self, point: DesignPoint) -> str:
        """Content hash of the full evaluation recipe for ``point``."""
        recipe = (_CACHE_SCHEMA, self.spec.mix_name, self.spec.weights,
                  self.spec.size, self.spec.opt_level, self.spec.seed,
                  self.spec.fidelity, self.spec.application,
                  point.cache_key())
        return hashlib.sha256(repr(recipe).encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Evaluation.
    # ------------------------------------------------------------------
    def evaluate(self, point: DesignPoint):
        """Evaluate one point through every cache layer."""
        return self.evaluate_many([point])[0]

    def evaluate_many(self, points: Sequence[DesignPoint]) -> List:
        """Evaluate ``points`` (order preserved, duplicates deduplicated)."""
        with global_tracer().span("batch.evaluate", points=len(points),
                                  workers=self.workers) as span:
            results = self._evaluate_many(points)
            span.note(evaluated=self.stats.evaluated,
                      hit_rate=round(self.stats.hit_rate, 4))
            return results

    def _evaluate_many(self, points: Sequence[DesignPoint]) -> List:
        self.stats.batches += 1
        self.stats.requested += len(points)

        keys = [self.point_key(point) for point in points]
        results: Dict[str, object] = {}
        missing: Dict[str, DesignPoint] = {}
        for key, point in zip(keys, points):
            if key in results:
                self.stats.memory_hits += 1
                continue
            if key in missing:
                self.stats.memory_hits += 1
                continue
            artifact = self.store.get(EVALUATION_STAGE, key)
            if artifact is not None:
                if artifact.source == "disk":
                    self.stats.disk_hits += 1
                else:
                    self.stats.memory_hits += 1
                results[key] = artifact.payload
                continue
            missing[key] = point

        if missing:
            evaluated = self._evaluate_missing(list(missing.items()))
            for key, evaluation in evaluated:
                results[key] = evaluation
                self.store.put(EVALUATION_STAGE, key, evaluation)
            self.stats.evaluated += len(evaluated)

        # Remember which design point each evaluation answers (same point
        # for every caller sharing a memo entry), so re-scoring passes can
        # map Pareto evaluations back to points.
        by_key = dict(zip(keys, points))
        for key, evaluation in results.items():
            if getattr(evaluation, "point", None) is None:
                evaluation.point = by_key.get(key)

        return [results[key] for key in keys]

    def _evaluate_missing(self, items):
        """items: list of (key, point) pairs not found in any cache."""
        if self.workers <= 1 or len(items) < 2:
            return [(key, self.evaluator.evaluate(
                point.to_machine(),
                custom_area_budget=point.custom_area_budget))
                for key, point in items]

        global _WORKER_EVALUATOR
        methods = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in methods else "spawn"
        context = multiprocessing.get_context(method)
        workers = min(self.workers, len(items))
        # The global only matters at fork time: hold the lock from setting
        # it until the pool's workers exist, then restore it.
        with _FORK_LOCK:
            if method == "fork":
                # Children inherit the parent's evaluator (pre-compiled
                # kernel IR included) copy-on-write; no recompilation.
                _WORKER_EVALUATOR = self.evaluator
            try:
                pool = context.Pool(processes=workers,
                                    initializer=_initialize_worker,
                                    initargs=(self.spec,))
            finally:
                if method == "fork":
                    _WORKER_EVALUATOR = None
        with pool:
            evaluations = pool.map(_evaluate_point,
                                   [point for _key, point in items])
        return [(key, evaluation)
                for (key, _point), evaluation in zip(items, evaluations)]
