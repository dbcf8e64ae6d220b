"""The content-addressed artifact store shared by all pipeline stages.

An :class:`ArtifactStore` maps ``(stage, key)`` to a
:class:`StageArtifact` in an in-memory LRU (``capacity`` bounds the
entry count across all stages).  Every cached artifact of the stack
lives in one: compile stages, design-point evaluations, native ``.so``
bytes, threaded-code translations (stage ``exec.code``) and loaded
native programs (stage ``exec.native``).  Artifacts that must survive
the process go to the subclass :class:`repro.service.DiskArtifactStore`,
the one disk format.

Cache statistics live in the store's :class:`~repro.obs.MetricsRegistry`
as ``store_*{stage=...}`` counters; :class:`StageStats` (defined in
:mod:`repro.obs.metrics`, re-exported here) is a per-stage *view* over
them keeping the historical mutable-attribute surface.  The compile
pipeline surfaces these in ``CompileReport``, the benchmarks print them
as hit-rate tables, and ``python -m repro stats`` exports the same
numbers as Prometheus text — one source of truth.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, Optional, Protocol, Set, runtime_checkable

from ..obs.metrics import MetricsRegistry, StageStats

#: names of stages whose payloads never leave the process (see
#: :attr:`repro.pipeline.stage.Stage.memory_only`).
MEMORY_ONLY_STAGES: Set[str] = set()


@dataclass
class StageArtifact:
    """One cached stage output.

    ``payload`` is the stage's pristine result object — stages hand
    callers a *replica* (clone/rebind/fresh container) of it, never the
    payload itself, so caller-side mutation of the artifact's structure
    can never poison the store (replicas may still share sub-objects the
    stage declares immutable, e.g. scheduled blocks).  ``seconds`` is
    the wall-clock cost of the build that produced it, which lets hits
    report how much work they avoided.
    """

    stage: str
    key: str
    payload: object
    seconds: float = 0.0
    #: which layer satisfied this lookup: "memory", "disk" or "built".
    #: Memory hits return a per-call copy of the record (sharing the
    #: payload), so the field is provenance for the caller that received
    #: it, never shared mutable state.
    source: str = "built"


@runtime_checkable
class SupportsArtifactStore(Protocol):
    """The ``(stage, key)`` store protocol the pipeline layers code to.

    Anything honouring it — the in-process :class:`ArtifactStore`, the
    cross-process :class:`repro.service.DiskArtifactStore` — can back a
    :class:`~repro.pipeline.compile.CompilePipeline`, a
    :class:`~repro.exec.batch.BatchEvaluator`, or a
    :class:`~repro.api.Session`.
    """

    def get(self, stage: str, key: str) -> Optional["StageArtifact"]:
        """The artifact for ``(stage, key)``, or None on a miss."""

    def put(self, stage: str, key: str, payload: object,
            seconds: float = 0.0) -> "StageArtifact":
        """Insert a freshly built payload; returns its artifact record."""

    def stats(self, stage: str) -> StageStats:
        """Counters for ``stage`` (created on first use)."""

    def stats_dict(self) -> Dict[str, Dict[str, object]]:
        """All per-stage counters, for reports and benchmarks."""


class ArtifactStore:
    """In-memory LRU content-addressed store."""

    def __init__(self, capacity: Optional[int] = 1024,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.capacity = capacity
        #: where the counters actually live (``store_*{stage=...}``).
        self.registry = registry if registry is not None else MetricsRegistry()
        self._entries: "OrderedDict[tuple, StageArtifact]" = OrderedDict()
        self._stats: Dict[str, StageStats] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Statistics.
    # ------------------------------------------------------------------
    def _stage_stats(self, stage: str) -> StageStats:
        # Lock-free view lookup; callers may already hold self._lock.
        stats = self._stats.get(stage)
        if stats is None:
            stats = self._stats[stage] = StageStats(self.registry, stage)
        return stats

    def stats(self, stage: str) -> StageStats:
        """Counters for ``stage`` (created on first use)."""
        with self._lock:
            return self._stage_stats(stage)

    def stats_dict(self) -> Dict[str, Dict[str, object]]:
        """All per-stage counters, for reports and benchmarks."""
        with self._lock:
            return {stage: stats.as_dict()
                    for stage, stats in sorted(self._stats.items())}

    def metrics(self) -> Dict[str, object]:
        """A registry snapshot (the same numbers, typed and labeled)."""
        return self.registry.snapshot()

    # ------------------------------------------------------------------
    # Lookup / insert.
    # ------------------------------------------------------------------
    def get(self, stage: str, key: str) -> Optional[StageArtifact]:
        """Return the artifact for ``(stage, key)`` or None on a miss."""
        with self._lock:
            stats = self._stage_stats(stage)
            artifact = self._lookup(stage, key, stats)
            if artifact is None:
                stats.misses += 1
            return artifact

    def _lookup(self, stage: str, key: str,
                stats: StageStats) -> Optional[StageArtifact]:
        # Caller holds the lock; a hit is counted, a miss is not.
        artifact = self._entries.get((stage, key))
        if artifact is None:
            return None
        stats.hits += 1
        stats.seconds_saved += artifact.seconds
        self._entries.move_to_end((stage, key))
        return replace(artifact, source="memory")

    def put(self, stage: str, key: str, payload: object,
            seconds: float = 0.0) -> StageArtifact:
        """Insert a freshly built payload; returns its artifact record."""
        artifact = StageArtifact(stage=stage, key=key, payload=payload,
                                 seconds=seconds, source="built")
        with self._lock:
            stats = self._stage_stats(stage)
            stats.puts += 1
            stats.seconds_built += seconds
            self._insert(stage, key, artifact, stats)
        return artifact

    def _insert(self, stage: str, key: str, artifact: StageArtifact,
                stats: StageStats) -> None:
        # Caller holds the lock.
        self._entries[(stage, key)] = artifact
        self._entries.move_to_end((stage, key))
        if self.capacity is not None and len(self._entries) > self.capacity:
            (evicted_stage, _evicted_key), _artifact = \
                self._entries.popitem(last=False)
            self._stage_stats(evicted_stage).evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, stage_key: tuple) -> bool:
        return stage_key in self._entries

    def clear(self) -> None:
        """Drop every entry and zero the counters.

        Counters are zeroed *in place*, so :class:`StageStats` views
        held by callers keep pointing at live series.
        """
        with self._lock:
            self._entries.clear()
            self._stats.clear()
        self.registry.reset(prefix="store_")
