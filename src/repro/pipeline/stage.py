"""The stage abstraction of the staged compilation pipeline.

A :class:`Stage` is one cacheable unit of compilation work.  It declares

* a ``name`` (the namespace inside the :class:`ArtifactStore`),
* a :meth:`key` — the content fingerprint of exactly the inputs that can
  change its output,
* a :meth:`build` — the actual work, run only on a miss, and
* a :meth:`replicate` — how to turn the pristine stored payload into an
  object the caller may own and mutate (clone an IR module, rebind a
  compiled module to the requesting machine, ...).

:meth:`run` ties them together: fingerprint, look up, build on miss,
store the pristine payload, and hand back a replica plus a
:class:`StageRecord` describing what happened — records accumulate in
``CompileReport.stages`` so every build can show its per-stage timing and
cache behaviour.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Tuple

from ..obs import global_tracer
from .store import MEMORY_ONLY_STAGES, ArtifactStore


@dataclass
class StageRecord:
    """What one stage invocation did (surfaced in ``CompileReport``)."""

    stage: str
    key: str
    hit: bool
    #: build seconds on a miss; seconds *avoided* on a hit.
    seconds: float

    def describe(self) -> str:
        verb = "hit" if self.hit else "miss"
        return f"{self.stage}: {verb} {self.key[:12]} ({self.seconds * 1e3:.2f} ms)"


class Stage:
    """Base class for cacheable pipeline stages."""

    #: namespace inside the artifact store.
    name: str = "stage"
    #: payloads that cannot leave the process (closures): a disk-backed
    #: store keeps them in memory and never reads or writes a file for them.
    memory_only: bool = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.memory_only:
            MEMORY_ONLY_STAGES.add(cls.name)

    def key(self, *inputs) -> str:
        """Content fingerprint of ``inputs``; equal keys ⇒ equal outputs."""
        raise NotImplementedError

    def build(self, *inputs):
        """Produce the payload for ``inputs`` (cache miss path)."""
        raise NotImplementedError

    def replicate(self, payload, *inputs):
        """A caller-safe view of ``payload`` (default: the payload itself).

        Stages whose payloads are mutable (IR modules) or carry references
        that must be re-pointed at the caller's inputs (compiled code's
        machine) override this; it runs on hits *and* on the miss return
        path, so the stored pristine payload is never handed out.
        """
        return payload

    def run(self, store: ArtifactStore, *inputs) -> Tuple[object, StageRecord]:
        """Look up or build the artifact for ``inputs``."""
        with global_tracer().span(f"stage.{self.name}") as span:
            key = self.key(*inputs)
            artifact = store.get(self.name, key)
            if artifact is not None:
                span.note(key=key[:16], hit=True, source=artifact.source)
                return (self.replicate(artifact.payload, *inputs),
                        StageRecord(stage=self.name, key=key, hit=True,
                                    seconds=artifact.seconds))
            start = time.perf_counter()
            payload = self.build(*inputs)
            seconds = time.perf_counter() - start
            store.put(self.name, key, payload, seconds=seconds)
            span.note(key=key[:16], hit=False)
            return (self.replicate(payload, *inputs),
                    StageRecord(stage=self.name, key=key, hit=False,
                                seconds=seconds))
