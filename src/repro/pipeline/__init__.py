"""Staged compilation with content-addressed artifact reuse.

The compile side of the mass-customization argument: deriving and
evaluating a new family member is cheap only if the toolchain never
redoes work whose inputs have not changed.  This package mirrors the
cache-first architecture of :mod:`repro.exec` for the compiler itself —
every stage of ``C → IR → scheduled code → binary`` is fingerprinted by
exactly the inputs that can change its output and memoized in a shared
:class:`ArtifactStore`, splitting at the machine-independence boundary so
design-space sweeps pay the front half once per kernel and share the back
half across design points with equal backend axes.
"""

from .compile import (
    BackendStage, CompilePipeline, EncodeStage, FrontendStage, NativeStage,
    OptimizeStage, TraceStage, rebind_compiled,
)
from .fingerprints import (
    backend_fingerprint, encode_fingerprint, machine_backend_fingerprint,
    native_fingerprint, opt_fingerprint, source_fingerprint,
    trace_fingerprint,
)
from .stage import Stage, StageRecord
from .store import (
    ArtifactStore, StageArtifact, StageStats, SupportsArtifactStore,
)

__all__ = [
    "ArtifactStore", "StageArtifact", "StageStats", "SupportsArtifactStore",
    "Stage", "StageRecord",
    "CompilePipeline", "FrontendStage", "OptimizeStage", "BackendStage",
    "EncodeStage", "TraceStage", "NativeStage", "rebind_compiled",
    "source_fingerprint", "opt_fingerprint", "machine_backend_fingerprint",
    "backend_fingerprint", "encode_fingerprint", "trace_fingerprint",
    "native_fingerprint",
]
