"""Content fingerprints for the staged compilation pipeline.

Every pipeline stage is keyed by a fingerprint of *exactly* the inputs
that can change its output, so artifacts are reused whenever those inputs
are unchanged — across toolchains, evaluators and processes sharing one
:class:`~repro.pipeline.store.ArtifactStore`.  The structural module
fingerprint is :func:`repro.exec.cache.module_fingerprint` (shared with
the threaded-code translation stage); this module adds the source-text and
machine-axis halves.

Machine-axis → stage dependency table
=====================================

The pipeline is split at the machine-independence boundary: the front
half (``frontend`` + ``optimize``) never reads the machine description,
and the back half (``backend`` + ``encode``) reads only a subset of its
axes.  The table below is the authoritative statement of which
:class:`~repro.arch.machine.MachineDescription` field invalidates which
stage; fields in the last row can differ between two design points while
the points share every compiled artifact wholesale.

======================== ==================== ==========================
MachineDescription axis   consumed by          invalidates stage
======================== ==================== ==========================
issue_width               scheduler, encoding  backend, encode
num_clusters              cluster assigner     backend, encode
registers_per_cluster     register allocator   backend, encode
functional_units          isel, scheduler      backend, encode
latency_overrides         isel, scheduler      backend, encode
intercluster_latency      cluster assigner     backend, encode
custom_ops (name/arity/   isel, encoding       backend, encode
latency)
syllable_bits             code-size model      backend, encode
compressed_encoding       code-size model      backend, encode
name, notes               reports only         none (rebound on reuse)
clock_ns                  timing models        none
branch_penalty            timing models        none
icache, dcache            cache simulators     none
custom op area_kgates,    area/energy models   none
fused_ops
======================== ==================== ==========================

"Rebound on reuse" means a cached back-half artifact compiled for machine
A is handed to a request for machine B (equal backend axes) as a shallow
copy whose ``machine`` reference — the one the simulators read clock,
branch-penalty and cache geometry from — is B, so timing and energy are
always computed from the requesting machine.
"""

from __future__ import annotations

import hashlib

from ..arch.machine import MachineDescription

#: bump when any stage's output format or semantics change incompatibly.
PIPELINE_SCHEMA = 1

#: bump when the KernelTrace format or capture semantics change
#: incompatibly (part of the trace stage's key, so persisted traces from
#: an older schema can never be served after a bump).
TRACE_SCHEMA = 1

#: bump when the native engine's rendered C / runtime contract changes
#: incompatibly (part of the native stage's key, so persisted shared
#: objects from an older schema can never be loaded after a bump).
NATIVE_SCHEMA = 1


def _digest(*parts: object) -> str:
    """SHA-256 hex digest over a canonical joining of ``parts``."""
    text = "\x1f".join(str(p) for p in parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def source_fingerprint(source: str, name: str = "module") -> str:
    """Key of the ``frontend`` stage: the C source text and module name."""
    return _digest("frontend", PIPELINE_SCHEMA, name, source)


def spec_fingerprint(family: str, canonical: str) -> str:
    """Content key of a synthetic :class:`~repro.gen.WorkloadSpec`.

    ``canonical`` is the spec's canonical serialized form (sorted-key
    JSON); the digest shares the pipeline schema version so regenerating
    a population after a semantics-changing pipeline bump produces fresh
    keys everywhere at once.
    """
    return _digest("workload-spec", PIPELINE_SCHEMA, family, canonical)


def opt_fingerprint(frontend_key: str, opt_level: int, unroll_factor: int) -> str:
    """Key of the ``optimize`` stage: front-end output + opt configuration."""
    return _digest("optimize", PIPELINE_SCHEMA, frontend_key, opt_level,
                   unroll_factor)


def machine_backend_fingerprint(machine: MachineDescription) -> str:
    """Hash of the machine axes the back half of the pipeline reads.

    Two machines with equal backend fingerprints compile any module to
    bit-identical scheduled code and binaries (see the axis table in the
    module docstring); everything else about them — name, clock, caches,
    branch penalty, energy/area parameters — may differ freely.
    """
    units = ";".join(
        f"{fu.name}:{','.join(sorted(c.value for c in fu.classes))}:{fu.count}"
        for fu in machine.functional_units
    )
    latencies = ";".join(
        f"{c.value}={machine.latency_overrides[c]}"
        for c in sorted(machine.latency_overrides, key=lambda c: c.value)
    )
    custom = ";".join(
        f"{op.name}:{op.num_inputs}:{op.num_outputs}:{op.latency}"
        for op in (machine.custom_ops[n] for n in sorted(machine.custom_ops))
    )
    return _digest(
        "machine", PIPELINE_SCHEMA,
        machine.issue_width, machine.num_clusters,
        machine.registers_per_cluster, units, latencies,
        machine.intercluster_latency, custom,
        machine.syllable_bits, machine.compressed_encoding,
    )


def backend_fingerprint(module_fp: str, machine: MachineDescription) -> str:
    """Key of the ``backend`` stage: structural IR hash × backend axes."""
    return _digest("backend", PIPELINE_SCHEMA, module_fp,
                   machine_backend_fingerprint(machine))


def trace_fingerprint(module_fp: str, entry: str, args_key: str) -> str:
    """Key of the ``trace`` stage: structural IR hash × entry × arguments.

    Entirely machine independent — one profiled run serves every design
    point of a sweep (the retiming model re-prices it per machine).
    """
    return _digest("trace", PIPELINE_SCHEMA, TRACE_SCHEMA, module_fp, entry,
                   args_key)


def encode_fingerprint(backend_key: str) -> str:
    """Key of the ``encode`` stage (fully determined by the backend key)."""
    return _digest("encode", PIPELINE_SCHEMA, backend_key)


def native_fingerprint(module_fp: str, abi_id: str) -> str:
    """Key of the ``native`` stage: structural IR hash × toolchain ABI.

    ``abi_id`` comes from :meth:`repro.exec.native.NativeToolchain.abi_id`
    and covers the compiler identity/version, flags, platform and the
    renderer schema, so a shared :class:`DiskArtifactStore` never serves a
    ``.so`` built by an incompatible toolchain.
    """
    return _digest("native", PIPELINE_SCHEMA, NATIVE_SCHEMA, module_fp,
                   abi_id)
