"""Machine-independent kernel traces: the profile-once artifact.

A :class:`KernelTrace` is everything the analytic retiming model needs to
price *any* machine for one (kernel, arguments) pair without re-running a
simulator: per-basic-block execution counts, dynamic opcode/call/branch
statistics, the scalar memory-access footprint (the exact address stream
of the run, machine-independent because simulated memory layout is
deterministic), and the run's oracle output.  It is captured once per
(module, arguments) by :func:`capture_trace` — a single run of the fast
threaded-code engine under a recording memory — and stored through the
:class:`~repro.pipeline.store.ArtifactStore` as a new, serializable,
fingerprinted pipeline stage on the machine-independent side of the
boundary.

Layout compatibility with the cycle simulator: both engines load the
program through :class:`~repro.sim.memory.ProgramImage`, which places
the globals, the spill area and the lowered arguments the same way on
every engine.  Addresses recorded here are therefore exactly the
addresses the cycle simulator's d-cache sees for every machine.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from ..exec.cache import module_fingerprint
from ..exec.engine import CompiledSimulator
from ..ir import Module
from ..pipeline.fingerprints import TRACE_SCHEMA
from ..sim.functional import ExecutionProfile
from ..workloads.kernels import copy_run_args


@dataclass
class KernelTrace:
    """One profiled execution, reduced to machine-independent statistics.

    Field names shadow :class:`~repro.sim.functional.ExecutionProfile`
    where they mean the same thing, so a trace can be handed to any code
    that reduces a dynamic profile over a static schedule.
    """

    #: content fingerprint: module structure × entry × argument recipe.
    fingerprint: str = ""
    entry: str = ""
    schema_version: int = TRACE_SCHEMA
    #: the run's return value — the oracle output at every fidelity.
    value: object = None
    instructions_executed: int = 0
    opcode_counts: Dict[str, int] = field(default_factory=dict)
    block_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    call_counts: Dict[str, int] = field(default_factory=dict)
    loads: int = 0
    stores: int = 0
    branches: int = 0
    taken_branches: int = 0
    #: scalar load/store addresses in execution order (the d-cache stream).
    memory_accesses: List[int] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        """JSON-representable form (lossless for int-valued kernels)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "KernelTrace":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in dict(data).items() if k in known})

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "KernelTrace":
        return cls.from_dict(json.loads(text))


class TracingMemory:
    """Proxy over a :class:`~repro.sim.memory.Memory` recording accesses.

    Scalar ``load``/``store`` addresses are appended to ``accesses``
    while ``recording`` is on; everything else (allocation, bulk array
    transfer during argument lowering/write-back) passes through
    unrecorded, mirroring what the cycle simulator's d-cache observes.
    """

    def __init__(self, base) -> None:
        self._base = base
        self.accesses: List[int] = []
        self.recording = False

    def load(self, address, type_):
        if self.recording:
            self.accesses.append(int(address))
        return self._base.load(address, type_)

    def store(self, address, value, type_):
        if self.recording:
            self.accesses.append(int(address))
        self._base.store(address, value, type_)

    def __getattr__(self, name):
        return getattr(self._base, name)


class _TracingSimulator(CompiledSimulator):
    """Threaded-code engine whose memory records the access stream.

    Recording is enabled only inside the outermost call, so argument
    lowering and write-backs (which the cycle simulator performs with
    bulk copies, not d-cache accesses) never pollute the stream.
    """

    def __init__(self, module: Module, **kwargs) -> None:
        super().__init__(module, **kwargs)
        self.memory = TracingMemory(self.memory)

    def _call(self, function, args):
        memory = self.memory
        outermost = not memory.recording
        memory.recording = True
        try:
            return super()._call(function, args)
        finally:
            if outermost:
                memory.recording = False


def trace_args_key(args) -> str:
    """Content digest of an argument tuple (lists/tuples canonicalized,
    so semantically equal argument spellings share one trace)."""
    canonical = tuple(list(a) if isinstance(a, (list, tuple)) else a
                      for a in args)
    return hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()


def capture_trace(module: Module, entry: str, args,
                  memory_size: int = 1 << 20,
                  max_steps: int = 50_000_000) -> KernelTrace:
    """Profile one run of ``entry`` and reduce it to a :class:`KernelTrace`.

    The run uses the compiled (threaded-code) engine, which is
    bit-identical to the reference interpreter, so ``value`` doubles as
    the functional-simulation oracle output.  ``args`` are copied before
    the run; callers keep their originals.
    """
    from ..obs import global_tracer

    with global_tracer().span("model.capture_trace", entry=entry) as span:
        simulator = _TracingSimulator(module, memory_size=memory_size,
                                      max_steps=max_steps)
        value = simulator.run(entry, *copy_run_args(args))
        profile: ExecutionProfile = simulator.profile
        span.note(instructions=profile.instructions_executed,
                  accesses=len(simulator.memory.accesses))
    from ..pipeline.fingerprints import trace_fingerprint

    return KernelTrace(
        fingerprint=trace_fingerprint(module_fingerprint(module), entry,
                                      trace_args_key(args)),
        entry=entry,
        value=value,
        instructions_executed=profile.instructions_executed,
        opcode_counts=dict(profile.opcode_counts),
        block_counts={name: dict(counts)
                      for name, counts in profile.block_counts.items()},
        call_counts=dict(profile.call_counts),
        loads=profile.loads,
        stores=profile.stores,
        branches=profile.branches,
        taken_branches=profile.taken_branches,
        memory_accesses=list(simulator.memory.accesses),
    )
