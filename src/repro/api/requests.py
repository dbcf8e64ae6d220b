"""Versioned, JSON-round-trippable service requests and responses.

This module is the wire format of the :mod:`repro.api` façade — the
"design house submits a workload, gets back a machine and numbers"
interface of Fisher's customization-as-a-service vision.  Everything a
client can ask for is one of seven request dataclasses (compile, run,
customize, explore, matrix, population, app), deliberately primitive-typed so
that requests serialize to JSON, travel across processes, and replay
bit-identically:

* machines are referenced by preset name (``"vliw4"``,
  ``"risc_baseline"``) or by a design-point mapping
  (``{"issue_width": 4, "registers": 64}``) — never by live objects;
* every message carries ``kind`` and ``schema_version``;
  :func:`request_from_dict` / :func:`response_from_dict` dispatch on the
  former and refuse versions newer than they understand;
* responses carry a :class:`Provenance` record: the session that served
  the request, the engine used, elapsed wall-clock, per-stage cache
  records (fingerprint, hit/miss, seconds) and a cache-statistics
  snapshot.

Unknown keys in an incoming message are ignored (forward compatibility
within a schema version); a ``kind`` mismatch or an unsupported
``schema_version`` raises :class:`SchemaError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import ClassVar, Dict, List, Mapping, Optional, Union

from ..arch.machine import MachineDescription
from ..arch.presets import PRESETS, get_preset
from ..dse.explorer import OBJECTIVES
from ..dse.space import DesignPoint, DesignSpace
from ..exec.registry import FIDELITY_LEVELS, FUNCTIONAL_ENGINES
from ..gen.application import APP_TOPOLOGIES
from ..gen.spec import FAMILIES

#: version of the request/response wire format; bump on breaking change.
SCHEMA_VERSION = 1

#: exploration strategies :class:`ExploreRequest` may name.
STRATEGIES = ("exhaustive", "greedy", "annealing")

#: engines :class:`RunRequest` may name: the cycle-accurate simulator or
#: either functional engine.
RUN_ENGINES = ("cycle",) + FUNCTIONAL_ENGINES

#: function-style preset aliases accepted wherever a machine is named
#: (``repro.arch.presets`` registers presets under their table names).
PRESET_ALIASES: Dict[str, str] = {
    "risc_baseline": "risc32",
    "clustered_vliw4": "vliw4c2",
    "dsp_core": "dsp16",
    "mass_market_superscalar": "massmkt",
}

#: DesignSpace axis names an ExploreRequest's ``space`` mapping may set.
SPACE_AXES = tuple(f.name for f in fields(DesignSpace))


class SchemaError(ValueError):
    """An incoming message has the wrong kind or an unsupported version."""


def resolve_machine(spec) -> MachineDescription:
    """Turn a serializable machine reference into a machine description.

    Accepts a preset name (including the :data:`PRESET_ALIASES`
    function-style spellings), a mapping of
    :class:`~repro.dse.space.DesignPoint` axes, or — for programmatic
    callers that bypass serialization — a ready
    :class:`MachineDescription`, returned unchanged.
    """
    if isinstance(spec, MachineDescription):
        return spec
    if isinstance(spec, str):
        return get_preset(PRESET_ALIASES.get(spec, spec))
    if isinstance(spec, Mapping):
        return DesignPoint(**dict(spec)).to_machine()
    raise TypeError(
        f"cannot resolve a machine from {type(spec).__name__}; pass a "
        f"preset name ({', '.join(sorted(PRESETS))}), a design-point "
        f"mapping, or a MachineDescription"
    )


#: leaf types _plain returns as they are, matched by exact type (so an
#: enum or other subclass still takes the general path).
_PLAIN_LEAVES = frozenset((type(None), str, int, float, bool))


def _plain(value):
    """Recursively reduce a message field to JSON-representable data."""
    # Exact-type fast paths first: nearly every field is one of these,
    # and the hasattr/Mapping checks below cost about a microsecond.
    kind = type(value)
    if kind in _PLAIN_LEAVES:
        return value
    if kind is dict:
        return {key: _plain(item) for key, item in value.items()}
    if kind is list:
        return [_plain(item) for item in value]
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, Mapping):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


@dataclass
class Provenance:
    """How a response was produced (attached to every response).

    ``stages`` holds the staged-compilation records of the build(s) that
    served the request — each entry is ``{stage, key, hit, seconds}``
    with ``key`` the stage's content fingerprint; ``cache`` is a
    per-stage hit/miss/timing snapshot of the session's artifact store
    (plus the batch-evaluation counters where a request fanned out).
    """

    session: str = ""
    engine: str = ""
    #: which timing model produced the response's numbers: "cycle",
    #: "trace", or "trace+rescore" (screened then frontier re-scored).
    fidelity: str = "cycle"
    schema_version: int = SCHEMA_VERSION
    elapsed_s: float = 0.0
    stages: List[Dict[str, object]] = field(default_factory=list)
    cache: Dict[str, object] = field(default_factory=dict)
    #: id of the service worker that produced the response ("" when the
    #: request ran in-process rather than through a daemon's pool).
    worker: str = ""
    #: id of the stitched trace that produced this response ("" when the
    #: request ran with tracing off); feed it to ``python -m repro
    #: inspect`` to see the waterfall.
    trace_id: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "session": self.session, "engine": self.engine,
            "fidelity": self.fidelity,
            "schema_version": self.schema_version,
            "elapsed_s": self.elapsed_s,
            "stages": [dict(record) for record in self.stages],
            "cache": _plain(self.cache),
            "worker": self.worker,
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Provenance":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in dict(data).items() if k in known})


class Message:
    """Shared (de)serialization for requests and responses.

    Subclasses are dataclasses with a ``kind`` class attribute; the dict
    form is the dataclass fields plus ``kind`` and ``schema_version``.
    """

    kind: ClassVar[str] = ""

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "kind": self.kind, "schema_version": SCHEMA_VERSION,
        }
        for f in fields(self):
            data[f.name] = _plain(getattr(self, f.name))
        return data

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]):
        payload = dict(data)
        kind = payload.pop("kind", cls.kind)
        if kind != cls.kind:
            raise SchemaError(
                f"kind mismatch: expected '{cls.kind}', got '{kind}'")
        version = payload.pop("schema_version", SCHEMA_VERSION)
        if not isinstance(version, int) or not 1 <= version <= SCHEMA_VERSION:
            raise SchemaError(
                f"unsupported schema_version {version!r} for '{cls.kind}' "
                f"(this build understands 1..{SCHEMA_VERSION})")
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in payload.items() if k in known}
        if isinstance(kwargs.get("provenance"), Mapping):
            kwargs["provenance"] = Provenance.from_dict(kwargs["provenance"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))


#: kind -> request class (filled by the decorators below).
REQUEST_TYPES: Dict[str, type] = {}
#: kind -> response class.
RESPONSE_TYPES: Dict[str, type] = {}


def _register_request(cls):
    REQUEST_TYPES[cls.kind] = cls
    return cls


def _register_response(cls):
    RESPONSE_TYPES[cls.kind] = cls
    return cls


def request_from_dict(data: Mapping[str, object]):
    """Dispatch a request dict to its dataclass by ``kind``."""
    kind = data.get("kind")
    try:
        cls = REQUEST_TYPES[kind]
    except KeyError:
        raise SchemaError(
            f"unknown request kind {kind!r}; known: "
            f"{', '.join(sorted(REQUEST_TYPES))}") from None
    return cls.from_dict(data)


def request_from_json(text: str):
    return request_from_dict(json.loads(text))


def response_from_dict(data: Mapping[str, object]):
    """Dispatch a response dict to its dataclass by ``kind``."""
    kind = data.get("kind")
    try:
        cls = RESPONSE_TYPES[kind]
    except KeyError:
        raise SchemaError(
            f"unknown response kind {kind!r}; known: "
            f"{', '.join(sorted(RESPONSE_TYPES))}") from None
    return cls.from_dict(data)


def response_from_json(text: str):
    return response_from_dict(json.loads(text))


def _check_machine(machine) -> None:
    if not isinstance(machine, (str, Mapping)):
        raise ValueError(
            "request machines must be serializable: a preset name or a "
            "design-point mapping (use Session.toolchain for live "
            "MachineDescription objects)")


def _check_engine(engine, options, what: str) -> None:
    if engine is not None and engine not in options:
        raise ValueError(
            f"unknown {what} engine '{engine}'; options: {', '.join(options)}")


# ----------------------------------------------------------------------
# Requests.
# ----------------------------------------------------------------------

@_register_request
@dataclass
class CompileRequest(Message):
    """Compile one workload (a registry kernel or raw C) for a machine.

    Fields left ``None`` fall back to the serving session's defaults.
    """

    kind: ClassVar[str] = "compile"

    kernel: Optional[str] = None
    source: Optional[str] = None
    name: Optional[str] = None
    machine: Union[str, Dict[str, object]] = "vliw4"
    opt_level: Optional[int] = None
    unroll_factor: Optional[int] = None

    def __post_init__(self) -> None:
        if bool(self.kernel) == bool(self.source):
            raise ValueError(
                "CompileRequest needs exactly one of 'kernel' (a registry "
                "name) or 'source' (C text)")
        _check_machine(self.machine)


@_register_request
@dataclass
class RunRequest(Message):
    """Compile and execute one registry kernel, checked against its oracle."""

    kind: ClassVar[str] = "run"

    kernel: str = ""
    machine: Union[str, Dict[str, object]] = "vliw4"
    size: Optional[int] = None
    seed: Optional[int] = None
    opt_level: Optional[int] = None
    #: "cycle" (cycle-accurate, the default) or a functional engine
    #: ("interpreter" / "compiled" / "native": value + instruction
    #: counts only).
    engine: str = "cycle"
    #: run the kernel over N argument sets (seeds ``seed..seed+N-1``)
    #: through :func:`repro.exec.run_batch` instead of one execution;
    #: functional engines only.
    batch: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.kernel:
            raise ValueError("RunRequest needs a kernel name")
        _check_machine(self.machine)
        _check_engine(self.engine, RUN_ENGINES, "run")
        if self.batch is not None:
            if isinstance(self.batch, bool) or not isinstance(self.batch,
                                                              int):
                raise ValueError(
                    f"RunRequest batch must be an integer, got "
                    f"{self.batch!r}")
            if self.batch < 1:
                raise ValueError("RunRequest batch must be at least 1")
            if self.engine == "cycle":
                raise ValueError(
                    "batched runs use the functional engines; pass "
                    f"engine= one of {', '.join(FUNCTIONAL_ENGINES)}")


@_register_request
@dataclass
class CustomizeRequest(Message):
    """Derive a custom family member for one kernel and measure the gain."""

    kind: ClassVar[str] = "customize"

    kernel: str = ""
    machine: Union[str, Dict[str, object]] = "vliw4"
    area_budget_kgates: float = 40.0
    max_operations: int = 8
    size: Optional[int] = None
    seed: Optional[int] = None
    opt_level: Optional[int] = None
    #: name for the customized machine (derived from the base if None).
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.kernel:
            raise ValueError("CustomizeRequest needs a kernel name")
        _check_machine(self.machine)
        if self.area_budget_kgates <= 0:
            raise ValueError(
                f"infeasible area budget {self.area_budget_kgates!r}: "
                f"customization needs a positive kgate budget")
        if self.max_operations < 1:
            raise ValueError("max_operations must be at least 1")


@_register_request
@dataclass
class ExploreRequest(Message):
    """Search a design space for the best fit to a workload mix."""

    kind: ClassVar[str] = "explore"

    mix: str = "video"
    strategy: str = "exhaustive"
    objective: str = "perf_per_area"
    size: Optional[int] = None
    seed: Optional[int] = None
    opt_level: Optional[int] = None
    #: selects nothing: ``fidelity`` is the one timing axis.  Accepted
    #: for wire compatibility (any of :data:`RUN_ENGINES`); the response
    #: reports the engine that ran.
    engine: Optional[str] = None
    #: timing-model fidelity: "cycle" or "trace" (session default if None).
    fidelity: Optional[str] = None
    #: screen at trace fidelity and re-score the Pareto frontier at cycle
    #: fidelity (forces trace-fidelity screening regardless of ``fidelity``).
    rescore: bool = False
    #: DesignSpace axes (e.g. {"issue_widths": [1, 2, 4]}); the small
    #: preset space when None.
    space: Optional[Dict[str, List[object]]] = None
    #: RNG seed of the stochastic strategies (Explorer default if None).
    search_seed: Optional[int] = None
    iterations: int = 40
    max_rounds: int = 4
    #: process-pool width for the batched fan-out (session default if None).
    workers: Optional[int] = None
    #: explore for an *application mix* instead of a kernel mix: either a
    #: serialized :class:`~repro.dse.app.ApplicationMix` dict (``{"name",
    #: "apps"}``) or a single :class:`~repro.app.ApplicationSpec` dict
    #: (``{"name", "nodes", ...}``), wrapped in a one-app mix.  ``mix``
    #: is ignored when set; real-time objectives (``deadline_miss_rate``,
    #: ``p99_latency``, ``energy_per_window``) need it.
    application: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy '{self.strategy}'; options: "
                f"{', '.join(STRATEGIES)}")
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective '{self.objective}'; options: "
                f"{', '.join(OBJECTIVES)}")
        _check_engine(self.engine, RUN_ENGINES, "evaluation")
        _check_engine(self.fidelity, FIDELITY_LEVELS, "fidelity")
        if self.space is not None:
            unknown = set(self.space) - set(SPACE_AXES)
            if unknown:
                raise ValueError(
                    f"unknown design-space axes {sorted(unknown)}; "
                    f"options: {', '.join(SPACE_AXES)}")
        if self.application is not None:
            if not isinstance(self.application, Mapping):
                raise ValueError(
                    "ExploreRequest application must be a serialized "
                    "ApplicationMix or ApplicationSpec mapping")
            if "apps" not in self.application \
                    and "nodes" not in self.application:
                raise ValueError(
                    "ExploreRequest application mapping needs 'apps' (an "
                    "ApplicationMix) or 'nodes' (a single ApplicationSpec)")


@_register_request
@dataclass
class MatrixRequest(Message):
    """Run the N×M validation matrix over named machines and kernels."""

    kind: ClassVar[str] = "matrix"

    machines: List[Union[str, Dict[str, object]]] = field(
        default_factory=lambda: ["vliw4", "risc32"])
    kernels: Optional[List[str]] = None
    size: Optional[int] = None
    seed: Optional[int] = None
    opt_level: Optional[int] = None
    #: functional cross-check engine (session default if None).
    engine: Optional[str] = None
    #: timing-model fidelity: "cycle" or "trace" (session default if None).
    fidelity: Optional[str] = None

    def __post_init__(self) -> None:
        self.machines = list(self.machines)
        if not self.machines:
            raise ValueError("MatrixRequest needs at least one machine")
        for machine in self.machines:
            _check_machine(machine)
        if self.kernels is not None:
            self.kernels = list(self.kernels)
        _check_engine(self.engine, FUNCTIONAL_ENGINES, "functional")
        _check_engine(self.fidelity, FIDELITY_LEVELS, "fidelity")


@_register_request
@dataclass
class PopulationRequest(Message):
    """Generate a synthetic workload population, validate and sweep it."""

    kind: ClassVar[str] = "population"

    count: int = 10
    seed: int = 0
    families: Optional[List[str]] = None
    budget_kgates: float = 32.0
    #: selects nothing: the gain sweep runs the cycle simulator.
    #: Accepted for wire compatibility (any of :data:`RUN_ENGINES`).
    engine: str = "compiled"
    size: Optional[int] = None
    opt_level: Optional[int] = None
    kernels_per_family: int = 3
    #: run the dual-engine bit-identical validation pass.
    validate_population: bool = True
    #: process-pool width for the gain sweep (session default if None).
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("population count must be at least 1")
        if self.families is not None:
            self.families = list(self.families)
            unknown = set(self.families) - set(FAMILIES)
            if unknown:
                raise ValueError(
                    f"unknown families {sorted(unknown)}; options: "
                    f"{', '.join(FAMILIES)}")
        _check_engine(self.engine, RUN_ENGINES, "evaluation")
        if self.kernels_per_family < 1:
            raise ValueError("kernels_per_family must be at least 1")


@_register_request
@dataclass
class AppRequest(Message):
    """Run one multi-kernel dataflow application window by window.

    The application comes in one of two ways: a serialized
    :class:`~repro.app.ApplicationSpec` mapping (``application``), or a
    generator recipe (``topology`` + ``app_seed``) that the session
    expands through :func:`repro.gen.sample_application`.  The
    ``windows`` / ``period_us`` / ``deadline_us`` fields override the
    spec's window stream either way (None keeps the spec's own values).
    """

    kind: ClassVar[str] = "app"

    #: serialized ApplicationSpec (exactly one of this and ``topology``).
    application: Optional[Dict[str, object]] = None
    #: generator topology ("chain", "fan_in", "diamond").
    topology: Optional[str] = None
    #: generator seed for the ``topology`` recipe.
    app_seed: int = 0
    machine: Union[str, Dict[str, object]] = "vliw4"
    #: functional engine node windows execute on.
    engine: str = "compiled"
    #: "cycle" executes every window; "trace" prices each node once and
    #: re-aggregates the graph analytically.
    fidelity: str = "cycle"
    opt_level: Optional[int] = None
    windows: Optional[int] = None
    period_us: Optional[float] = None
    deadline_us: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.application is None) == (self.topology is None):
            raise ValueError(
                "AppRequest needs exactly one of 'application' (a "
                "serialized ApplicationSpec) or 'topology' (a generator "
                f"recipe: {', '.join(APP_TOPOLOGIES)})")
        if self.application is not None \
                and not isinstance(self.application, Mapping):
            raise ValueError(
                "AppRequest application must be a serialized "
                "ApplicationSpec mapping")
        if self.topology is not None and self.topology not in APP_TOPOLOGIES:
            raise ValueError(
                f"unknown topology '{self.topology}'; options: "
                f"{', '.join(APP_TOPOLOGIES)}")
        _check_machine(self.machine)
        _check_engine(self.engine, FUNCTIONAL_ENGINES, "functional")
        _check_engine(self.fidelity, FIDELITY_LEVELS, "fidelity")
        if self.windows is not None and self.windows < 1:
            raise ValueError("AppRequest windows must be at least 1")


# ----------------------------------------------------------------------
# Responses.
# ----------------------------------------------------------------------

@_register_response
@dataclass
class CompileResponse(Message):
    """What one compile produced (artifacts stay in the session store)."""

    kind: ClassVar[str] = "compile.response"

    module: str = ""
    machine: str = ""
    #: content key of the scheduled-code artifact in the session store.
    backend_key: str = ""
    functions: int = 0
    code_bytes: int = 0
    spilled_registers: int = 0
    assembly: str = ""
    provenance: Optional[Provenance] = None


@_register_response
@dataclass
class RunResponse(Message):
    kind: ClassVar[str] = "run.response"

    kernel: str = ""
    machine: str = ""
    engine: str = ""
    correct: bool = False
    value: object = None
    expected: object = None
    cycles: int = 0
    time_us: float = 0.0
    energy_uj: float = 0.0
    ipc: float = 0.0
    instructions: int = 0
    #: batched runs: how many argument sets ran (0 = single run), which
    #: engine actually executed them ("native", "compiled" or
    #: "interpreter"; "native" falls back to "compiled" without a C
    #: compiler), and the per-set values.
    batch: int = 0
    batch_engine: str = ""
    values: List[object] = field(default_factory=list)
    provenance: Optional[Provenance] = None


@_register_response
@dataclass
class CustomizeResponse(Message):
    kind: ClassVar[str] = "customize.response"

    kernel: str = ""
    base_machine: str = ""
    custom_machine: str = ""
    selected_ops: List[str] = field(default_factory=list)
    area_added_kgates: float = 0.0
    base_cycles: int = 0
    custom_cycles: int = 0
    speedup: float = 0.0
    correct: bool = False
    summary: str = ""
    provenance: Optional[Provenance] = None


@_register_response
@dataclass
class ExploreResponse(Message):
    kind: ClassVar[str] = "explore.response"

    mix: str = ""
    strategy: str = ""
    objective: str = ""
    engine: str = ""
    fidelity: str = "cycle"
    points_evaluated: int = 0
    best: Optional[Dict[str, object]] = None
    knee: Optional[Dict[str, object]] = None
    pareto: List[str] = field(default_factory=list)
    rows: List[Dict[str, object]] = field(default_factory=list)
    provenance: Optional[Provenance] = None


@_register_response
@dataclass
class MatrixResponse(Message):
    kind: ClassVar[str] = "matrix.response"

    machines: List[str] = field(default_factory=list)
    kernels: List[str] = field(default_factory=list)
    engine: str = ""
    fidelity: str = "cycle"
    pass_rate: float = 0.0
    all_correct: bool = False
    rows: List[Dict[str, object]] = field(default_factory=list)
    failures: List[Dict[str, object]] = field(default_factory=list)
    provenance: Optional[Provenance] = None


@_register_response
@dataclass
class PopulationResponse(Message):
    kind: ClassVar[str] = "population.response"

    count: int = 0
    seed: int = 0
    families: List[str] = field(default_factory=list)
    #: kernels that validated bit-identically on both engines
    #: (None when validation was skipped).
    valid: Optional[int] = None
    report: Dict[str, object] = field(default_factory=dict)
    provenance: Optional[Provenance] = None


@_register_response
@dataclass
class AppResponse(Message):
    kind: ClassVar[str] = "app.response"

    application: str = ""
    #: content fingerprint of the application spec that ran.
    fingerprint: str = ""
    machine: str = ""
    engine: str = ""
    fidelity: str = "cycle"
    windows: int = 0
    #: every node of every window matched the composed Python oracle.
    correct: bool = False
    deadline_miss_rate: float = 0.0
    p50_latency_us: float = 0.0
    p95_latency_us: float = 0.0
    p99_latency_us: float = 0.0
    jitter_us: float = 0.0
    energy_per_window_uj: float = 0.0
    period_us: float = 0.0
    deadline_us: float = 0.0
    window_latencies_us: List[float] = field(default_factory=list)
    #: per-node totals (kernel, family, cycles, energy, code bytes).
    nodes: List[Dict[str, object]] = field(default_factory=list)
    provenance: Optional[Provenance] = None
