"""The session-scoped service façade: one front door to the whole stack.

A :class:`Session` owns everything that used to be process-global state:
the content-addressed :class:`~repro.pipeline.store.ArtifactStore`, the
staged :class:`~repro.pipeline.compile.CompilePipeline` built on it, the
default execution engines (resolved through
:mod:`repro.exec.registry`), and the default optimization level, seeds
and fan-out width.  Two sessions never share artifact stores, so a
server can isolate tenants (or a test can isolate cases) by giving each
its own session.

Work enters a session one of three ways:

* **objects** — :meth:`toolchain` / :meth:`evaluator` / :meth:`explorer`
  hand back the classic driver objects pre-bound to the session's
  pipeline and defaults;
* **requests** — :meth:`execute` takes one of the serializable request
  dataclasses of :mod:`repro.api.requests` and returns the matching
  provenance-carrying response;
* **jobs** — :meth:`submit` wraps :meth:`execute` in a future-backed
  :class:`~repro.api.jobs.Job`; :meth:`run_batch` submits a mixed
  request list and collects the responses in order.  Design-space
  requests additionally fan out over the
  :class:`~repro.exec.batch.BatchEvaluator` process pool
  (``workers``).

A process-wide **default session** (:func:`default_session`) keeps the
pre-session API working: ``Toolchain()``, ``run_matrix()``,
``Evaluator()`` and friends fall back to its pipeline when none is
injected.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from typing import Dict, List, Optional, Sequence, Union

from ..exec.registry import validate_engine
from ..obs import (
    ObsJournal, default_journal_path, global_tracer, metrics_enabled,
    obs_override, validate_obs_mode,
)
from ..obs.metrics import MetricsRegistry
from ..pipeline.compile import CompilePipeline
from ..pipeline.store import ArtifactStore
from .jobs import Job
from .requests import (
    AppRequest, AppResponse, CompileRequest, CompileResponse,
    CustomizeRequest, CustomizeResponse, ExploreRequest, ExploreResponse,
    MatrixRequest, MatrixResponse, PopulationRequest, PopulationResponse,
    Provenance, RunRequest, RunResponse, resolve_machine,
)

#: monotonically numbers anonymous sessions for provenance labels.
_SESSION_COUNTER = itertools.count(1)

#: env knob: per-request delay in seconds before the handler runs —
#: the in-process sibling of ``REPRO_SERVICE_TASK_DELAY_S``, giving the
#: regression-gate self-tests a deterministic way to inject a slowdown
#: that must trip the perf band.
SESSION_DELAY_ENV = "REPRO_SESSION_DELAY_S"


def _run_args(args: tuple) -> tuple:
    """Fresh per-run copies so simulator write-backs never alias."""
    from ..workloads.kernels import copy_run_args

    return copy_run_args(args)


class Session:
    """Scoped service state: artifact store, pipeline, engines, defaults."""

    def __init__(self, name: Optional[str] = None, *,
                 pipeline: Optional[CompilePipeline] = None,
                 store: Optional[ArtifactStore] = None,
                 engine: Optional[str] = None,
                 evaluation_engine: str = "cycle",
                 fidelity: str = "cycle",
                 opt_level: int = 2, unroll_factor: int = 4,
                 seed: int = 1234, size: Optional[int] = None,
                 workers: int = 0,
                 obs: Optional[str] = None,
                 journal: Optional[Union[str, ObsJournal]] = None) -> None:
        if engine is None:
            # The env var lets compiler-equipped hosts opt whole script
            # runs and service daemons into the native tier without
            # touching call sites; see the README engine matrix.
            engine = os.environ.get("REPRO_ENGINE") or "interpreter"
        validate_engine(engine, "functional")
        validate_engine(evaluation_engine, "evaluation")
        validate_engine(fidelity, "fidelity")
        if pipeline is not None:
            if store is not None and store is not pipeline.store:
                raise ValueError(
                    "pass either a pipeline or a store, not two different "
                    "ones: the session's store is its pipeline's store")
            self.pipeline = pipeline
        else:
            self.pipeline = CompilePipeline(
                store if store is not None else ArtifactStore())
        #: compile artifacts, native ``.so`` bytes and threaded-code
        #: translations (stage ``exec.code``) of this session.
        self.store = self.pipeline.store
        self.name = name or f"session-{next(_SESSION_COUNTER)}"
        #: default functional engine (run_reference, matrix cross-checks).
        self.engine = engine
        #: default Evaluator measurement engine for design-space work.
        self.evaluation_engine = evaluation_engine
        #: default timing-model fidelity ("cycle" simulates every design
        #: point; "trace" profiles once and retimes analytically).
        self.fidelity = fidelity
        self.opt_level = opt_level
        self.unroll_factor = unroll_factor
        self.seed = seed
        self.size = size
        #: process-pool width for batched design-point fan-out.
        self.workers = workers
        #: per-session observability mode override (None: env/global mode,
        #: see :mod:`repro.obs`); applied around every :meth:`execute`.
        self.obs = validate_obs_mode(obs) if obs is not None else None
        if journal is None:
            journal = default_journal_path()
        #: where this session's run manifests go (None: no journal).
        self.journal: Optional[ObsJournal] = (
            journal if isinstance(journal, ObsJournal) or journal is None
            else ObsJournal(str(journal)))
        #: the session's metrics registry — the same one its store counts
        #: into, so cache counters and request metrics export together.
        self.registry: MetricsRegistry = getattr(
            self.store, "registry", None) or MetricsRegistry()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._jobs: List[Job] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Defaults plumbing.
    # ------------------------------------------------------------------
    def _opt(self, value: Optional[int]) -> int:
        return self.opt_level if value is None else value

    def _unroll(self, value: Optional[int]) -> int:
        return self.unroll_factor if value is None else value

    def _seed(self, value: Optional[int]) -> int:
        return self.seed if value is None else value

    def _size(self, value: Optional[int]) -> Optional[int]:
        return self.size if value is None else value

    # ------------------------------------------------------------------
    # Classic driver objects, bound to this session.
    # ------------------------------------------------------------------
    def toolchain(self, machine, *, opt_level: Optional[int] = None,
                  unroll_factor: Optional[int] = None,
                  engine: Optional[str] = None):
        """A :class:`~repro.toolchain.Toolchain` on this session's pipeline."""
        from ..toolchain.driver import Toolchain

        return Toolchain(
            resolve_machine(machine), opt_level=self._opt(opt_level),
            unroll_factor=self._unroll(unroll_factor),
            engine=engine if engine is not None else self.engine,
            pipeline=self.pipeline)

    def evaluator(self, mix, *, size: Optional[int] = None,
                  opt_level: Optional[int] = None,
                  seed: Optional[int] = None,
                  engine: Optional[str] = None,
                  fidelity: Optional[str] = None):
        """A :class:`~repro.dse.Evaluator` on this session's pipeline."""
        from ..dse.objectives import Evaluator
        from ..workloads.suite import get_mix

        if isinstance(mix, str):
            mix = get_mix(mix)
        return Evaluator(
            mix, size=self._size(size), opt_level=self._opt(opt_level),
            seed=self._seed(seed),
            engine=engine if engine is not None else self.evaluation_engine,
            fidelity=fidelity if fidelity is not None else self.fidelity,
            pipeline=self.pipeline)

    def app_evaluator(self, mix, *, size: Optional[int] = None,
                      opt_level: Optional[int] = None,
                      seed: Optional[int] = None,
                      engine: Optional[str] = None,
                      fidelity: Optional[str] = None):
        """An :class:`~repro.dse.AppEvaluator` on this session's pipeline.

        ``mix`` may be an :class:`~repro.dse.ApplicationMix`, a single
        :class:`~repro.app.ApplicationSpec` (wrapped in a one-app mix),
        or the serialized mapping of either (an ``ExploreRequest``'s
        ``application`` field).
        """
        from ..app.spec import ApplicationSpec
        from ..dse.app import AppEvaluator, ApplicationMix

        if isinstance(mix, ApplicationSpec):
            mix = ApplicationMix.single(mix)
        elif not isinstance(mix, ApplicationMix):
            data = dict(mix)
            if "apps" in data:
                mix = ApplicationMix.from_dict(data)
            else:
                mix = ApplicationMix.single(ApplicationSpec.from_dict(data))
        return AppEvaluator(
            mix, size=self._size(size), opt_level=self._opt(opt_level),
            seed=self._seed(seed),
            engine=engine if engine is not None else self.evaluation_engine,
            fidelity=fidelity if fidelity is not None else self.fidelity,
            pipeline=self.pipeline)

    def batch_evaluator(self, evaluator, *, workers: Optional[int] = None):
        """A :class:`~repro.exec.BatchEvaluator` over this session's store."""
        from ..exec.batch import BatchEvaluator

        return BatchEvaluator(
            evaluator, workers=self.workers if workers is None else workers,
            store=self.store)

    def explorer(self, evaluator, *, objective: str = "perf_per_area",
                 workers: Optional[int] = None,
                 search_seed: Optional[int] = None):
        """An :class:`~repro.dse.Explorer` batching through this session."""
        from ..dse.explorer import Explorer

        batch = self.batch_evaluator(evaluator, workers=workers)
        kwargs = {} if search_seed is None else {"seed": search_seed}
        return Explorer(evaluator, objective=objective, batch=batch, **kwargs)

    # ------------------------------------------------------------------
    # Request execution.
    # ------------------------------------------------------------------
    _HANDLERS = {
        CompileRequest.kind: "_execute_compile",
        RunRequest.kind: "_execute_run",
        CustomizeRequest.kind: "_execute_customize",
        ExploreRequest.kind: "_execute_explore",
        MatrixRequest.kind: "_execute_matrix",
        PopulationRequest.kind: "_execute_population",
        AppRequest.kind: "_execute_app",
    }

    def execute(self, request):
        """Execute one request synchronously; returns its response.

        Observability wrapper around the per-kind handlers: opens the
        ``session.<kind>`` span (a new root, or a child when the caller
        — a worker, the daemon — already established trace context),
        counts the request into the session registry, stamps
        ``provenance.trace_id``, and journals a run manifest when this
        span was the root of its trace.
        """
        kind = getattr(request, "kind", None)
        handler = self._HANDLERS.get(kind)
        if handler is None:
            raise TypeError(
                f"unsupported request {type(request).__name__!r}; known "
                f"kinds: {', '.join(sorted(self._HANDLERS))}")
        delay = float(os.environ.get(SESSION_DELAY_ENV, "0") or 0.0)
        if delay > 0:
            time.sleep(delay)
        with obs_override(self.obs):
            tracer = global_tracer()
            is_root = tracer.current_context() is None
            started = time.perf_counter()
            with tracer.span(f"session.{kind}", session=self.name) as span:
                response = getattr(self, handler)(request)
                trace_id = span.trace_id
            self._observe(request, response, kind,
                          time.perf_counter() - started)
            if trace_id:
                provenance = getattr(response, "provenance", None)
                if provenance is not None and not provenance.trace_id:
                    provenance.trace_id = trace_id
                if is_root and self.journal is not None:
                    self._journal_manifest(request, response, kind, trace_id,
                                           tracer)
        return response

    def _observe(self, request, response, kind: str, elapsed: float) -> None:
        if not metrics_enabled():
            return
        labels = {"kind": kind}
        self.registry.counter(
            "session_requests", labels,
            help="requests executed by the session").inc()
        self.registry.histogram(
            "request_seconds", labels,
            help="end-to-end request latency").observe(elapsed)
        engine = getattr(getattr(response, "provenance", None), "engine", "")
        if engine:
            self.registry.histogram(
                "engine_run_seconds", {"engine": engine},
                help="request latency by executing engine").observe(elapsed)

    def _journal_manifest(self, request, response, kind: str,
                          trace_id: str, tracer) -> None:
        provenance = getattr(response, "provenance", None)
        try:
            request_dict = request.to_dict()
        except Exception:  # noqa: BLE001 - manifests are best effort
            request_dict = {"kind": kind}
        # The replay-completing sections (response digest + fingerprint,
        # env, git rev, tolerance-banded metrics) make the journal event
        # a full experiment manifest for ``python -m repro replay``.
        extra: Dict[str, object] = {}
        try:
            from ..replay.manifest import (
                capture_env, default_replay_metrics, fingerprint_of,
                git_revision, response_digest,
            )

            digest = response_digest(response)
            extra["response"] = digest
            extra["response_fingerprint"] = fingerprint_of(digest)
            extra["env"] = capture_env()
            extra["git_rev"] = git_revision()
            if provenance is not None:
                extra["replay_metrics"] = default_replay_metrics(
                    provenance.elapsed_s)
        except Exception:  # noqa: BLE001 - manifests are best effort
            extra = {}
        self.journal.manifest(
            kind=kind, trace_id=trace_id, source=f"session:{self.name}",
            request=request_dict,
            provenance=provenance.to_dict() if provenance is not None
            else None,
            spans=tracer.spans_for(trace_id),
            metrics=self.registry.snapshot(),
            extra=extra)

    def submit(self, request) -> Job:
        """Queue one request; returns a future-backed :class:`Job`."""
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=max(1, self.workers),
                    thread_name_prefix=f"{self.name}-job")
            job_id = f"{self.name}/job-{len(self._jobs) + 1}"
            future = self._executor.submit(self.execute, request)
            job = Job(job_id, request, future)
            self._jobs.append(job)
        return job

    def run_batch(self, requests: Sequence) -> List:
        """Submit a mixed request list; responses in request order.

        Any job failure propagates when its response is collected, after
        every job has been submitted.
        """
        jobs = [self.submit(request) for request in requests]
        return [job.result() for job in jobs]

    @property
    def jobs(self) -> List[Job]:
        return list(self._jobs)

    def metrics(self) -> Dict[str, object]:
        """A snapshot of the session's metrics registry.

        Covers the per-stage store counters plus the request counters
        and latency histograms; render it with
        :func:`repro.obs.render_prometheus` or merge snapshots with
        :func:`repro.obs.merge_snapshot`.
        """
        return self.registry.snapshot()

    def close(self) -> None:
        """Shut down the job executor (idempotent)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Session({self.name!r}, engine={self.engine!r}, "
                f"evaluation_engine={self.evaluation_engine!r}, "
                f"jobs={len(self._jobs)})")

    # ------------------------------------------------------------------
    # Handlers.
    # ------------------------------------------------------------------
    def _provenance(self, engine: str, started: float,
                    records=None, extra_cache: Optional[Dict] = None,
                    fidelity: str = "cycle") -> Provenance:
        cache: Dict[str, object] = {"pipeline": self.pipeline.stats()}
        if extra_cache:
            cache.update(extra_cache)
        return Provenance(
            session=self.name, engine=engine, fidelity=fidelity,
            elapsed_s=round(time.perf_counter() - started, 6),
            stages=[asdict(record) for record in (records or [])],
            cache=cache)

    def _request_kernel(self, name: str):
        from ..workloads.kernels import get_kernel

        return get_kernel(name)

    def _execute_compile(self, request: CompileRequest) -> CompileResponse:
        from ..backend.asm import render_assembly

        started = time.perf_counter()
        machine = resolve_machine(request.machine)
        if request.kernel:
            kernel = self._request_kernel(request.kernel)
            source, name = kernel.source, request.name or kernel.name
        else:
            source, name = request.source, request.name or "module"
        _module, compiled, report, backend_key = self.pipeline.build(
            source, machine, name=name, opt_level=self._opt(request.opt_level),
            unroll_factor=self._unroll(request.unroll_factor))
        return CompileResponse(
            module=name, machine=machine.name, backend_key=backend_key,
            functions=report.functions,
            code_bytes=report.code.bytes_effective if report.code else 0,
            spilled_registers=report.spilled_registers,
            assembly=render_assembly(compiled),
            provenance=self._provenance("", started, report.stages))

    def _execute_run(self, request: RunRequest) -> RunResponse:
        started = time.perf_counter()
        machine = resolve_machine(request.machine)
        kernel = self._request_kernel(request.kernel)
        size, seed = self._size(request.size), self._seed(request.seed)
        opt_level = self._opt(request.opt_level)

        if request.engine == "cycle":
            args = kernel.arguments(size, seed=seed)
            expected = kernel.expected(args)
            toolchain = self.toolchain(machine, opt_level=opt_level)
            artifacts = toolchain.build(kernel.source, name=kernel.name)
            result = toolchain.run(artifacts, kernel.entry, *_run_args(args))
            return RunResponse(
                kernel=kernel.name, machine=machine.name, engine="cycle",
                correct=result.value == expected, value=result.value,
                expected=expected, cycles=result.cycles,
                time_us=result.time_us, energy_uj=result.energy_uj,
                ipc=result.stats.ipc,
                instructions=result.stats.operations_executed,
                provenance=self._provenance("cycle", started,
                                            artifacts.report.stages))

        from ..exec.engine import make_functional_simulator, run_batch

        module, records = self.pipeline.front(
            kernel.source, kernel.name, opt_level=opt_level,
            unroll_factor=self.unroll_factor)

        if request.batch:
            arg_sets = [kernel.arguments(size, seed=seed + lane)
                        for lane in range(request.batch)]
            expected_values = [kernel.expected(arg_set)
                               for arg_set in arg_sets]
            result = run_batch(
                module, kernel.entry,
                [_run_args(arg_set) for arg_set in arg_sets],
                engine=request.engine, store=self.store)
            return RunResponse(
                kernel=kernel.name, machine=machine.name,
                engine=request.engine,
                correct=result.values == expected_values,
                value=result.values[0], expected=expected_values[0],
                instructions=sum(result.instructions),
                batch=request.batch, batch_engine=result.engine_used,
                values=result.values,
                provenance=self._provenance(request.engine, started, records))

        args = kernel.arguments(size, seed=seed)
        expected = kernel.expected(args)
        simulator = make_functional_simulator(
            module, engine=request.engine, store=self.store)
        value = simulator.run(kernel.entry, *_run_args(args))
        return RunResponse(
            kernel=kernel.name, machine=machine.name, engine=request.engine,
            correct=value == expected, value=value, expected=expected,
            instructions=simulator.profile.instructions_executed,
            provenance=self._provenance(request.engine, started, records))

    def _execute_customize(self, request: CustomizeRequest
                           ) -> CustomizeResponse:
        started = time.perf_counter()
        machine = resolve_machine(request.machine)
        kernel = self._request_kernel(request.kernel)
        opt_level = self._opt(request.opt_level)
        args = kernel.arguments(self._size(request.size),
                                seed=self._seed(request.seed))
        expected = kernel.expected(args)

        toolchain = self.toolchain(machine, opt_level=opt_level)
        module = toolchain.frontend(kernel.source, kernel.name)
        base_artifacts = toolchain.build(module.clone())
        base = toolchain.run(base_artifacts, kernel.entry, *_run_args(args))

        custom_toolchain = toolchain.customize(
            module, area_budget_kgates=request.area_budget_kgates,
            max_operations=request.max_operations, name=request.name,
            profile_entry=kernel.entry, profile_args=_run_args(args))
        result = custom_toolchain.last_customization
        custom_artifacts = custom_toolchain.build(module)
        custom = custom_toolchain.run(custom_artifacts, kernel.entry,
                                      *_run_args(args))
        return CustomizeResponse(
            kernel=kernel.name, base_machine=machine.name,
            custom_machine=custom_toolchain.machine.name,
            selected_ops=list(result.report.selected_names),
            area_added_kgates=result.report.area_added_kgates,
            base_cycles=base.cycles, custom_cycles=custom.cycles,
            speedup=(base.cycles / custom.cycles if custom.cycles else 0.0),
            correct=(base.value == expected and custom.value == expected),
            summary=result.report.summary(),
            provenance=self._provenance(
                "cycle", started,
                base_artifacts.report.stages + custom_artifacts.report.stages))

    def _execute_explore(self, request: ExploreRequest) -> ExploreResponse:
        from ..dse.space import DesignSpace

        started = time.perf_counter()
        engine = (request.engine if request.engine is not None
                  else self.evaluation_engine)
        fidelity = (request.fidelity if request.fidelity is not None
                    else self.fidelity)
        if request.rescore:
            # Screening always happens at trace fidelity when re-scoring.
            fidelity = "trace"
        if fidelity == "trace" and not request.rescore:
            # The trace path always profiles with the threaded-code
            # engine; report what actually runs, not the ignored selector.
            # (In rescore mode the frontier re-scoring *does* use the
            # requested evaluation engine, so that label stands.)
            engine = "compiled"
        if request.application is not None:
            evaluator = self.app_evaluator(
                request.application, size=request.size,
                opt_level=request.opt_level, seed=request.seed,
                engine=engine, fidelity=fidelity)
        else:
            evaluator = self.evaluator(
                request.mix, size=request.size, opt_level=request.opt_level,
                seed=request.seed, engine=engine, fidelity=fidelity)
        explorer = self.explorer(evaluator, objective=request.objective,
                                 workers=request.workers,
                                 search_seed=request.search_seed)
        if request.space is None:
            space = DesignSpace.small()
        else:
            space = DesignSpace(**{axis: tuple(choices)
                                   for axis, choices in request.space.items()})

        if request.rescore:
            result = explorer.screen_then_rescore(
                space, strategy=request.strategy,
                **({"max_rounds": request.max_rounds}
                   if request.strategy == "greedy" else
                   {"iterations": request.iterations}
                   if request.strategy == "annealing" else {}))
        elif request.strategy == "exhaustive":
            result = explorer.exhaustive(space)
        elif request.strategy == "greedy":
            result = explorer.greedy(space, max_rounds=request.max_rounds)
        else:
            result = explorer.annealing(space, iterations=request.iterations)

        exported = result.to_dict()
        extra_cache = {"batch": explorer.batch.stats.as_dict()}
        if result.rescore is not None:
            # The cycle-fidelity re-scoring pass ran through its own
            # batch evaluator; surface its work alongside the screener's.
            extra_cache["rescore"] = result.rescore
        return ExploreResponse(
            mix=evaluator.mix.name, strategy=request.strategy,
            objective=request.objective, engine=engine,
            fidelity=result.fidelity,
            points_evaluated=result.points_evaluated,
            best=exported["best"], knee=exported["knee"],
            pareto=exported["pareto"], rows=exported["rows"],
            provenance=self._provenance(
                engine, started, fidelity=result.fidelity,
                extra_cache=extra_cache))

    def _execute_matrix(self, request: MatrixRequest) -> MatrixResponse:
        from ..toolchain.matrix import run_matrix

        started = time.perf_counter()
        engine = request.engine if request.engine is not None else self.engine
        fidelity = (request.fidelity if request.fidelity is not None
                    else self.fidelity)
        machines = [resolve_machine(machine) for machine in request.machines]
        report = run_matrix(
            machines, kernel_names=request.kernels,
            size=self._size(request.size),
            opt_level=self._opt(request.opt_level),
            seed=self._seed(request.seed), engine=engine,
            fidelity=fidelity, pipeline=self.pipeline)
        # At trace fidelity the report records the engine that actually
        # executed (the threaded-code profiler), not the requested one.
        engine = report.engine
        exported = report.to_dict()
        return MatrixResponse(
            machines=exported["machines"], kernels=exported["kernels"],
            engine=engine, fidelity=fidelity, pass_rate=report.pass_rate(),
            all_correct=report.all_correct, rows=exported["rows"],
            failures=exported["failures"],
            provenance=self._provenance(engine, started, fidelity=fidelity))

    def _execute_population(self, request: PopulationRequest
                            ) -> PopulationResponse:
        from ..gen.population import WorkloadPopulation

        started = time.perf_counter()
        population = WorkloadPopulation.generate(
            request.count, seed=request.seed, families=request.families)
        opt_level = self._opt(request.opt_level)
        valid: Optional[int] = None
        with population:
            if request.validate_population:
                validated = population.validate(
                    size=request.size, opt_level=opt_level,
                    pipeline=self.pipeline)
                valid = sum(validated.values())
            report = population.report(
                budget=request.budget_kgates, engine=request.engine,
                size=request.size, opt_level=opt_level,
                kernels_per_family=request.kernels_per_family,
                workers=(self.workers if request.workers is None
                         else request.workers),
                pipeline=self.pipeline)
        return PopulationResponse(
            count=len(population), seed=request.seed,
            families=population.families(), valid=valid, report=report,
            provenance=self._provenance(request.engine, started))

    def _execute_app(self, request: AppRequest) -> AppResponse:
        from dataclasses import replace

        from ..app.runner import AppRunner
        from ..app.spec import ApplicationSpec
        from ..gen.application import sample_application

        started = time.perf_counter()
        machine = resolve_machine(request.machine)
        if request.application is not None:
            spec = ApplicationSpec.from_dict(request.application)
        else:
            kwargs = {}
            if request.windows is not None:
                kwargs["windows"] = request.windows
            spec = sample_application(request.topology, request.app_seed,
                                      period_us=request.period_us,
                                      deadline_us=request.deadline_us,
                                      **kwargs)
        overrides = {name: value for name, value in (
            ("windows", request.windows),
            ("period_us", request.period_us),
            ("deadline_us", request.deadline_us),
        ) if value is not None}
        if overrides:
            spec = replace(spec, stream=replace(spec.stream, **overrides))

        runner = AppRunner(spec, machine, engine=request.engine,
                           opt_level=self._opt(request.opt_level),
                           fidelity=request.fidelity, pipeline=self.pipeline)
        report = runner.run()
        return AppResponse(
            application=report.application,
            fingerprint=report.fingerprint,
            machine=report.machine, engine=report.engine,
            fidelity=report.fidelity, windows=report.windows,
            correct=report.correct,
            deadline_miss_rate=report.deadline_miss_rate,
            p50_latency_us=report.p50_latency_us,
            p95_latency_us=report.p95_latency_us,
            p99_latency_us=report.p99_latency_us,
            jitter_us=report.jitter_us,
            energy_per_window_uj=report.energy_per_window_uj,
            period_us=report.period_us, deadline_us=report.deadline_us,
            window_latencies_us=list(report.window_latencies_us),
            nodes=[stats.to_dict() for stats in report.node_stats],
            provenance=self._provenance(request.engine, started,
                                        fidelity=request.fidelity))


# ----------------------------------------------------------------------
# The process-wide default session.
# ----------------------------------------------------------------------

_DEFAULT_SESSION: Optional[Session] = None
_DEFAULT_LOCK = threading.Lock()


def default_session() -> Session:
    """The process-wide session (created on first use).

    This is what un-injected entry points (``Toolchain()`` without a
    pipeline, ``run_matrix`` and the workload helpers) share, so family
    members built through any of them reuse one artifact store.
    """
    global _DEFAULT_SESSION
    with _DEFAULT_LOCK:
        if _DEFAULT_SESSION is None:
            _DEFAULT_SESSION = Session(name="default")
        return _DEFAULT_SESSION


def default_pipeline() -> CompilePipeline:
    """The default session's compile pipeline (internal fallback)."""
    return default_session().pipeline


def reset_default_session() -> None:
    """Drop the process-wide session (tests and benchmarks)."""
    global _DEFAULT_SESSION
    with _DEFAULT_LOCK:
        session, _DEFAULT_SESSION = _DEFAULT_SESSION, None
    if session is not None:
        session.close()
