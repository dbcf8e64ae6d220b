"""``python -m repro`` — the scriptable front door.

Every subcommand builds one of the serializable requests of
:mod:`repro.api.requests` (either from flags or from a request-JSON file
via ``--request``), executes it on a fresh :class:`~repro.api.Session`,
and writes the schema-versioned response JSON to stdout (or
``--output``).  That makes the whole system drivable from shell scripts
and CI::

    python -m repro matrix --machines vliw4,risc_baseline
    python -m repro run --kernel dot_product --machine vliw8 --size 256
    python -m repro customize --kernel viterbi_acs --budget 40
    python -m repro explore --mix video --strategy exhaustive --size 24
    python -m repro gen --count 10 --seed 7
    python -m repro app --topology chain --app-seed 11 --deadline-us 30
    python -m repro compile --kernel sad16 --machine dsp16 --pretty

The service subcommands run the same requests through a persistent
daemon (:mod:`repro.service`) with a durable job queue and a shared
cross-process artifact store::

    python -m repro serve --root /tmp/repro-svc --service-workers 4
    python -m repro submit --request req.json --wait      # or poll:
    python -m repro submit --request req.json             # prints job id
    python -m repro status --id job-000001
    python -m repro result --id job-000001
    python -m repro cancel --id job-000002

Client subcommands find the daemon through ``--endpoint`` or the
``REPRO_SERVICE_SOCKET`` environment variable.

The replay subcommands (:mod:`repro.replay`) turn requests into
replayable experiment manifests and gate regressions in CI::

    python -m repro record --request req.json --output m.json
    python -m repro replay m.json                 # or a journal .jsonl
    python -m repro gate experiments --bench-baseline bench-baseline

Exit status is 0 on success; correctness-checking subcommands (``run``,
``customize``, ``matrix``, ``gen``, and ``submit --wait``/``result``)
exit 1 when a result disagrees with its oracle, and 2 on a
request/validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .requests import (
    APP_TOPOLOGIES, FIDELITY_LEVELS, FUNCTIONAL_ENGINES,
    OBJECTIVES, RUN_ENGINES, STRATEGIES, AppRequest, AppResponse,
    CompileRequest, CustomizeRequest, ExploreRequest, MatrixRequest,
    MatrixResponse, PopulationRequest, PopulationResponse, RunRequest,
    RunResponse, CustomizeResponse, SchemaError, request_from_json,
)
from .session import Session


def _csv(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _csv_ints(text: str) -> List[int]:
    return [int(item) for item in _csv(text)]


def _csv_floats(text: str) -> List[float]:
    return [float(item) for item in _csv(text)]


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--request", metavar="FILE",
                        help="read the full request JSON from FILE "
                             "('-' for stdin); other request flags are "
                             "ignored")
    parser.add_argument("--output", metavar="FILE",
                        help="write the response JSON to FILE instead of "
                             "stdout")
    parser.add_argument("--pretty", action="store_true",
                        help="indent the response JSON")
    parser.add_argument("--opt-level", type=int, default=None,
                        help="optimization level (session default: 2)")
    parser.add_argument("--workers", type=int, default=0,
                        help="process-pool width for batched fan-out")
    _add_obs(parser)


def _add_obs(parser: argparse.ArgumentParser) -> None:
    from ..obs import OBS_MODES

    parser.add_argument("--obs", default=None, choices=OBS_MODES,
                        help="observability mode (default: metrics; "
                             "trace adds spans + run manifests, off "
                             "disables everything but store counters)")
    parser.add_argument("--journal", metavar="FILE", default=None,
                        help="append run manifests (JSONL) to FILE "
                             "(default: $REPRO_OBS_JOURNAL)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Customized instruction-sets as a service: submit a "
                    "request, get schema-versioned JSON back.")
    commands = parser.add_subparsers(dest="command", required=True)

    compile_p = commands.add_parser(
        "compile", help="compile a kernel (or C file) for a machine")
    compile_p.add_argument("--kernel", help="registry kernel name")
    compile_p.add_argument("--source", metavar="FILE",
                           help="C source file ('-' for stdin)")
    compile_p.add_argument("--name", help="module name for raw source")
    compile_p.add_argument("--machine", default="vliw4")
    _add_common(compile_p)

    run_p = commands.add_parser(
        "run", help="compile + execute a kernel against its oracle")
    run_p.add_argument("--kernel", required=True)
    run_p.add_argument("--machine", default="vliw4")
    run_p.add_argument("--engine", default="cycle", choices=RUN_ENGINES)
    run_p.add_argument("--size", type=int, default=None)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--batch", type=int, default=None,
                       help="run N seeded argument sets, one run each "
                            "(functional engines only)")
    _add_common(run_p)

    customize_p = commands.add_parser(
        "customize", help="derive a custom family member for a kernel")
    customize_p.add_argument("--kernel", required=True)
    customize_p.add_argument("--machine", default="vliw4")
    customize_p.add_argument("--budget", type=float, default=40.0,
                             help="custom-datapath area budget (kgates)")
    customize_p.add_argument("--max-ops", type=int, default=8)
    customize_p.add_argument("--name", help="name for the custom machine")
    customize_p.add_argument("--size", type=int, default=None)
    customize_p.add_argument("--seed", type=int, default=None)
    _add_common(customize_p)

    explore_p = commands.add_parser(
        "explore", help="search a design space for a workload mix")
    explore_p.add_argument("--mix", default="video")
    explore_p.add_argument("--strategy", default="exhaustive",
                           choices=STRATEGIES)
    explore_p.add_argument("--objective", default="perf_per_area",
                           choices=sorted(OBJECTIVES))
    explore_p.add_argument("--fidelity", default=None,
                           choices=FIDELITY_LEVELS,
                           help="timing model: simulate every point (cycle) "
                                "or profile once and retime (trace)")
    explore_p.add_argument("--rescore", action="store_true",
                           help="screen at trace fidelity, re-score the "
                                "Pareto frontier at cycle fidelity")
    explore_p.add_argument("--size", type=int, default=None)
    explore_p.add_argument("--seed", type=int, default=None)
    explore_p.add_argument("--search-seed", type=int, default=None)
    explore_p.add_argument("--iterations", type=int, default=40)
    explore_p.add_argument("--max-rounds", type=int, default=4)
    explore_p.add_argument("--issue-widths", type=_csv_ints, default=None)
    explore_p.add_argument("--register-counts", type=_csv_ints, default=None)
    explore_p.add_argument("--cluster-counts", type=_csv_ints, default=None)
    explore_p.add_argument("--mul-units", type=_csv_ints, default=None,
                           dest="mul_unit_counts")
    explore_p.add_argument("--mem-units", type=_csv_ints, default=None,
                           dest="mem_unit_counts")
    explore_p.add_argument("--custom-budgets", type=_csv_floats, default=None)
    explore_p.add_argument("--application", metavar="FILE", default=None,
                           help="explore for an application mix instead of "
                                "--mix: JSON file ('-' for stdin) holding a "
                                "serialized ApplicationMix or a single "
                                "ApplicationSpec")
    _add_common(explore_p)

    matrix_p = commands.add_parser(
        "matrix", help="run the N×M validation matrix")
    matrix_p.add_argument("--machines", type=_csv, default=["vliw4", "risc32"],
                          help="comma-separated preset names")
    matrix_p.add_argument("--kernels", type=_csv, default=None,
                          help="comma-separated kernel names (default: all)")
    matrix_p.add_argument("--engine", default=None, choices=FUNCTIONAL_ENGINES,
                          help="functional cross-check engine")
    matrix_p.add_argument("--fidelity", default=None, choices=FIDELITY_LEVELS,
                          help="timing model: cycle simulation or trace "
                               "retiming")
    matrix_p.add_argument("--size", type=int, default=None)
    matrix_p.add_argument("--seed", type=int, default=None)
    _add_common(matrix_p)

    gen_p = commands.add_parser(
        "gen", help="generate, validate and sweep a workload population")
    gen_p.add_argument("--count", type=int, default=10)
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--families", type=_csv, default=None)
    gen_p.add_argument("--budget", type=float, default=32.0)
    gen_p.add_argument("--size", type=int, default=None)
    gen_p.add_argument("--kernels-per-family", type=int, default=3)
    gen_p.add_argument("--no-validate", action="store_true",
                       help="skip the dual-engine validation pass")
    _add_common(gen_p)

    app_p = commands.add_parser(
        "app", help="run a multi-kernel dataflow application window by "
                    "window against real-time objectives")
    app_p.add_argument("--application", metavar="FILE",
                       help="serialized ApplicationSpec JSON ('-' for "
                            "stdin); or generate one with --topology")
    app_p.add_argument("--topology", default=None, choices=APP_TOPOLOGIES,
                       help="generate the application from a seeded recipe")
    app_p.add_argument("--app-seed", type=int, default=0,
                       help="generator seed for --topology")
    app_p.add_argument("--machine", default="vliw4")
    app_p.add_argument("--engine", default="compiled",
                       choices=FUNCTIONAL_ENGINES,
                       help="functional engine node windows execute on")
    app_p.add_argument("--fidelity", default="cycle", choices=FIDELITY_LEVELS,
                       help="execute every window (cycle) or price each "
                            "node once and re-aggregate (trace)")
    app_p.add_argument("--windows", type=int, default=None,
                       help="override the stream's window count")
    app_p.add_argument("--period-us", type=float, default=None,
                       help="override the stream's window period")
    app_p.add_argument("--deadline-us", type=float, default=None,
                       help="override the per-window deadline")
    _add_common(app_p)

    serve_p = commands.add_parser(
        "serve", help="run a persistent service daemon (durable job "
                      "queue + shared artifact store + worker pool)")
    serve_p.add_argument("--root", required=True,
                         help="daemon state directory (queue journal, "
                              "shared store, default unix socket)")
    serve_p.add_argument("--endpoint", default=None,
                         help="unix:/path or tcp:host:port (default: "
                              "unix socket under --root)")
    serve_p.add_argument("--service-workers", type=int, default=2,
                         help="worker pool width (0 = serve in-process)")
    serve_p.add_argument("--worker-mode", default="process",
                         choices=("process", "thread"),
                         help="worker isolation: separate processes "
                              "(default) or in-process threads")
    serve_p.add_argument("--store-budget-bytes", type=int, default=None,
                         help="LRU-evict the shared store above this size")
    serve_p.add_argument("--duration", type=float, default=None,
                         help="exit after SECONDS (default: run until "
                              "interrupted or a client sends shutdown)")

    def _add_client(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--endpoint", default=None,
                            help="daemon endpoint (default: "
                                 "$REPRO_SERVICE_SOCKET)")

    submit_p = commands.add_parser(
        "submit", help="queue a request JSON on a running daemon")
    submit_p.add_argument("--request", required=True, metavar="FILE",
                          help="request JSON file ('-' for stdin)")
    submit_p.add_argument("--priority", type=int, default=0)
    submit_p.add_argument("--wait", action="store_true",
                          help="block until done and print the response "
                               "(instead of the job record)")
    submit_p.add_argument("--timeout", type=float, default=None,
                          help="with --wait: give up after SECONDS")
    submit_p.add_argument("--pretty", action="store_true")
    _add_client(submit_p)

    status_p = commands.add_parser(
        "status", help="print a job's journal record (or daemon stats)")
    status_p.add_argument("--id", default=None, help="job id; omit for "
                          "daemon-wide queue/store/worker stats")
    status_p.add_argument("--pretty", action="store_true")
    _add_client(status_p)

    result_p = commands.add_parser(
        "result", help="wait for a job and print its response JSON")
    result_p.add_argument("--id", required=True)
    result_p.add_argument("--timeout", type=float, default=None)
    result_p.add_argument("--pretty", action="store_true")
    _add_client(result_p)

    cancel_p = commands.add_parser(
        "cancel", help="cancel a queued job (running jobs finish)")
    cancel_p.add_argument("--id", required=True)
    cancel_p.add_argument("--pretty", action="store_true")
    _add_client(cancel_p)

    stats_p = commands.add_parser(
        "stats", help="export the typed metrics registry (JSON or "
                      "Prometheus text)")
    stats_p.add_argument("--endpoint", default=None,
                         help="pull fleet-wide metrics from a running "
                              "daemon (default: $REPRO_SERVICE_SOCKET, "
                              "falling back to --journal / a fresh "
                              "registry)")
    stats_p.add_argument("--journal", metavar="FILE", default=None,
                         help="read the latest metric snapshot from a "
                              "run-manifest journal instead")
    stats_p.add_argument("--format", default="json",
                         choices=("json", "prometheus"),
                         help="output format (default: json)")
    stats_p.add_argument("--pretty", action="store_true")

    record_p = commands.add_parser(
        "record", help="execute a request and write a replayable "
                       "experiment manifest (request + stage fingerprints "
                       "+ response digest + env + git rev)")
    record_p.add_argument("--request", required=True, metavar="FILE",
                          help="request JSON file ('-' for stdin)")
    record_p.add_argument("--output", required=True, metavar="FILE",
                          help="where the manifest JSON goes")
    record_p.add_argument("--name", default=None,
                          help="manifest name (derived from the request "
                               "if omitted)")
    record_p.add_argument("--band", type=float, default=None,
                          help="wall-clock tolerance factor for the "
                               "elapsed_s perf metric (default 10; fresh "
                               "replays must finish within "
                               "recorded*band+1s)")
    record_p.add_argument("--pretty", action="store_true")

    replay_p = commands.add_parser(
        "replay", help="re-execute an experiment manifest (or every "
                       "manifest in a journal/directory), asserting "
                       "bit-identical stage fingerprints and oracle "
                       "outputs and reporting per-metric deltas")
    replay_p.add_argument("target",
                          help="manifest JSON, journal JSONL, or a "
                               "directory of either")
    replay_p.add_argument("--trace-id", default=None,
                          help="replay only this trace's manifest from a "
                               "journal")
    replay_p.add_argument("--report", metavar="FILE", default=None,
                          help="also write the replay report JSON to FILE")
    replay_p.add_argument("--json", action="store_true", dest="as_json",
                          help="emit the report JSON instead of the "
                               "rendered summary")
    replay_p.add_argument("--pretty", action="store_true")

    gate_p = commands.add_parser(
        "gate", help="CI regression gate: replay stored manifests and "
                     "compare fresh BENCH_*.json numbers against "
                     "baselines with per-metric tolerance bands")
    gate_p.add_argument("targets", nargs="*",
                        help="manifest files, journals, or directories "
                             "to replay")
    gate_p.add_argument("--bench-baseline", metavar="DIR", default=None,
                        help="directory holding the stored BENCH_*.json "
                             "baselines to compare against")
    gate_p.add_argument("--bench-fresh", metavar="DIR", default=".",
                        help="directory holding the fresh BENCH_*.json "
                             "files (default: current directory)")
    gate_p.add_argument("--report", metavar="FILE", default=None,
                        help="write the delta report JSON to FILE (the "
                             "CI artifact)")
    gate_p.add_argument("--pretty", action="store_true")

    inspect_p = commands.add_parser(
        "inspect", help="render one trace (waterfall + summary) from a "
                        "daemon or a journal file")
    inspect_p.add_argument("trace_id", help="trace id (see "
                           "provenance.trace_id in any traced response)")
    inspect_p.add_argument("--endpoint", default=None,
                           help="fetch the stitched trace from a running "
                                "daemon (default: $REPRO_SERVICE_SOCKET)")
    inspect_p.add_argument("--journal", metavar="FILE", default=None,
                           help="read the trace from a run-manifest "
                                "journal file (default: "
                                "$REPRO_OBS_JOURNAL)")
    inspect_p.add_argument("--json", action="store_true", dest="as_json",
                           help="emit the raw span/event JSON instead of "
                                "the rendered waterfall")
    inspect_p.add_argument("--pretty", action="store_true")

    return parser


def _build_request(args: argparse.Namespace):
    if args.request:
        return request_from_json(_read_text(args.request))
    if args.command == "compile":
        source = _read_text(args.source) if args.source else None
        return CompileRequest(kernel=args.kernel, source=source,
                              name=args.name, machine=args.machine,
                              opt_level=args.opt_level)
    if args.command == "run":
        return RunRequest(kernel=args.kernel, machine=args.machine,
                          size=args.size, seed=args.seed,
                          opt_level=args.opt_level, engine=args.engine,
                          batch=args.batch)
    if args.command == "customize":
        return CustomizeRequest(kernel=args.kernel, machine=args.machine,
                                area_budget_kgates=args.budget,
                                max_operations=args.max_ops, size=args.size,
                                seed=args.seed, opt_level=args.opt_level,
                                name=args.name)
    if args.command == "explore":
        space = {axis: getattr(args, axis) for axis in (
            "issue_widths", "register_counts", "cluster_counts",
            "mul_unit_counts", "mem_unit_counts", "custom_budgets",
        ) if getattr(args, axis) is not None}
        application = (json.loads(_read_text(args.application))
                       if args.application else None)
        return ExploreRequest(mix=args.mix, strategy=args.strategy,
                              objective=args.objective, size=args.size,
                              seed=args.seed, opt_level=args.opt_level,
                              fidelity=args.fidelity,
                              rescore=args.rescore, space=space or None,
                              search_seed=args.search_seed,
                              iterations=args.iterations,
                              max_rounds=args.max_rounds,
                              workers=args.workers or None,
                              application=application)
    if args.command == "matrix":
        return MatrixRequest(machines=args.machines, kernels=args.kernels,
                             size=args.size, seed=args.seed,
                             opt_level=args.opt_level, engine=args.engine,
                             fidelity=args.fidelity)
    if args.command == "gen":
        return PopulationRequest(count=args.count, seed=args.seed,
                                 families=args.families,
                                 budget_kgates=args.budget, size=args.size,
                                 opt_level=args.opt_level,
                                 kernels_per_family=args.kernels_per_family,
                                 validate_population=not args.no_validate,
                                 workers=args.workers or None)
    if args.command == "app":
        application = (json.loads(_read_text(args.application))
                       if args.application else None)
        return AppRequest(application=application, topology=args.topology,
                          app_seed=args.app_seed, machine=args.machine,
                          engine=args.engine, fidelity=args.fidelity,
                          opt_level=args.opt_level, windows=args.windows,
                          period_us=args.period_us,
                          deadline_us=args.deadline_us)
    raise SchemaError(f"unknown command {args.command!r}")


def _succeeded(response) -> bool:
    if isinstance(response, MatrixResponse):
        return response.all_correct
    if isinstance(response, (RunResponse, CustomizeResponse, AppResponse)):
        return response.correct
    if isinstance(response, PopulationResponse):
        return response.valid is None or response.valid == response.count
    return True


def _emit(args: argparse.Namespace, data) -> None:
    indent = 2 if getattr(args, "pretty", False) else None
    sys.stdout.write(json.dumps(data, sort_keys=True, indent=indent) + "\n")


def _service_main(args: argparse.Namespace) -> int:
    from ..service import JobFailed, ServiceClient, ServiceDaemon, ServiceError

    if args.command == "serve":
        daemon = ServiceDaemon(
            args.root, endpoint=args.endpoint,
            workers=args.service_workers, worker_mode=args.worker_mode,
            store_budget_bytes=args.store_budget_bytes)
        with daemon:
            print(json.dumps({"endpoint": daemon.endpoint,
                              "store_dir": daemon.store_dir,
                              "workers": daemon.workers,
                              "worker_mode": daemon.worker_mode},
                             sort_keys=True), flush=True)
            import time as _time

            deadline = (None if args.duration is None
                        else _time.monotonic() + args.duration)
            try:
                while not daemon._stopping:
                    if deadline is not None and _time.monotonic() >= deadline:
                        break
                    _time.sleep(0.2)
            except KeyboardInterrupt:
                pass
        return 0

    try:
        client = ServiceClient(args.endpoint)
        if args.command == "submit":
            request = request_from_json(_read_text(args.request))
            handle = client.submit(request, priority=args.priority)
            if not args.wait:
                _emit(args, handle.record)
                return 0
            response = handle.result(timeout=args.timeout)
            _emit(args, response.to_dict())
            return 0 if _succeeded(response) else 1
        if args.command == "status":
            _emit(args, client.status(args.id) if args.id
                  else client.stats())
            return 0
        if args.command == "result":
            response = client.result(args.id, timeout=args.timeout)
            _emit(args, response.to_dict())
            return 0 if _succeeded(response) else 1
        if args.command == "cancel":
            cancelled = client.cancel(args.id)
            _emit(args, {"id": args.id, "cancelled": cancelled})
            return 0 if cancelled else 1
    except JobFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ServiceError, SchemaError, OSError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    raise SchemaError(f"unknown command {args.command!r}")


def _obs_main(args: argparse.Namespace) -> int:
    import os

    from ..obs import (
        default_journal_path, journal_spans, latest_metrics, read_journal,
        render_prometheus, render_trace_summary, render_waterfall,
    )
    from ..service.client import ENDPOINT_ENV

    endpoint = args.endpoint or os.environ.get(ENDPOINT_ENV)

    if args.command == "stats":
        snapshot = None
        if endpoint:
            from ..service import ServiceClient, ServiceError

            try:
                with ServiceClient(endpoint, timeout=5.0) as client:
                    snapshot = client.stats().get("metrics")
            except ServiceError as exc:
                if args.endpoint:  # explicit endpoint must work
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
        journal = args.journal or default_journal_path()
        if snapshot is None and journal:
            try:
                snapshot = latest_metrics(read_journal(journal))
            except OSError:
                snapshot = None
        if snapshot is None:
            # Nothing persistent to report: a fresh Session's registry
            # (mostly zeros, but the full metric families render).
            with Session(name="stats") as session:
                snapshot = session.metrics()
        if args.format == "prometheus":
            sys.stdout.write(render_prometheus(snapshot))
        else:
            _emit(args, snapshot)
        return 0

    if args.command == "inspect":
        trace_id = args.trace_id
        spans: List = []
        events: List = []
        if endpoint:
            from ..service import ServiceClient, ServiceError

            try:
                with ServiceClient(endpoint, timeout=5.0) as client:
                    reply = client.trace(trace_id)
                spans = list(reply.get("spans") or [])
                events = list(reply.get("events") or [])
            except ServiceError as exc:
                if args.endpoint:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
        if not spans and not events:
            journal = args.journal or default_journal_path()
            if not journal:
                print("error: no --endpoint, $REPRO_SERVICE_SOCKET, "
                      "--journal or $REPRO_OBS_JOURNAL to read the trace "
                      "from", file=sys.stderr)
                return 2
            try:
                events = read_journal(journal, trace_id=trace_id)
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            spans = journal_spans(events)
        if not spans and not events:
            print(f"error: trace {trace_id!r} not found", file=sys.stderr)
            return 1
        if args.as_json:
            _emit(args, {"trace_id": trace_id, "spans": spans,
                         "events": [dict(event) for event in events]})
            return 0
        sys.stdout.write(render_trace_summary(events, spans) + "\n")
        if spans:
            sys.stdout.write(render_waterfall(spans) + "\n")
        return 0

    raise SchemaError(f"unknown command {args.command!r}")


def _replay_main(args: argparse.Namespace) -> int:
    import time as _time

    from ..replay import (
        load_manifests, manifest_from_response, replay_manifest, run_gate,
    )

    if args.command == "record":
        request = request_from_json(_read_text(args.request))
        with Session(name="record") as session:
            started = _time.perf_counter()
            response = session.execute(request)
            elapsed = _time.perf_counter() - started
        manifest = manifest_from_response(
            request, response, name=args.name or "", source="cli:record",
            elapsed_s=elapsed, band=args.band)
        manifest.save(args.output)
        _emit(args, {"manifest": args.output, "name": manifest.name,
                     "kind": manifest.kind,
                     "fingerprints": len(manifest.fingerprints),
                     "response_fingerprint": manifest.response_fingerprint,
                     "elapsed_s": round(elapsed, 6)})
        return 0

    if args.command == "replay":
        manifests, problems = load_manifests(args.target,
                                             trace_id=args.trace_id)
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        if not manifests:
            print(f"error: no replayable manifests in {args.target!r}",
                  file=sys.stderr)
            return 2
        reports = [replay_manifest(manifest) for manifest in manifests]
        payload = {"kind": "replay.report", "ok": all(r.ok for r in reports),
                   "replays": [r.to_dict() for r in reports]}
        if args.report:
            with open(args.report, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True, indent=2)
                handle.write("\n")
        if args.as_json:
            _emit(args, payload)
        else:
            for report in reports:
                print(report.render())
        if problems:
            return 2
        return 0 if payload["ok"] else 1

    if args.command == "gate":
        if not args.targets and not args.bench_baseline:
            print("error: nothing to gate (pass manifest targets and/or "
                  "--bench-baseline)", file=sys.stderr)
            return 2
        report = run_gate(list(args.targets),
                          bench_baseline=args.bench_baseline,
                          bench_fresh=args.bench_fresh)
        if args.report:
            with open(args.report, "w", encoding="utf-8") as handle:
                json.dump(report.to_dict(), handle, sort_keys=True, indent=2)
                handle.write("\n")
        print(report.render())
        if not report.entries:
            print("error: gate found nothing to check", file=sys.stderr)
            return 2
        return 0 if report.ok else 1

    raise SchemaError(f"unknown command {args.command!r}")


def main(argv: Optional[List[str]] = None) -> int:
    from ..frontend.c_frontend import CFrontendError

    args = build_parser().parse_args(argv)
    if args.command in ("serve", "submit", "status", "result", "cancel"):
        return _service_main(args)
    if args.command in ("stats", "inspect"):
        return _obs_main(args)
    if args.command in ("record", "replay", "gate"):
        try:
            return _replay_main(args)
        except (SchemaError, ValueError, KeyError, TypeError,
                OSError) as exc:
            message = exc.args[0] if exc.args else exc
            print(f"error: {message}", file=sys.stderr)
            return 2
    try:
        request = _build_request(args)
        with Session(workers=getattr(args, "workers", 0) or 0,
                     obs=getattr(args, "obs", None),
                     journal=getattr(args, "journal", None)) as session:
            response = session.execute(request)
    except (SchemaError, ValueError, KeyError, TypeError, OSError,
            CFrontendError) as exc:
        # Request errors (unknown kernel/machine/mix, malformed JSON, bad
        # C source) exit 2; exit 1 is reserved for oracle disagreements.
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2

    text = response.to_json(indent=2 if args.pretty else None) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0 if _succeeded(response) else 1
