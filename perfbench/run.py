"""Repository benchmark: two seeded workloads through the request API.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-cold --seed 1 \\
        --seconds 40 --trace 0

``--trace 0`` runs timed passes with no instrumentation and reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs one
untimed-instrumentation pass and one traced pass and reports the
per-layer metrics.  Every response is checked against its oracle; a
mismatch, an exception or a drifting deterministic output makes the run
exit 1.  The last line of stdout is the JSON result; the lines above it
print every metric with its unit, the error rate and the environment.
Spans and the full result record go to ``.perfbench-work/`` in the
repository root.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

#: fault-injection knobs that would slow the system on purpose.
DELAY_KNOBS = ("REPRO_SESSION_DELAY_S", "REPRO_SERVICE_TASK_DELAY_S")
#: knobs that change which code runs; recorded beside the results.
RECORDED_KNOBS = ("REPRO_ENGINE", "REPRO_NATIVE_CC", "REPRO_OBS")
#: knobs that would send output or requests outside this benchmark.
DROPPED_KNOBS = ("REPRO_OBS_JOURNAL", "REPRO_SERVICE_SOCKET")
WORKLOAD_NAMES = ("sweep-cold", "service-warm")
#: units of the deterministic model outputs the summary prints.
MODEL_UNITS = {"sim_cycles": "cycles", "code_bytes": "bytes",
               "custom_speedup_geomean": "ratio",
               "trace_cycle_error_max": "fraction",
               "core.candidates": "count"}
#: cap on timed passes, so a very fast program still ends in time.
MAX_PASSES = 40
#: extra cold-interpreter import timings, so setup_s is a median too.
IMPORT_SAMPLES = 2
#: what a run imports before its first pass (timed into setup_s).
IMPORT_PROBE = ("import time; started = time.perf_counter(); "
                "import bench_workloads; "
                "from repro.exec.native import global_native_toolchain; "
                "global_native_toolchain(); "
                "print(time.perf_counter() - started)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="corrupt one oracle comparison (self-test: "
                             "the run must exit non-zero)")
    return parser.parse_args(argv)


def import_seconds(src):
    """Import time of a fresh interpreter, measured IMPORT_SAMPLES times."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(HERE)]))
    return [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                                 env=env, check=True, capture_output=True,
                                 text=True).stdout)
            for _ in range(IMPORT_SAMPLES)]


def percentile(ordered, fraction):
    """Nearest-rank percentile of a sorted list."""
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def environment(native_cc):
    env = {knob: os.environ.get(knob) for knob in RECORDED_KNOBS}
    env.update(compiler=native_cc, nproc=os.cpu_count(),
               python=platform.python_version(), machine=platform.machine())
    return env


def end_to_end(setup_s, results):
    """Pass wall and throughput are medians over passes.  The latency
    percentiles are taken over the latencies of all passes pooled, so
    they come from the same population of requests in every run."""
    pooled = sorted(latency for r in results for latency in r.latencies)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(r.wall_s for r in results),
        "throughput_rps": statistics.median(
            len(r.latencies) / r.wall_s for r in results),
        "latency_p50_ms": 1e3 * statistics.median(pooled),
        "latency_p95_ms": 1e3 * percentile(pooled, 0.95),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_cycles": results[0].deterministic.get("sim_cycles", 0),
    }


def per_layer(workload, untraced, traced, tracer):
    """Fold the traced pass's spans into the per-layer metrics."""
    request_s = traced.wall_s * len(workload.request_threads)
    selfs, calls, counts = (tracer.self_seconds(), tracer.calls(),
                            tracer.counts)

    def pct(layer):
        return 100.0 * selfs.get(layer, 0.0) / request_s

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {
        "core.identify_pct": pct("core.identify"),
        "core.identify_calls": calls.get("core.identify", 0),
        "core.candidates": traced.deterministic.get("core.candidates", 0),
        "core.select_pct": pct("core.select"),
        "core.rewrite_pct": pct("core.rewrite"),
        "core.profile_pct": pct("core.profile"),
        "core.selected_per_candidate": ratio(
            counts.get("core.selected", 0),
            counts.get("core.select_considered", 0)),
        "core.custom_speedup_geomean": traced.deterministic.get(
            "custom_speedup_geomean", 0.0),
        "frontend.compile_c_pct": pct("frontend.compile_c"),
        "opt.optimize_pct": pct("opt.optimize"),
        "opt.calls": calls.get("opt.optimize", 0),
        "backend.compile_module_pct": pct("backend.compile_module"),
        "backend.compiles": calls.get("backend.compile_module", 0),
        "backend.code_bytes": counts.get("backend.code_bytes", 0),
        "sim.cycle_pct": pct("sim.cycle"),
        "sim.cycle_runs": calls.get("sim.cycle", 0),
        "sim.cycle_ops_per_s": ratio(counts.get("sim.cycle_ops", 0),
                                     selfs.get("sim.cycle", 0.0)),
        "sim.functional_pct": pct("sim.functional"),
        "exec.translate_pct": pct("exec.translate"),
        "exec.compiled_run_pct": pct("exec.compiled_run"),
        "exec.native_compile_pct": pct("exec.native_compile"),
        "exec.native_compiles": calls.get("exec.native_compile", 0),
        "model.capture_pct": pct("model.capture"),
        "model.price_pct": pct("model.price"),
        "model.prices": calls.get("model.price", 0),
        "model.trace_cycle_error_max": traced.deterministic.get(
            "trace_cycle_error_max", 0.0),
        "toolchain.matrix_pct": pct("toolchain.matrix"),
        "toolchain.cells": counts.get("toolchain.cells", 0),
        "dse.explore_pct": pct("dse.explore"),
        "dse.points": traced.layers.get("dse.points", 0),
        "dse.memo_hit_ratio": traced.layers.get("dse.memo_hit_ratio", 0.0),
        "gen.population_pct": pct("gen.population"),
        "app.run_pct": pct("app.run"),
        "service.submit_pct": pct("service.submit"),
        "service.result_wait_pct": pct("service.result_wait"),
        "service.result_polls_per_request": ratio(
            counts.get("service.result_polls", 0),
            calls.get("service.result_wait", 0)),
        "api.execute_self_pct": pct("api.execute"),
        "obs.trace_overhead_pct": 100.0 * (traced.wall_s - untraced.wall_s)
        / untraced.wall_s,
        "obs.attributed_fraction": tracer.self_seconds_on(
            workload.request_threads) / request_s,
    }
    for name in ("service.queue_wait_pct", "service.job_pct",
                 "service.cell_hit_ratio", "service.failed_jobs",
                 "service.retried_jobs", "pipeline.optimize_hit_ratio",
                 "pipeline.backend_hit_ratio", "pipeline.trace_hit_ratio",
                 "pipeline.native_hit_ratio"):
        metrics[name] = traced.layers.get(name, 0.0)
    return metrics


def drift(results):
    """Deterministic outputs that differ between passes of this run."""
    first = results[0].deterministic
    return [f"determinism {key}: {[r.deterministic.get(key) for r in results]}"
            for key in sorted(first)
            if any(r.deterministic.get(key) != first[key] for r in results)]


def run_passes(workload, seconds, setups):
    """Timed passes until they have measured ``seconds`` (at least one
    pass).  Stopping only once the time is used up, not when the next
    pass might not fit, keeps the pass count from dropping by one when
    the host runs slow."""
    results = []
    measured = 0.0
    while True:
        started = time.perf_counter()
        ctx = workload.setup()
        setups.append(time.perf_counter() - started)
        try:
            result = workload.run_pass(ctx)
        finally:
            workload.teardown(ctx)
        results.append(result)
        measured += result.wall_s
        if measured >= seconds or len(results) >= MAX_PASSES:
            return results


def traced_pass(workload, setups):
    """One instrumented pass; returns (result, tracer)."""
    from bench_trace import SpanTracer, probes

    tracer = SpanTracer()
    started = time.perf_counter()
    ctx = workload.setup()
    setups.append(time.perf_counter() - started)
    try:
        with probes(tracer):
            result = workload.run_pass(ctx, call=tracer.request)
    finally:
        workload.teardown(ctx)
    return result, tracer


def report(spec_metrics, values):
    """Every metric of ``spec_metrics`` as {"value", "unit"}; the spec is
    the single source of names and units."""
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in spec_metrics})
    if missing or extra:
        raise KeyError(f"metrics out of step with BENCHMARK.json: missing "
                       f"{missing}, unexpected {extra}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec_metrics}


def main(argv=None):
    args = parse_args(argv)
    armed = [knob for knob in DELAY_KNOBS if os.environ.get(knob)]
    if armed:
        print(f"refusing to run: fault-injection knob(s) set: "
              f"{', '.join(armed)}", file=sys.stderr)
        return 2
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    for knob in DROPPED_KNOBS:
        os.environ.pop(knob, None)

    # Compilers and temp files stay inside the checkout.
    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    try:
        return measure(args, spec, src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, src, workdir):
    sys.path.insert(0, str(src))
    import repro.obs
    from repro.exec.native import global_native_toolchain

    from bench_workloads import WORKLOADS

    repro.obs.set_obs_mode("metrics")
    native_cc = global_native_toolchain().cc  # probes the C compiler once
    import_s = time.perf_counter() - _STARTED

    workload = WORKLOADS[args.workload](
        args.seed, str(workdir), inject_mismatch=args.inject_mismatch)
    workload.prepare()
    setups = []
    if args.trace:
        results = run_passes(workload, 0.0, setups)
        traced, tracer = traced_pass(workload, setups)
        results.append(traced)
    else:
        results = run_passes(workload, args.seconds, setups)

    failures = [line for result in results for _, line in result.failures]
    drifts = drift(results)
    attempted = sum(result.attempted for result in results)
    failed = sum(result.failed for result in results)
    imports = [import_s] + import_seconds(src)
    setup_s = statistics.median(imports) + statistics.median(setups)
    e2e = end_to_end(setup_s, results)
    if args.trace:
        values = per_layer(workload, results[0], traced, tracer)
        metrics = report(spec["per_layer"], values)
    else:
        metrics = report(spec["end_to_end"], e2e)

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "passes": len(results),
              "pass_walls_s": [r.wall_s for r in results],
              "pass_latencies_s": [list(zip(r.labels, r.latencies))
                                   for r in results],
              "setups_s": setups, "imports_s": imports,
              "deterministic": results[0].deterministic,
              "end_to_end": e2e, "metrics": metrics,
              "env": environment(native_cc), "failed": failed,
              "failures": failures, "drift": drifts}
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{stem}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    if args.trace:
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(str(WORK / "traces" / f"{stem}.jsonl"))

    print_summary(spec, record, attempted,
                  tracer.self_seconds() if args.trace else None)
    correct = not failed and not drifts
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def print_summary(spec, record, attempted, layer_seconds):
    """Every metric by name and unit, the error rate, the model outputs
    and the environment, above the JSON result line."""
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} passes={record['passes']}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in record["end_to_end"].items():
        print(f"  {name:<34} {value:>14.4f} {units[name]}")
    failed = record["failed"]
    print(f"  {'error_rate':<34} {failed / attempted:>14.4f} fraction "
          f"({failed} failed of {attempted} attempted)")
    print(f"  {'determinism_drift':<34} {len(record['drift']):>14d} outputs")
    samples = sum(len(latencies) for latencies in record["pass_latencies_s"])
    print(f"  latency samples: {samples} over {record['passes']} passes "
          f"({samples - math.ceil(0.95 * samples)} beyond p95)")
    if layer_seconds is not None:
        for name, entry in record["metrics"].items():
            print(f"  {name:<34} {entry['value']:>14.4f} {entry['unit']}")
        layer_ms = {layer: round(1e3 * seconds, 3)
                    for layer, seconds in sorted(layer_seconds.items())}
        print(f"  layer self ms: {json.dumps(layer_ms)}")
    for name, value in record["deterministic"].items():
        print(f"  {name:<34} {value:>14.4f} {MODEL_UNITS[name]} "
              f"(model output)")
    print(f"  env: {json.dumps(record['env'], sort_keys=True)}")
    for line in record["failures"] + record["drift"]:
        print(f"  FAILED {line}")


if __name__ == "__main__":
    sys.exit(main())
