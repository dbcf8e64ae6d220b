"""E9 — execution-tier speedups: interpreter vs threaded code vs native C.

The paper's toolchain argument leans on simulation that is "as fast as
possible" so that architectures can be explored per application.  This
benchmark measures what the `repro.exec` subsystem buys, tier by tier:
for a slice of the kernel suite it times

* the reference interpreter (:class:`FunctionalSimulator`), whose
  per-kernel ms is also gated on its own, banded;
* the threaded-code engine (:class:`CompiledSimulator`), cold
  (translation included) and warm (the translation served by the
  ``exec.code`` stage of an artifact store);
* the generated-C native engine (:class:`NativeSimulator`), warm (the
  ``.so`` compiled once, runs timed with fresh simulators) — skipped
  when the host has no C compiler;
* native batches (:func:`run_batch`): every builtin kernel over 32
  argument sets with its ``.so`` already loaded, so the per-set figure
  is setup plus run with no compile.  Its ceiling catches any return of
  per-set simulator construction;
* native build cost: the mean :meth:`NativeToolchain.compile` time of
  the builtin kernels' units over that of an empty one-function unit.
  The ratio cancels host speed; its ceiling catches a return of
  optimizer time that cold requests, which run short inputs, never repay;
* customized machines: crc32, fir_filter and popcount_buffer at O3,
  customized for vliw4 at 40 kgates, warm on the compiled and native
  engines next to their base modules.  Custom ops run inline as their
  pattern's base operations, so the customized native run's ceiling is
  twice the base one.

Results are written to ``BENCH_compiled_engine.json`` at the repository
root so the perf trajectory of the engines is tracked over time.  Run
with ``--shrink`` (or the ``E9_*`` env knobs) for the CI smoke scale.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.arch import vliw4
from repro.exec import (
    CODE_STAGE, CompiledSimulator, NativeSimulator, global_native_toolchain, native_available, run_batch, translate,
)
from repro.exec.nativegen import render_c_program
from repro.frontend import compile_c
from repro.ir import Opcode
from repro.opt import optimize
from repro.pipeline import ArtifactStore
from repro.sim import FunctionalSimulator
from repro.toolchain import Toolchain
from repro.workloads import KERNELS, get_kernel

from conftest import (
    bench_metric, print_table, run_once, shrink_knob, write_baseline,
)

#: (kernel, problem size) — sizes chosen so execution dominates setup.
CASES = [
    ("dot_product", 512),
    ("fir_filter", 192),
    ("matmul4", None),
    ("crc32", 256),
    ("viterbi_acs", 96),
]

#: argument sets per native batch (what a ``RunRequest(batch=32)`` sends).
BATCH_SETS = 32
#: ceiling on ``native_batch_ms_per_set``: per-set simulator construction
#: measured 0.77-0.97 ms per set, one reused simulator 0.18-0.25 ms.
NATIVE_BATCH_CEILING_MS = 0.5
#: ceiling on ``native_compile_floor_ratio``: built at -O2 the kernels
#: read 2.1-2.6 times the empty unit, at -O0 1.35-1.5.
NATIVE_COMPILE_FLOOR_CEILING = 1.8
#: the compile floor: what cc costs for a unit with nothing in it.
EMPTY_UNIT = "long repro_empty(void) { return 0; }\n"
#: (kernel, problem size) run at O3 on vliw4 customized at 40 kgates.
CUSTOM_CASES = [
    ("crc32", 256),
    ("fir_filter", 256),
    ("popcount_buffer", 256),
]
#: ceiling on customized native ms over base native ms, per kernel.  With
#: a ctypes callback per custom op it read 190x (crc32), 168x
#: (fir_filter) and 55x (popcount_buffer); inline it reads about 1x.
CUSTOM_NATIVE_CEILING = 2.0

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_compiled_engine.json"


def _best_time(make_simulator, module, entry, args, repeats):
    """Best-of-N wall time of one fresh-simulator run (returns s, value)."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        simulator = make_simulator(module)
        run_args = tuple(list(a) if isinstance(a, list) else a for a in args)
        start = time.perf_counter()
        value = simulator.run(entry, *run_args)
        best = min(best, time.perf_counter() - start)
    return best, value


def _native_batch_ms_per_set(repeats):
    """Best-of-N ms per argument set of warm native batches, all kernels."""
    cases = []
    for name in sorted(KERNELS):
        kernel = get_kernel(name)
        module = compile_c(kernel.source, module_name=name)
        optimize(module, level=2)
        arg_sets = [kernel.arguments(None, seed=2026 + lane)
                    for lane in range(BATCH_SETS)]
        expected = [kernel.expected(a) for a in arg_sets]
        run_batch(module, kernel.entry, arg_sets[:1])  # load the .so
        cases.append((kernel.entry, module, arg_sets, expected))
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        results = [run_batch(module, entry, arg_sets)
                   for entry, module, arg_sets, _expected in cases]
        best = min(best, time.perf_counter() - start)
        for result, case in zip(results, cases):
            assert result.engine_used == "native"
            assert result.values == case[3]
    return best / (len(cases) * BATCH_SETS) * 1e3


def _native_compile_ms(repeats):
    """(kernel ms, empty ms) per unit compiled, best of N rounds.

    Each round interleaves the two: an empty unit before every kernel
    unit, so both means see the same host phase.
    """
    toolchain = global_native_toolchain()
    sources = []
    for name in sorted(KERNELS):
        module = compile_c(get_kernel(name).source, module_name=name)
        optimize(module, level=2)
        sources.append(render_c_program(module).source)
    best_kernel = best_empty = float("inf")
    for _ in range(repeats):
        kernel_s = empty_s = 0.0
        for source in sources:
            start = time.perf_counter()
            toolchain.compile(EMPTY_UNIT)
            middle = time.perf_counter()
            toolchain.compile(source)
            kernel_s += time.perf_counter() - middle
            empty_s += middle - start
        best_kernel = min(best_kernel, kernel_s / len(sources))
        best_empty = min(best_empty, empty_s / len(sources))
    return best_kernel * 1e3, best_empty * 1e3


def _customized_rows(repeats, scale, has_native):
    """Warm compiled/native ms of base and customized modules, per case."""
    rows = []
    for name, size in CUSTOM_CASES:
        kernel = get_kernel(name)
        base = compile_c(kernel.source, module_name=name)
        optimize(base, level=3)
        customized = base.clone()
        Toolchain(vliw4()).customize(customized, area_budget_kgates=40.0)
        custom_ops = sum(inst.opcode is Opcode.CUSTOM for f in customized
                         for b in f.blocks for inst in b.instructions)
        assert custom_ops, f"customization left {name} without CUSTOM ops"
        args = kernel.arguments(max(8, size // scale), seed=2026)
        expected = kernel.expected(args)
        row = {"kernel": name, "size": max(8, size // scale),
               "custom_ops": custom_ops}
        for label, module in (("base", base), ("custom", customized)):
            store = ArtifactStore()
            translate(module, store)
            seconds, value = _best_time(
                lambda m: CompiledSimulator(m, store=store),
                module, kernel.entry, args, repeats)
            assert value == expected
            row[f"compiled_{label}_ms"] = round(seconds * 1e3, 3)
        if has_native:
            native_store = ArtifactStore()
            for label, module in (("base", base), ("custom", customized)):
                NativeSimulator(module, store=native_store)
                # Best of at least 3 even under --shrink: the ceiling is
                # asserted.
                seconds, value = _best_time(
                    lambda m: NativeSimulator(m, store=native_store),
                    module, kernel.entry, args, max(repeats, 3))
                assert value == expected
                row[f"native_{label}_ms"] = round(seconds * 1e3, 3)
            row["native_custom_ratio"] = round(
                row["native_custom_ms"] / row["native_base_ms"], 2)
        rows.append(row)
    return rows


def test_e9_execution_tiers(benchmark, pytestconfig):
    repeats = shrink_knob(pytestconfig, "E9_REPEATS", 3, 1)
    scale = shrink_knob(pytestconfig, "E9_SIZE_DIVISOR", 1, 4)
    has_native = native_available()

    def experiment():
        rows = []
        for name, size in CASES:
            kernel = get_kernel(name)
            module = compile_c(kernel.source, module_name=name)
            optimize(module, level=2)
            case_size = None if size is None else max(8, size // scale)
            args = kernel.arguments(case_size, seed=2026)
            expected = kernel.expected(args)

            interp_s, interp_value = _best_time(
                FunctionalSimulator, module, kernel.entry, args, repeats)

            # Cold: private store, first construction pays translation.
            cold_store = ArtifactStore()
            cold_s, cold_value = _best_time(
                lambda m: CompiledSimulator(m, store=cold_store),
                module, kernel.entry, args, repeats=1)

            # Warm: every construction hits the translation in the store.
            warm_store = ArtifactStore()
            translate(module, warm_store)
            warm_s, warm_value = _best_time(
                lambda m: CompiledSimulator(m, store=warm_store),
                module, kernel.entry, args, repeats)

            assert interp_value == expected
            assert cold_value == expected and warm_value == expected

            row = {
                "kernel": name,
                "size": case_size or kernel.default_size,
                "interp_ms": round(interp_s * 1e3, 3),
                "cold_ms": round(cold_s * 1e3, 3),
                "warm_ms": round(warm_s * 1e3, 3),
                "cold_speedup": round(interp_s / cold_s, 2),
                "warm_speedup": round(interp_s / warm_s, 2),
                "cache_hit_rate": warm_store.stats(CODE_STAGE).hit_rate,
            }

            if has_native:
                # Warm native: the .so is compiled once (construction
                # outside the timer, mirroring the warm compiled case);
                # fresh simulators then share the loaded program.
                native_store = ArtifactStore()
                NativeSimulator(module, store=native_store)
                native_s, native_value = _best_time(
                    lambda m: NativeSimulator(m, store=native_store),
                    module, kernel.entry, args, repeats)
                assert native_value == expected
                row["native_ms"] = round(native_s * 1e3, 3)
                row["native_speedup"] = round(interp_s / native_s, 1)
                row["native_vs_compiled"] = round(warm_s / native_s, 1)
            rows.append(row)
        return rows, _customized_rows(repeats, scale, has_native)

    rows, custom_rows = run_once(benchmark, experiment)
    print_table("E9: execution tiers (interpreter / compiled / native)", rows)
    print_table("E9: customized machines (O3, vliw4 at 40 kgates)",
                custom_rows)

    warm_speedups = [r["warm_speedup"] for r in rows]
    best = max(warm_speedups)
    mean = sum(warm_speedups) / len(warm_speedups)
    summary = {
        "best_warm_speedup": best,
        "mean_warm_speedup": round(mean, 2),
    }
    lines = [f"warm compiled {best:.2f}x best / {mean:.2f}x mean over "
             f"{len(rows)} kernels"]
    if has_native:
        native_speedups = [r["native_speedup"] for r in rows]
        summary["best_native_speedup"] = max(native_speedups)
        summary["mean_native_speedup"] = round(
            sum(native_speedups) / len(native_speedups), 1)
        lines.append(f"native {max(native_speedups):.1f}x best over the "
                     f"interpreter")
        # Best of at least 3 even under --shrink: the ceiling is asserted.
        summary["native_batch_ms_per_set"] = round(
            _native_batch_ms_per_set(max(repeats, 3)), 4)
        lines.append(f"native batch {summary['native_batch_ms_per_set']:.3f}"
                     f" ms/set over {len(KERNELS)} kernels x {BATCH_SETS}")
        kernel_ms, empty_ms = _native_compile_ms(max(repeats, 3))
        summary["native_compile_ms_per_unit"] = round(kernel_ms, 2)
        summary["native_compile_empty_ms"] = round(empty_ms, 2)
        summary["native_compile_floor_ratio"] = round(kernel_ms / empty_ms,
                                                      3)
        lines.append(f"native compile {kernel_ms:.1f} ms/unit, "
                     f"{summary['native_compile_floor_ratio']:.2f}x the "
                     f"{empty_ms:.1f} ms empty unit")
        summary["max_native_custom_ratio"] = max(
            r["native_custom_ratio"] for r in custom_rows)
        lines.append(f"customized native at most "
                     f"{summary['max_native_custom_ratio']:.2f}x base")
    print("\nE9 summary: " + "; ".join(lines) + ".")

    # Acceptance floors (env-overridable for noisy shared runners).
    warm_floor = shrink_knob(pytestconfig, "E9_MIN_WARM_SPEEDUP",
                             2.0, 2.0, cast=float)
    metrics = {
        "best_warm_speedup": bench_metric(best, band=4.0, floor=warm_floor),
        "mean_warm_speedup": bench_metric(summary["mean_warm_speedup"],
                                          band=4.0),
    }
    # The interpreter's own speed, absolute: the ratios above move when
    # either side does, so they cannot pin a regression on one tier.
    for row in rows:
        metrics[f"interp_ms.{row['kernel']}"] = bench_metric(
            row["interp_ms"], direction="lower", band=4.0, slack=2.0)
    if has_native:
        metrics["best_native_speedup"] = bench_metric(
            summary["best_native_speedup"], band=4.0,
            floor=shrink_knob(pytestconfig, "E9_MIN_NATIVE_VS_INTERP",
                              25.0, 5.0, cast=float))
        metrics["native_batch_ms_per_set"] = bench_metric(
            summary["native_batch_ms_per_set"], direction="lower", band=4.0,
            ceiling=NATIVE_BATCH_CEILING_MS)
        metrics["native_compile_floor_ratio"] = bench_metric(
            summary["native_compile_floor_ratio"], direction="lower",
            ceiling=NATIVE_COMPILE_FLOOR_CEILING)
        metrics["max_native_custom_ratio"] = bench_metric(
            summary["max_native_custom_ratio"], direction="lower",
            ceiling=CUSTOM_NATIVE_CEILING)
    write_baseline(OUTPUT, "e9_execution_tiers", {
        "repeats": repeats,
        "native_available": has_native,
        "rows": rows,
        "custom_rows": custom_rows,
        "summary": summary,
    }, metrics=metrics,
        shrunk=bool(pytestconfig.getoption("--shrink")))

    assert best >= warm_floor
    if has_native:
        assert (summary["native_batch_ms_per_set"]
                <= NATIVE_BATCH_CEILING_MS), (
            f"native batches cost {summary['native_batch_ms_per_set']} ms "
            f"per set (ceiling {NATIVE_BATCH_CEILING_MS}): is per-set setup "
            f"back?")
        assert (summary["native_compile_floor_ratio"]
                <= NATIVE_COMPILE_FLOOR_CEILING), (
            f"a native unit compiles in "
            f"{summary['native_compile_floor_ratio']}x the empty unit "
            f"(ceiling {NATIVE_COMPILE_FLOOR_CEILING}): is the optimizer "
            f"back in the build flags?")
        assert (summary["max_native_custom_ratio"]
                <= CUSTOM_NATIVE_CEILING), (
            f"a customized kernel runs natively in "
            f"{summary['max_native_custom_ratio']}x its base time (ceiling "
            f"{CUSTOM_NATIVE_CEILING}): do custom ops leave C again?")
        vs_compiled_floor = shrink_knob(
            pytestconfig, "E9_MIN_NATIVE_VS_COMPILED", 5.0, 2.0, cast=float)
        vs_interp_floor = shrink_knob(
            pytestconfig, "E9_MIN_NATIVE_VS_INTERP", 25.0, 5.0, cast=float)
        good = sum(1 for r in rows
                   if r["native_vs_compiled"] >= vs_compiled_floor
                   and r["native_speedup"] >= vs_interp_floor)
        assert good * 2 >= len(rows), (
            f"native tier fast enough on only {good}/{len(rows)} kernels "
            f"(floors: {vs_compiled_floor}x vs compiled, "
            f"{vs_interp_floor}x vs interpreter)")


def test_e9_obs_off_overhead(benchmark, pytestconfig):
    """``--obs off`` must add no measurable cost to the hot engine path.

    Two measurements: the per-call cost of a would-be span when the
    mode is ``off`` (one mode check, no allocation), and the warm
    compiled-engine run time under ``off`` vs ``metrics`` — the tiers
    benchmarked above must be unchanged when observability is disabled.
    """
    from repro.obs import global_tracer, obs_override, reset_global_tracer

    repeats = max(shrink_knob(pytestconfig, "E9_REPEATS", 3, 1), 3)
    kernel = get_kernel("dot_product")
    module = compile_c(kernel.source, module_name="dot_product")
    optimize(module, level=2)
    args = kernel.arguments(256, seed=2026)
    expected = kernel.expected(args)
    store = ArtifactStore()
    translate(module, store)

    def timed_run(mode):
        with obs_override(mode):
            best = float("inf")
            for _ in range(repeats):
                simulator = CompiledSimulator(module, store=store)
                run_args = tuple(list(a) if isinstance(a, list) else a
                                 for a in args)
                start = time.perf_counter()
                value = simulator.run(kernel.entry, *run_args)
                best = min(best, time.perf_counter() - start)
            assert value == expected
        return best

    def experiment():
        iterations = 20000
        tracer = global_tracer()
        with obs_override("off"):
            start = time.perf_counter()
            for _ in range(iterations):
                with tracer.span("bench"):
                    pass
            per_span_us = (time.perf_counter() - start) / iterations * 1e6
        off_s = timed_run("off")
        metrics_s = timed_run("metrics")
        reset_global_tracer()
        return per_span_us, off_s, metrics_s

    per_span_us, off_s, metrics_s = run_once(benchmark, experiment)
    print(f"\nE9 obs overhead: null span {per_span_us:.3f} us/call; warm "
          f"compiled run {off_s * 1e3:.3f} ms (off) vs "
          f"{metrics_s * 1e3:.3f} ms (metrics)")

    if OUTPUT.exists():
        baseline = json.loads(OUTPUT.read_text())
        baseline["obs_overhead"] = {
            "null_span_us": round(per_span_us, 3),
            "warm_off_ms": round(off_s * 1e3, 3),
            "warm_metrics_ms": round(metrics_s * 1e3, 3),
        }
        OUTPUT.write_text(json.dumps(baseline, indent=2) + "\n")

    # A disabled span is one mode check — far below a single simulated
    # instruction.  The band is generous for noisy shared CI runners.
    assert per_span_us < shrink_knob(pytestconfig, "E9_MAX_NULL_SPAN_US",
                                     25.0, 25.0, cast=float)
    # The off path must sit within noise of the uninstrumented engine
    # (the hot run loop opens no spans and touches no counters).
    assert off_s <= metrics_s * 1.5 + 1e-3, (
        f"obs off slower than metrics mode: {off_s:.6f}s vs {metrics_s:.6f}s")
