"""E11 — population-scale DSE over generated workloads.

Previous experiments swept 8 hand-written kernels; this one manufactures
a 100+ kernel population (fixed seed, 5 scenario families) with
:mod:`repro.gen` and pushes it through the whole stack:

* **compile** — every kernel through the staged pipeline, twice on one
  store (cold vs. warm sweep: the content-addressed reuse story must
  hold for generated source exactly as for the hand-written suite);
* **execute** — every kernel on both functional engines, checked
  bit-identical against its generated Python oracle;
* **characterize** — static (op histograms, ILP bound) and dynamic
  (memory/branch fractions) features, aggregated per family;
* **customize** — per-family customization gain through the standard
  ``Evaluator``/``BatchEvaluator`` path on a 4-issue baseline.

Results land in ``BENCH_generated_population.json`` at the repo root.
``GEN_POPULATION`` (env) shrinks the population for CI smoke runs.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

from repro.arch import vliw4
from repro.gen import WorkloadPopulation
from repro.pipeline import CompilePipeline

from conftest import bench_metric, print_table, run_once, write_baseline

POPULATION_SIZE = int(os.environ.get("GEN_POPULATION", "100"))
SEED = 20260730
OPT_LEVEL = 2
BUDGET_KGATES = 32.0
KERNELS_PER_FAMILY_GAIN = 3
#: timed warm sweeps; the median is the figure (one sweep is noisy).
WARM_REPEATS = 3

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_generated_population.json"


def _compile_sweep(pipeline, population, machine):
    start = time.perf_counter()
    for generated in population:
        pipeline.build(generated.kernel.source, machine,
                       name=generated.kernel.name, opt_level=OPT_LEVEL)
    return time.perf_counter() - start


def test_e11_generated_population(benchmark):
    def experiment():
        population = WorkloadPopulation.generate(POPULATION_SIZE, seed=SEED)
        machine = vliw4()
        pipeline = CompilePipeline()

        cold_s = _compile_sweep(pipeline, population, machine)
        warm_s = statistics.median(
            _compile_sweep(pipeline, population, machine)
            for _ in range(WARM_REPEATS))

        with population:
            validated = population.validate(pipeline=pipeline)
            report = population.report(
                budget=BUDGET_KGATES, opt_level=OPT_LEVEL,
                kernels_per_family=KERNELS_PER_FAMILY_GAIN,
                pipeline=pipeline)

        summary = {
            "population": len(population),
            "families": len(population.families()),
            "seed": SEED,
            "valid_both_engines": sum(validated.values()),
            "cold_compile_s": round(cold_s, 4),
            "warm_compile_s": round(warm_s, 4),
            "warm_speedup": round(cold_s / warm_s, 2) if warm_s > 0 else 0.0,
            "budget_kgates": BUDGET_KGATES,
            "mean_gain": round(
                sum(row["gain"] for row in report["families"])
                / max(1, len(report["families"])), 3),
        }
        return report["families"], summary

    rows, summary = run_once(benchmark, experiment)
    display = [{k: row[k] for k in
                ("family", "kernels", "mean_ilp_bound", "mean_memory_fraction",
                 "mean_branch_fraction", "base_time_us", "custom_time_us",
                 "gain", "custom_ops")} for row in rows]
    print_table(
        f"E11: generated population ({summary['population']} kernels, "
        f"budget {BUDGET_KGATES:.0f} kgates)", display)
    print(
        f"\nE11 summary: {summary['valid_both_engines']}/"
        f"{summary['population']} kernels bit-identical on both engines; "
        f"compile sweep cold {summary['cold_compile_s'] * 1e3:.0f} ms, warm "
        f"{summary['warm_compile_s'] * 1e3:.0f} ms "
        f"({summary['warm_speedup']}x); mean customization gain "
        f"{summary['mean_gain']}x across {summary['families']} families."
    )

    write_baseline(OUTPUT, "e11_generated_population", {
        "opt_level": OPT_LEVEL,
        "rows": rows,
        "summary": summary,
    }, metrics={
        "valid_fraction": bench_metric(
            summary["valid_both_engines"] / max(1, summary["population"]),
            kind="fidelity", floor=1.0),
        "families": bench_metric(summary["families"], kind="fidelity",
                                 floor=5, ceiling=5),
        "warm_speedup": bench_metric(summary["warm_speedup"], band=4.0,
                                     floor=3.0),
        "mean_gain": bench_metric(summary["mean_gain"], band=2.0,
                                  floor=0.99),
    }, shrunk=POPULATION_SIZE < 100)

    # Acceptance: the whole population is self-checking on both engines,
    # every family reports a characterization + gain record, warm compiles
    # reuse artifacts, and customization never makes a family slower.
    assert summary["valid_both_engines"] == summary["population"]
    assert summary["families"] == 5
    assert all(row["feasible"] for row in rows)
    assert all(row["gain"] >= 0.99 for row in rows)
    assert summary["warm_speedup"] >= 3.0
    if POPULATION_SIZE >= 100:
        assert summary["population"] >= 100
