"""E12 — trace-based retiming vs. cycle simulation on the E5 N×M sweep.

PR 2 made *compiling* a sweep cheap; this benchmark measures what the
trace-based analytic model (:mod:`repro.model`) buys on the *evaluation*
side.  The bench_e5 machine × kernel matrix is evaluated twice on one
warm session (all compile artifacts and kernel traces in the store):

* **cycle fidelity** — every cell runs the functional cross-check and
  the cycle-accurate simulator (the pre-model baseline);
* **trace fidelity** — every cell is priced analytically from its
  kernel's one recorded trace; the profiled run doubles as the
  functional oracle.

The benchmark asserts that trace fidelity stays at least 2x cheaper
than cycle fidelity, full oracle agreement at both fidelities, exact
agreement on code size and operation counts, and cycle estimates within
the model's declared tolerance.  The ratio's base is the cycle
simulator, which runs translated blocks rather than interpreting each
operation, so the ratio is modest (about 5x); the cost of trace pricing
itself is gated separately as ``trace_ms_per_cell``.  Results go to
``BENCH_trace_model.json`` at the repository root.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

from repro.api import Session
from repro.arch import clustered_vliw4, dsp_core, risc_baseline, vliw2, vliw4, vliw8
from repro.model import TRACE_CYCLE_TOLERANCE
from repro.toolchain import run_matrix

from conftest import bench_metric, print_table, run_once, write_baseline

MACHINES = [risc_baseline(), vliw2(), vliw4(), vliw8(), clustered_vliw4(),
            dsp_core()]
KERNELS = ["dot_product", "saturated_add", "viterbi_acs", "sad16",
           "rgb_to_gray", "ip_checksum", "histogram"]
SIZE = 24
#: measured warm passes per fidelity; the median is the figure.
WARM_REPEATS = 3

#: acceptance floor for the warm trace-vs-cycle speedup: trace fidelity
#: must stay at least twice as cheap as cycle fidelity.
MIN_SPEEDUP = 2.0

#: the scale-safe floor the baseline metric declares: the regression
#: gate holds any fresh run — noisy CI included — to this absolute
#: bound, while the in-run assertion above uses the env-resolved floor.
GATE_SPEEDUP_FLOOR = 2.0

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_trace_model.json"


def _matrix(session, fidelity):
    start = time.perf_counter()
    report = run_matrix(MACHINES, kernel_names=KERNELS, size=SIZE,
                        opt_level=2, fidelity=fidelity,
                        pipeline=session.pipeline)
    return time.perf_counter() - start, report


def test_e12_trace_model(benchmark):
    session = Session(name="bench-e12")

    def experiment():
        # Warm everything once: compile artifacts, traces, cache replays.
        _matrix(session, "cycle")
        _matrix(session, "trace")
        # Measured, warm passes, the two fidelities interleaved.
        cycle_times, trace_times = [], []
        for _ in range(WARM_REPEATS):
            cycle_s, cycle_report = _matrix(session, "cycle")
            trace_s, trace_report = _matrix(session, "trace")
            cycle_times.append(cycle_s)
            trace_times.append(trace_s)
        return (statistics.median(cycle_times), cycle_report,
                statistics.median(trace_times), trace_report)

    cycle_s, cycle_report, trace_s, trace_report = run_once(benchmark,
                                                            experiment)
    speedup = cycle_s / trace_s if trace_s > 0 else float("inf")
    trace_ms_per_cell = 1e3 * trace_s / max(1, len(trace_report.cells))

    rows = []
    worst_error = 0.0
    for cycle_cell, trace_cell in zip(cycle_report.cells, trace_report.cells):
        assert (cycle_cell.machine, cycle_cell.kernel) == \
            (trace_cell.machine, trace_cell.kernel)
        error = (abs(trace_cell.cycles - cycle_cell.cycles)
                 / max(1, cycle_cell.cycles))
        worst_error = max(worst_error, error)
        rows.append({
            "machine": cycle_cell.machine, "kernel": cycle_cell.kernel,
            "cycle": cycle_cell.cycles, "trace": trace_cell.cycles,
            "err%": round(100 * error, 3),
        })
    print_table("E12: per-cell cycles, cycle vs. trace fidelity", rows)
    print(f"\nE12 summary: {len(rows)} cells "
          f"({len(cycle_report.machines)} machines x "
          f"{len(cycle_report.kernels)} kernels), warm cycle-fidelity "
          f"{cycle_s * 1e3:.1f} ms vs trace-fidelity {trace_s * 1e3:.1f} ms "
          f"-> {speedup:.1f}x; worst cycle error "
          f"{100 * worst_error:.3f}% (tolerance "
          f"{100 * TRACE_CYCLE_TOLERANCE:.0f}%).")

    floor = float(os.environ.get("TRACE_MIN_SPEEDUP", MIN_SPEEDUP))
    write_baseline(OUTPUT, "e12_trace_model", {
        "size": SIZE,
        "cells": len(rows),
        "cycle_seconds": round(cycle_s, 4),
        "trace_seconds": round(trace_s, 4),
        "speedup": round(speedup, 1),
        "trace_ms_per_cell": round(trace_ms_per_cell, 4),
        "worst_cycle_error": round(worst_error, 6),
        "tolerance": TRACE_CYCLE_TOLERANCE,
        "cycle_report": cycle_report.to_dict(),
        "trace_report": trace_report.to_dict(),
    }, metrics={
        "speedup": bench_metric(round(speedup, 1), band=4.0,
                                floor=min(floor, GATE_SPEEDUP_FLOOR)),
        "trace_ms_per_cell": bench_metric(round(trace_ms_per_cell, 4),
                                          direction="lower", band=4.0),
        "worst_cycle_error": bench_metric(
            round(worst_error, 6), direction="lower", kind="fidelity",
            ceiling=TRACE_CYCLE_TOLERANCE),
        "pass_rate": bench_metric(
            (cycle_report.pass_rate() + trace_report.pass_rate()) / 2,
            kind="fidelity", floor=1.0),
    }, shrunk=floor < MIN_SPEEDUP)

    assert cycle_report.all_correct, [c.error for c in cycle_report.failures]
    assert trace_report.all_correct, [c.error for c in trace_report.failures]
    for cycle_cell, trace_cell in zip(cycle_report.cells, trace_report.cells):
        assert trace_cell.operations == cycle_cell.operations
        assert trace_cell.code_bytes == cycle_cell.code_bytes
    assert worst_error <= TRACE_CYCLE_TOLERANCE
    assert speedup >= floor, (
        f"warm trace fidelity only {speedup:.1f}x faster (floor {floor}x)")
