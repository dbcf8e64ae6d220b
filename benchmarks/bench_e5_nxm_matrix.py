"""E5 — mass customization discipline (§3.1): the N×M validation matrix.

N architectures x M programs, every cell compiled by the same table-driven
toolchain, executed on the cycle simulator and validated against both the
Python oracle and the machine-independent functional simulation.  The
pass-rate of the matrix is the quantitative form of "all toolchain changes
support all architectures in range".  The whole matrix, timed from a cold
pipeline (front end, back end and cycle simulation of every cell), is
gated as ``cold_matrix_ms``.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.arch import clustered_vliw4, dsp_core, risc_baseline, vliw2, vliw4, vliw8
from repro.pipeline import CompilePipeline
from repro.toolchain import run_matrix

from conftest import bench_metric, print_table, run_once, write_baseline

MACHINES = [risc_baseline(), vliw2(), vliw4(), vliw8(), clustered_vliw4(), dsp_core()]
KERNELS = ["dot_product", "saturated_add", "viterbi_acs", "sad16",
           "rgb_to_gray", "ip_checksum", "histogram"]
SIZE = 24

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_nxm_matrix.json"


def test_e5_nxm_matrix(benchmark):
    def cold_matrix():
        # A fresh pipeline: every cell compiles and simulates from source.
        pipeline = CompilePipeline()
        start = time.perf_counter()
        report = run_matrix(MACHINES, kernel_names=KERNELS, size=SIZE,
                            opt_level=2, pipeline=pipeline)
        return report, time.perf_counter() - start

    report, seconds = run_once(benchmark, cold_matrix)
    cold_matrix_ms = round(seconds * 1e3, 1)

    print_table("E5: N x M matrix (per-cell cycles / correctness)", report.to_rows())

    grid_rows = []
    for kernel in report.kernels:
        row = {"kernel": kernel}
        for machine in report.machines:
            cell = report.cell(machine, kernel)
            row[machine] = cell.cycles if cell.correct else "FAIL"
        grid_rows.append(row)
    print_table("E5: cycles per (kernel, machine) cell", grid_rows)
    print(f"\nE5 summary: {len(report.cells)} cells "
          f"({len(report.machines)} architectures x {len(report.kernels)} programs), "
          f"pass rate {100 * report.pass_rate():.1f}%, "
          f"{cold_matrix_ms:.0f} ms from a cold pipeline.")

    # The baseline JSON is the report's own schema-versioned export
    # (MatrixReport.to_dict — the same helper the service layer builds
    # its matrix responses from), not an ad-hoc dict.
    write_baseline(OUTPUT, "e5_nxm_matrix", {
        "size": SIZE,
        "report": report.to_dict(),
    }, metrics={
        "pass_rate": bench_metric(report.pass_rate(), kind="fidelity",
                                  floor=1.0),
        "cells": bench_metric(len(report.cells), kind="fidelity",
                              floor=len(MACHINES) * len(KERNELS),
                              ceiling=len(MACHINES) * len(KERNELS)),
        "cold_matrix_ms": bench_metric(cold_matrix_ms, direction="lower",
                                       band=4.0, slack=2.0),
    })

    assert len(report.cells) == len(MACHINES) * len(KERNELS)
    assert report.all_correct, [c.error for c in report.failures]
