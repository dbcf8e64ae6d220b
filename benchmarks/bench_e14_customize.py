"""E14 — per-phase cost of ISA customization (identify, select, rewrite).

Customization is the paper's headline flow: profile a program, identify
candidate fused operations, select under area and opcode budgets, and
rewrite the program to use the winners.  This benchmark runs the real
``CustomizeRequest`` path for the six O3 kernels on ``vliw4`` whose
identification used to dominate every customize request, and times the
three phases where :class:`~repro.core.IsaCustomizer` calls them
(``repro.core.customizer.identify_candidates``, ``select`` and
``apply_selection``).  Each request runs ``REPEATS`` times; a phase's
time is its best run.

Gated in ``BENCH_customize.json`` at the repository root:

* per kernel, identify/select/rewrite ms (lower is better, banded), with
  an absolute ceiling on viterbi_acs identification, the largest search;
* per kernel, the candidate and selected-operation counts, which must
  reproduce exactly (the search is exact and its order follows the
  block, so the same inputs give the same customization).
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.api import Session
from repro.api.requests import CustomizeRequest
from repro.core import customizer as customizer_module

from conftest import bench_metric, print_table, run_once, write_baseline

KERNELS = ["viterbi_acs", "fir_filter", "sad16", "popcount_buffer",
           "ip_checksum", "crc32"]
MACHINE = "vliw4"
OPT_LEVEL = 3
REPEATS = 3
PHASES = {"identify": "identify_candidates", "select": "select",
          "rewrite": "apply_selection"}

#: absolute bound on viterbi_acs identification (ms).  The set-based
#: search this replaced took 15-19 s on the same container.
VITERBI_IDENTIFY_CEILING_MS = 1000.0

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_customize.json"


def _instrument(monkeypatch):
    """Time the customizer's three phases; returns the per-call log of
    ``(phase, seconds, result)``."""
    log = []
    for phase, attribute in PHASES.items():
        function = getattr(customizer_module, attribute)

        def wrapper(*args, _function=function, _phase=phase, **kwargs):
            start = time.perf_counter()
            result = _function(*args, **kwargs)
            log.append((_phase, time.perf_counter() - start, result))
            return result

        monkeypatch.setattr(customizer_module, attribute, wrapper)
    return log


def test_e14_customize(benchmark, monkeypatch):
    log = _instrument(monkeypatch)
    session = Session(name="bench-e14")

    def experiment():
        rows = []
        for kernel in KERNELS:
            best = dict.fromkeys(PHASES, float("inf"))
            for _ in range(REPEATS):
                log.clear()
                response = session.execute(CustomizeRequest(
                    kernel=kernel, machine=MACHINE, opt_level=OPT_LEVEL))
                assert response.correct, kernel
                for phase in PHASES:
                    best[phase] = min(best[phase], sum(
                        seconds for name, seconds, _ in log if name == phase))
            candidates = next(len(result) for name, _, result in log
                              if name == "identify")
            rows.append({
                "kernel": kernel,
                "identify_ms": round(1e3 * best["identify"], 2),
                "select_ms": round(1e3 * best["select"], 2),
                "rewrite_ms": round(1e3 * best["rewrite"], 2),
                "candidates": candidates,
                "selected": len(response.selected_ops),
                "speedup": round(response.speedup, 4),
            })
        return rows

    rows = run_once(benchmark, experiment)
    session.close()
    print_table(f"E14: customization phases, O{OPT_LEVEL} on {MACHINE} "
                f"(best of {REPEATS})", rows)

    metrics = {}
    for row in rows:
        kernel = row["kernel"]
        for phase in PHASES:
            value = row[f"{phase}_ms"]
            ceiling = (VITERBI_IDENTIFY_CEILING_MS
                       if (kernel, phase) == ("viterbi_acs", "identify")
                       else None)
            metrics[f"{phase}_ms.{kernel}"] = bench_metric(
                value, direction="lower", band=4.0, slack=2.0,
                ceiling=ceiling)
        metrics[f"candidates.{kernel}"] = bench_metric(
            row["candidates"], kind="fidelity")
        metrics[f"selected.{kernel}"] = bench_metric(
            row["selected"], kind="fidelity")
    write_baseline(OUTPUT, "e14_customize", {
        "machine": MACHINE, "opt_level": OPT_LEVEL, "repeats": REPEATS,
        "rows": rows,
    }, metrics=metrics)

    viterbi = next(row for row in rows if row["kernel"] == "viterbi_acs")
    assert viterbi["identify_ms"] <= VITERBI_IDENTIFY_CEILING_MS
