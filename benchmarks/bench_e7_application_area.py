"""E7 — §6.1: tailor to an application *area* under real-time objectives.

The original E7 summed independent per-kernel cycle counts to stand in
for "the application".  This version retires that hand-rolled
aggregation and runs *real* multi-kernel dataflow applications through
:mod:`repro.app`: seeded generated graphs (chain / fan-in / diamond)
whose nodes pass windows of data along typed edges, executed window by
window against an arrival period and a deadline.

Two tables come out:

* **per-machine real-time behaviour** — every application × preset
  machine pair, with deadline-miss rate, p50/p99 window latency, jitter
  and energy per window (every node of every window checked against the
  composed Python oracle);
* **objective winners** — the same weighted application mix explored
  over a design space once per objective.  The headline assertion is
  the ISSUE-9 acceptance criterion: optimizing for
  ``deadline_miss_rate`` returns a *different* winning machine than raw
  ``performance`` — once the deadline is met, energy decides.

Results go to ``BENCH_application_rt.json`` at the repository root.
"""

from __future__ import annotations

from pathlib import Path

from repro.api import Session
from repro.arch import dsp_core, risc_baseline, vliw2, vliw4
from repro.app import run_application
from repro.dse import AppEvaluator, ApplicationMix, DesignSpace, Explorer
from repro.gen import APP_TOPOLOGIES, sample_application

from conftest import (
    bench_metric, print_table, run_once, shrink_knob, write_baseline,
)

#: seed shared with tests/_shared.py: the same applications the
#: differential engine tests prove bit-identical across engines.
APP_SEED = 11

#: the real-time envelope: one 32-sample window every 30 us, finished
#: within 30 us (tight enough that narrow machines miss).
PERIOD_US = 30.0
DEADLINE_US = 30.0

MACHINES = (risc_baseline(), vliw2(), vliw4(), dsp_core())

OBJECTIVES_TO_COMPARE = ("performance", "deadline_miss_rate",
                         "p99_latency", "energy_per_window")

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_application_rt.json"


def _applications(windows: int):
    return [sample_application(topology, APP_SEED, windows=windows,
                               period_us=PERIOD_US, deadline_us=DEADLINE_US)
            for topology in APP_TOPOLOGIES]


def test_e7_application_rt(benchmark, pytestconfig):
    windows = shrink_knob(pytestconfig, "E7_WINDOWS", 8, 4)
    apps = _applications(windows)
    session = Session(name="bench-e7")
    # the chain is the product's hot path; the others ride along.
    mix = ApplicationMix("rt_area", [(apps[0], 3.0)] +
                         [(app, 1.0) for app in apps[1:]])
    space = DesignSpace.small()

    def experiment():
        reports = {}
        for app in apps:
            for machine in MACHINES:
                reports[(app.name, machine.name)] = run_application(
                    app, machine, engine="compiled",
                    pipeline=session.pipeline)
        results = {}
        for objective in OBJECTIVES_TO_COMPARE:
            evaluator = AppEvaluator(mix, pipeline=session.pipeline)
            explorer = Explorer(evaluator, objective=objective,
                                batch=session.batch_evaluator(evaluator))
            results[objective] = explorer.exhaustive(space)
        return reports, results

    reports, results = run_once(benchmark, experiment)

    machine_rows = []
    for app in apps:
        for machine in MACHINES:
            row = reports[(app.name, machine.name)].summary_row()
            del row["engine"], row["fidelity"]
            machine_rows.append(row)
    print_table(
        f"E7: per-machine real-time behaviour "
        f"({windows} windows, deadline {DEADLINE_US}us)", machine_rows)

    winner_rows = []
    for objective, result in results.items():
        best = result.best
        row = best.summary_row()
        winner_rows.append({
            "objective": objective,
            "winner": best.machine.name,
            "miss_rate": row["miss_rate"],
            "p50_us": row["p50_us"],
            "p99_us": row["p99_us"],
            "jitter_us": row["jitter_us"],
            "energy_per_window_uj": row["energy_per_window_uj"],
            "points": result.points_evaluated,
        })
    print_table("E7: objective winners over the design space", winner_rows)

    perf_winner = results["performance"].best.machine.name
    deadline_winner = results["deadline_miss_rate"].best.machine.name
    print(f"\nE7 summary: performance picks {perf_winner}, "
          f"deadline_miss_rate picks {deadline_winner} "
          f"({'different' if perf_winner != deadline_winner else 'same'} "
          f"machines) over {results['performance'].points_evaluated} points.")

    write_baseline(OUTPUT, "e7_application_rt", {
        "seed": APP_SEED,
        "windows": windows,
        "period_us": PERIOD_US,
        "deadline_us": DEADLINE_US,
        "applications": [app.name for app in apps],
        "fingerprints": {app.name: app.fingerprint() for app in apps},
        "machine_rows": machine_rows,
        "objective_winners": winner_rows,
        "batch_stats": None,
    }, metrics={
        "correct_fraction": bench_metric(
            sum(1 for row in machine_rows if row["correct"])
            / max(1, len(machine_rows)), kind="fidelity", floor=1.0),
        "winners_differ": bench_metric(
            1.0 if perf_winner != deadline_winner else 0.0,
            kind="fidelity", floor=1.0),
    }, shrunk=bool(pytestconfig.getoption("--shrink")))

    # Every node of every window on every machine matched its oracle.
    assert all(row["correct"] for row in machine_rows)
    # Load variation shows up as genuine jitter somewhere in the table.
    assert any(row["jitter_us"] > 0 for row in machine_rows)
    # Wider machines finish windows faster than the scalar baseline.
    for app in apps:
        assert (reports[(app.name, "vliw4")].p99_latency_us
                < reports[(app.name, "risc32")].p99_latency_us)
    # The ISSUE-9 acceptance criterion: real-time objectives change the
    # design-space answer.
    assert perf_winner != deadline_winner, (
        f"deadline_miss_rate and performance picked the same machine "
        f"({perf_winner}); the real-time objective should trade raw "
        f"speed for energy once the deadline is met")
