"""A real-time dataflow application: filter → feature → classifier.

Paper §6.1: a product is not one kernel — it is a *pipeline* of them
running against arrival rates and deadlines.  This example hand-builds a
three-stage :class:`repro.app.ApplicationSpec` (an FIR-style filter
feeding a feature extractor feeding a branchy classifier), runs it
window by window on two machines, and then asks the design-space
explorer the product question: which machine in the space minimizes the
*deadline-miss rate*, and is that the same machine that maximizes raw
performance?  (It usually is not — that divergence is the point of
real-time objectives.)

Run with:  python examples/application_pipeline.py
"""

from __future__ import annotations

from repro.app import AppEdge, AppNode, ApplicationSpec, WindowStream, run_application
from repro.arch import risc_baseline, vliw4
from repro.dse import AppEvaluator, ApplicationMix, DesignSpace, Explorer
from repro.gen import WorkloadSpec

#: explicit seeds so repeated runs are bit-reproducible.
APP_SEED = 2026

#: per-window envelope: a window of 32 samples arrives every 30 us and
#: must be finished within 30 us; the load varies up to 40% per window.
STREAM = WindowStream(windows=8, window_size=32, period_us=30.0,
                      deadline_us=30.0, seed=APP_SEED, load_jitter=0.4)


def build_application() -> ApplicationSpec:
    """filter (streaming DSP) → feature (memory mixed) → classifier."""
    filter_node = AppNode("filter", WorkloadSpec(
        family="streaming_dsp", seed=APP_SEED, taps=8, data_bits=16))
    feature_node = AppNode("feature", WorkloadSpec(
        family="memory_mixed", seed=APP_SEED + 1, stride=3))
    classifier_node = AppNode("classifier", WorkloadSpec(
        family="control_heavy", seed=APP_SEED + 2, branch_density=0.7))
    return ApplicationSpec(
        name="sensor_pipeline",
        nodes=(filter_node, feature_node, classifier_node),
        edges=(
            # the filtered signal becomes the feature extractor's input
            AppEdge(src="filter", dst="feature", src_port="y", dst_port="a"),
            # the extracted feature window feeds the classifier ...
            AppEdge(src="feature", dst="classifier", src_port="out",
                    dst_port="a"),
            # ... and the filter's scalar energy estimate biases it
            AppEdge(src="filter", dst="classifier", dst_port="b"),
        ),
        stream=STREAM,
        seed=APP_SEED,
    )


def show(report) -> None:
    print(f"  {report.machine:<12} correct={report.correct}  "
          f"miss={report.deadline_miss_rate:>5.0%}  "
          f"p50={report.p50_latency_us:6.2f}us  "
          f"p99={report.p99_latency_us:6.2f}us  "
          f"jitter={report.jitter_us:5.2f}us  "
          f"E/win={report.energy_per_window_uj:.4f}uJ")


def main() -> None:
    app = build_application()
    print(f"Application: {app.name}  "
          f"({' -> '.join(n.name for n in app.topological_order())})")
    print(f"Stream     : {STREAM.windows} windows x {STREAM.window_size} "
          f"samples, period {STREAM.period_us}us, "
          f"deadline {STREAM.deadline_us}us\n")

    # 1. Run the pipeline window by window on two fixed machines.  Every
    #    node of every window is checked against the composed Python
    #    oracle; latencies come from the per-node static schedules.
    print("Per-machine window runs:")
    for machine in (vliw4(), risc_baseline()):
        show(run_application(app, machine, engine="compiled"))

    # 2. The product question: search a small space for the machine that
    #    best meets the deadline, and compare with the raw-cycles winner.
    space = DesignSpace(issue_widths=(1, 2, 4), register_counts=(32, 64),
                        cluster_counts=(1,), mul_unit_counts=(1,),
                        mem_unit_counts=(1, 2), custom_budgets=(0.0,))
    mix = ApplicationMix.single(app)
    print("\nDesign-space exploration "
          f"({sum(1 for _ in space.points())} points):")
    winners = {}
    for objective in ("performance", "deadline_miss_rate"):
        evaluator = AppEvaluator(mix)
        result = Explorer(evaluator, objective=objective).exhaustive(space)
        best = result.best
        winners[objective] = best.machine.name
        row = best.summary_row()
        print(f"  objective={objective:<18} -> {best.machine.name:<16} "
              f"miss={row['miss_rate']:>6.2%}  p99={row['p99_us']}us  "
              f"E/win={row['energy_per_window_uj']}uJ")

    if winners["performance"] != winners["deadline_miss_rate"]:
        print("\nThe deadline objective picks a different machine than raw "
              "performance:\nonce the deadline is met, energy decides — "
              "exactly the trade a product team makes.")
    else:
        print("\nBoth objectives agree here; widen the space or tighten "
              "the deadline to see them diverge.")


if __name__ == "__main__":
    main()
