"""End-to-end observability: spans, metrics, and run manifests.

Every layer of the stack — ``Session.execute``, each pipeline stage,
the execution engines, the batch evaluator, and the whole service fleet
— reports into :mod:`repro.obs`: a zero-dependency span tracer, a typed
metrics registry, and JSONL run manifests.  This example runs two
requests through a traced session and then plays the operator:

1. pull the ``trace_id`` from the response provenance and render the
   span waterfall (what ``python -m repro inspect <trace_id>`` shows);
2. read the run-manifest journal back and list what it recorded;
3. export the session's metrics registry as Prometheus text (what
   ``python -m repro stats --format prometheus`` emits).

Run with:  python examples/observability_quickstart.py
"""

from __future__ import annotations

import os
import tempfile

from repro import RunRequest, Session
from repro.obs import (
    read_journal, journal_spans, render_prometheus, render_waterfall,
    snapshot_value, span_depth,
)


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-obs-") as root:
        observe(os.path.join(root, "journal.jsonl"))


def observe(journal_path: str) -> None:

    # obs="trace" turns on spans + manifests for this session only
    # (the process default stays whatever REPRO_OBS says; "metrics"
    # when unset).  The journal can also come from --journal on the
    # CLI or the REPRO_OBS_JOURNAL environment variable.
    with Session(name="obs-demo", obs="trace",
                 journal=journal_path) as session:
        cold = session.execute(RunRequest(kernel="fir_filter",
                                          machine="vliw4", size=64))
        warm = session.execute(RunRequest(kernel="fir_filter",
                                          machine="vliw4", size=64))
        snapshot = session.metrics()

    print("== two traced requests ==")
    print(f"cold run: {cold.cycles} cycles, "
          f"trace_id {cold.provenance.trace_id}")
    print(f"warm run: {warm.cycles} cycles, "
          f"trace_id {warm.provenance.trace_id}")

    # 1. the stitched span tree of the cold request, straight from the
    # journal (a live daemon answers the same question over the
    # ``trace`` protocol op).
    events = read_journal(journal_path, trace_id=cold.provenance.trace_id)
    spans = journal_spans(events)
    print("\n== span waterfall (cold request) ==")
    print(render_waterfall(spans))
    print(f"span depth: {span_depth(spans)}")

    # 2. what the journal recorded: one provenance-complete manifest
    # per root request (request JSON + provenance + spans + metrics).
    all_events = read_journal(journal_path)
    print(f"\n== journal ==\n{journal_path}: {len(all_events)} manifests")
    for event in all_events:
        stages = (event.get("provenance") or {}).get("stages") or []
        hits = sum(1 for stage in stages if stage.get("hit"))
        print(f"  {event['kind']:<10} trace {event['trace_id'][:12]}…  "
              f"{len(event.get('spans', []))} spans, "
              f"{hits}/{len(stages)} stage hits")

    # 3. the typed metrics registry, Prometheus-style.  The same
    # counters back Session.metrics(), store.stats_dict() and the
    # daemon's fleet-merged ``stats`` op.
    print("\n== metrics ==")
    hits = snapshot_value(snapshot, "store_hits")
    misses = snapshot_value(snapshot, "store_misses")
    print(f"store lookups: {hits:.0f} hits / {misses:.0f} misses")
    print(f"requests observed: "
          f"{snapshot_value(snapshot, 'session_requests'):.0f}")
    text = render_prometheus(snapshot)
    excerpt = [line for line in text.splitlines()
               if line.startswith(("repro_store_hits",
                                   "repro_session_requests",
                                   "repro_engine_run_seconds_count"))]
    print("prometheus excerpt:")
    for line in excerpt:
        print(f"  {line}")


if __name__ == "__main__":
    main()
