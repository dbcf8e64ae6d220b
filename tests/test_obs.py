"""The observability substrate: modes, metrics, tracer, journal, CLI.

The end-to-end tests at the bottom drive a real daemon (thread-mode for
speed, process-mode for the cross-process stitching guarantee) and
assert the acceptance contract of repro.obs: one request → one
trace_id, spanning client → daemon → worker → pipeline stage, with the
metric families visible in valid Prometheus text.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.api.cli import main as cli_main
from repro.api.requests import MatrixRequest, RunRequest
from repro.api.session import Session
from repro.exec import CODE_STAGE, CompiledSimulator
from repro.obs import (
    DEFAULT_BUCKETS, Histogram, JournalEncodeError, MetricsRegistry,
    ObsJournal, StageStats,
    Tracer, global_tracer, journal_spans, latest_metrics, merge_snapshot,
    metrics_enabled, obs_mode, obs_override, quantile_from_buckets,
    read_journal, render_prometheus, render_trace_summary, render_waterfall,
    reset_global_tracer, set_obs_mode, snapshot_quantile, snapshot_value,
    span_depth, tracing_enabled, validate_obs_mode,
)
from repro.pipeline.store import ArtifactStore
from repro.service import ServiceClient, ServiceDaemon


@pytest.fixture(autouse=True)
def _clean_obs_state(monkeypatch):
    """Each test starts from the default mode with an empty tracer."""
    monkeypatch.delenv("REPRO_OBS", raising=False)
    monkeypatch.delenv("REPRO_OBS_JOURNAL", raising=False)
    set_obs_mode(None)
    reset_global_tracer()
    yield
    set_obs_mode(None)
    reset_global_tracer()


# ----------------------------------------------------------------------
# Mode resolution.
# ----------------------------------------------------------------------

class TestObsMode:

    def test_default_is_metrics(self):
        assert obs_mode() == "metrics"
        assert metrics_enabled() and not tracing_enabled()

    def test_validate_rejects_unknown(self):
        with pytest.raises(ValueError):
            validate_obs_mode("verbose")

    def test_env_selects_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "trace")
        assert obs_mode() == "trace" and tracing_enabled()
        monkeypatch.setenv("REPRO_OBS", "off")
        assert obs_mode() == "off" and not metrics_enabled()

    def test_set_obs_mode_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "off")
        set_obs_mode("trace")
        assert obs_mode() == "trace"
        set_obs_mode(None)
        assert obs_mode() == "off"

    def test_override_nests_and_beats_global(self):
        set_obs_mode("off")
        with obs_override("trace"):
            assert obs_mode() == "trace"
            with obs_override("metrics"):
                assert obs_mode() == "metrics"
            assert obs_mode() == "trace"
        assert obs_mode() == "off"

    def test_override_none_is_transparent(self):
        with obs_override(None):
            assert obs_mode() == "metrics"

    def test_override_is_thread_local(self):
        seen = {}

        def other():
            seen["mode"] = obs_mode()

        with obs_override("trace"):
            thread = threading.Thread(target=other)
            thread.start()
            thread.join()
        assert seen["mode"] == "metrics"


# ----------------------------------------------------------------------
# The metrics registry.
# ----------------------------------------------------------------------

class TestMetricsRegistry:

    def test_counter_get_or_create_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("requests", {"kind": "run"})
        b = registry.counter("requests", {"kind": "run"})
        c = registry.counter("requests", {"kind": "matrix"})
        assert a is b and a is not c
        a.inc()
        a.inc(2)
        assert a.value == 3.0 and c.value == 0.0

    def test_gauge_set_and_inc(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(4)
        gauge.inc(-1)
        assert gauge.value == 3.0

    def test_histogram_bucket_correctness(self):
        h = Histogram("lat", (), buckets=(0.1, 1.0))
        for value in (0.05, 0.1, 0.5, 5.0):
            h.observe(value)
        # 0.05 and 0.1 land in le=0.1 (upper bounds are inclusive),
        # 0.5 in le=1.0, 5.0 in the +Inf overflow bucket.
        assert h.counts() == [2, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(5.65)

    def test_quantile_interpolation(self):
        # counts [1, 1, 1] over bounds [0.1, 1.0]: the median rank 1.5
        # falls halfway through the second bucket → 0.1 + 0.5*(1.0-0.1).
        assert quantile_from_buckets([0.1, 1.0], [1, 1, 1], 0.5) == \
            pytest.approx(0.55)
        # the overflow bucket clamps to the top finite bound.
        assert quantile_from_buckets([0.1, 1.0], [1, 1, 1], 1.0) == 1.0
        assert quantile_from_buckets([0.1, 1.0], [0, 0, 0], 0.99) == 0.0
        with pytest.raises(ValueError):
            quantile_from_buckets([0.1], [1, 0], 1.5)

    def test_snapshot_and_lookup_helpers(self):
        registry = MetricsRegistry()
        registry.counter("hits", {"stage": "a"}).inc(3)
        registry.counter("hits", {"stage": "b"}).inc(4)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["schema_version"] == 1
        assert snapshot_value(snapshot, "hits") == 7.0
        assert snapshot_value(snapshot, "hits", stage="a") == 3.0
        assert snapshot_quantile(snapshot, "lat", 0.5) == pytest.approx(0.5)
        assert json.loads(json.dumps(snapshot)) == snapshot  # wire-safe

    def test_merge_snapshot_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("jobs").inc(2)
        a.gauge("depth").set(5)
        a.histogram("lat", buckets=(1.0,)).observe(0.5)
        b.counter("jobs").inc(3)
        b.gauge("depth").set(1)
        b.histogram("lat", buckets=(1.0,)).observe(2.0)
        merged = merge_snapshot(a.snapshot(), b.snapshot())
        assert snapshot_value(merged, "jobs") == 5.0  # counters add
        assert snapshot_value(merged, "depth") == 1.0  # gauges last-wins
        series = [s for s in merged["series"] if s["name"] == "lat"]
        assert series[0]["counts"] == [1, 1] and series[0]["count"] == 2

    def test_reset_zeroes_in_place(self):
        registry = MetricsRegistry()
        counter = registry.counter("store_hits", {"stage": "x"})
        other = registry.counter("jobs")
        counter.inc(9)
        other.inc(2)
        registry.reset(prefix="store_")
        assert counter.value == 0.0  # the same object, zeroed
        assert other.value == 2.0   # untouched by the prefix filter

    def test_registry_thread_safety(self):
        registry = MetricsRegistry()
        counter = registry.counter("n")
        histogram = registry.histogram("h", buckets=DEFAULT_BUCKETS)

        def work():
            for _ in range(1000):
                counter.inc()
                histogram.observe(0.001)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000.0
        assert histogram.count == 8000
        assert sum(histogram.counts()) == 8000


class TestPrometheusRendering:

    def test_counter_gauge_and_histogram_exposition(self):
        registry = MetricsRegistry()
        registry.counter("hits", {"stage": "backend"},
                         help="store hits").inc(3)
        registry.gauge("depth").set(2)
        registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.5)
        text = render_prometheus(registry.snapshot())
        assert '# HELP repro_hits store hits' in text
        assert '# TYPE repro_hits counter' in text
        assert 'repro_hits{stage="backend"} 3' in text
        assert 'repro_depth 2' in text
        # buckets are cumulative and end with +Inf == _count.
        assert 'repro_lat_bucket{le="0.1"} 0' in text
        assert 'repro_lat_bucket{le="1"} 1' in text
        assert 'repro_lat_bucket{le="+Inf"} 1' in text
        assert 'repro_lat_count 1' in text
        assert text.endswith("\n")

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("errs", {"msg": 'a"b\\c\nd'}).inc()
        text = render_prometheus(registry.snapshot())
        assert r'msg="a\"b\\c\nd"' in text


# ----------------------------------------------------------------------
# The StageStats view and the single-counted store counters.
# ----------------------------------------------------------------------

class TestStageStatsView:

    def test_view_and_registry_are_one_number(self):
        registry = MetricsRegistry()
        stats = StageStats(registry, "backend")
        stats.hits += 2
        stats.seconds_saved += 0.5
        snapshot = registry.snapshot()
        assert snapshot_value(snapshot, "store_hits", stage="backend") == 2.0
        assert snapshot_value(snapshot, "store_seconds_saved",
                              stage="backend") == 0.5
        assert isinstance(stats.hits, int)
        assert stats.as_dict()["hits"] == 2

    def test_as_dict_matches_attribute_view(self):
        stats = StageStats(MetricsRegistry(), "backend")

        def by_attribute():
            return {"hits": stats.hits, "disk_hits": stats.disk_hits,
                    "misses": stats.misses, "puts": stats.puts,
                    "evictions": stats.evictions,
                    "disk_evictions": stats.disk_evictions,
                    "corrupt": stats.corrupt,
                    "hit_rate": round(stats.hit_rate, 4),
                    "seconds_built": round(stats.seconds_built, 6),
                    "seconds_saved": round(stats.seconds_saved, 6)}

        # repr pins key order and int-vs-float as well as the values.
        assert repr(stats.as_dict()) == repr(by_attribute())
        stats.hits += 3
        stats.disk_hits += 1
        stats.misses += 2
        stats.puts += 2
        stats.seconds_built += 0.1234567
        stats.seconds_saved += 0.5
        assert repr(stats.as_dict()) == repr(by_attribute())
        assert stats.as_dict()["hit_rate"] == round(4 / 6, 4)

    def test_store_stats_backed_by_registry(self):
        store = ArtifactStore(capacity=4)
        store.put("stage", "k1", "v1", seconds=0.1)
        assert store.get("stage", "k1").payload == "v1"
        assert store.get("stage", "nope") is None
        snapshot = store.metrics()
        assert snapshot_value(snapshot, "store_hits", stage="stage") == 1.0
        assert snapshot_value(snapshot, "store_misses", stage="stage") == 1.0

    def test_store_clear_resets_views_in_place(self):
        store = ArtifactStore(capacity=4)
        stats = store.stats("stage")
        store.put("stage", "k", "v")
        store.get("stage", "k")
        assert stats.hits == 1
        store.clear()
        assert stats.hits == 0  # the held view observes the reset
        store.get("stage", "k")
        assert stats.misses == 1

    def test_code_cache_eviction_counted_once(self, dot_module, sad_module):
        """One eviction ticks one counter: the store's stage view and its
        registry series are the same number."""
        store = ArtifactStore(capacity=1)
        CompiledSimulator(dot_module, store=store)
        CompiledSimulator(sad_module, store=store)  # evicts the first entry
        assert store.stats(CODE_STAGE).evictions == 1
        assert snapshot_value(store.metrics(), "store_evictions",
                              stage=CODE_STAGE) == 1.0


# ----------------------------------------------------------------------
# The tracer.
# ----------------------------------------------------------------------

class TestTracer:

    def test_off_mode_records_nothing(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            assert span.trace_id == ""
            span.note(extra=1)  # the null span swallows notes
        assert tracer.trace_ids() == []

    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with obs_override("trace"):
            with tracer.span("root") as root:
                with tracer.span("child") as child:
                    with tracer.span("grandchild"):
                        pass
                assert child.parent_id == root.span_id
            trace_id = root.trace_id
        spans = tracer.spans_for(trace_id)
        assert len(spans) == 3
        assert {s["trace_id"] for s in spans} == {trace_id}
        assert span_depth(spans) == 3

    def test_error_status_recorded(self):
        tracer = Tracer()
        with obs_override("trace"):
            with pytest.raises(RuntimeError):
                with tracer.span("boom") as span:
                    raise RuntimeError("no")
        (recorded,) = tracer.spans_for(span.trace_id)
        assert recorded["status"] == "error"
        assert "RuntimeError" in recorded["attrs"]["error"]

    def test_adopt_grafts_under_remote_parent(self):
        tracer = Tracer()
        with obs_override("trace"):
            with tracer.adopt("t" * 32, "p" * 16):
                with tracer.span("local") as span:
                    pass
        assert span.trace_id == "t" * 32
        assert span.parent_id == "p" * 16

    def test_take_drains_and_ingest_dedups(self):
        tracer = Tracer()
        with obs_override("trace"):
            with tracer.span("work") as span:
                pass
        trace_id = span.trace_id
        shipped = tracer.take(trace_id)
        assert len(shipped) == 1 and tracer.spans_for(trace_id) == []
        other = Tracer()
        assert other.ingest(shipped) == 1
        assert other.ingest(shipped) == 0  # same span_id: deduplicated
        assert len(other.spans_for(trace_id)) == 1

    def test_trace_buffer_is_bounded(self):
        tracer = Tracer(max_traces=2, max_spans_per_trace=3)
        with obs_override("trace"):
            for _ in range(4):
                with tracer.span("root"):
                    for _ in range(5):
                        with tracer.span("child"):
                            pass
        assert len(tracer.trace_ids()) == 2
        for trace_id in tracer.trace_ids():
            assert len(tracer.spans_for(trace_id)) <= 3


# ----------------------------------------------------------------------
# The journal.
# ----------------------------------------------------------------------

class TestJournal:

    def test_manifest_round_trip_and_filters(self, tmp_path):
        journal = ObsJournal(str(tmp_path / "obs.jsonl"))
        journal.manifest(kind="run", trace_id="t1", source="test",
                         request={"kind": "run"}, metrics={"series": []},
                         spans=[{"trace_id": "t1", "span_id": "s1",
                                 "parent_id": None, "name": "root",
                                 "start_ts": 1.0, "seconds": 0.5}])
        journal.spans("t1", [{"trace_id": "t1", "span_id": "s2",
                              "parent_id": "s1", "name": "kid",
                              "start_ts": 1.1, "seconds": 0.1}],
                      source="client")
        journal.manifest(kind="run", trace_id="t2", source="test")
        assert len(read_journal(journal.path)) == 3
        events = read_journal(journal.path, trace_id="t1")
        assert len(events) == 2
        spans = journal_spans(events)
        assert {s["span_id"] for s in spans} == {"s1", "s2"}
        assert span_depth(spans) == 2

    def test_torn_lines_skipped(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        path.write_text('{"event": "manifest", "trace_id": "t"}\n'
                        '{"torn...\n' '[1, 2]\n')
        events = read_journal(str(path))
        assert len(events) == 1

    def test_latest_metrics_takes_newest_snapshot(self, tmp_path):
        journal = ObsJournal(str(tmp_path / "obs.jsonl"))
        journal.write({"event": "manifest", "ts": 1.0,
                       "metrics": {"series": [{"type": "counter",
                                               "name": "n", "labels": {},
                                               "value": 1}]}})
        journal.write({"event": "manifest", "ts": 2.0,
                       "metrics": {"series": [{"type": "counter",
                                               "name": "n", "labels": {},
                                               "value": 5}]}})
        metrics = latest_metrics(read_journal(journal.path))
        assert snapshot_value(metrics, "n") == 5.0  # newest, not the sum

    def test_read_missing_journal_is_empty(self, tmp_path):
        assert read_journal(str(tmp_path / "absent.jsonl")) == []

    def test_write_rejects_non_round_trippable_events(self, tmp_path):
        journal = ObsJournal(str(tmp_path / "obs.jsonl"))
        with pytest.raises(JournalEncodeError, match="extra.bad"):
            journal.write({"event": "manifest",
                           "extra": {"bad": {1, 2, 3}}})
        with pytest.raises(JournalEncodeError, match="nan"):
            journal.write({"event": "manifest", "nan": float("nan")})
        with pytest.raises(JournalEncodeError):
            journal.write({"event": "manifest", "obj": object()})
        # Nothing half-written: the journal stays empty after refusals.
        assert read_journal(journal.path) == []
        # Tuples and to_dict objects are fine — they canonicalize.
        journal.write({"event": "manifest", "pair": (1, 2)})
        events = read_journal(journal.path)
        assert events[0]["pair"] == [1, 2]

    def test_manifest_flags_degraded_sections(self, tmp_path):
        journal = ObsJournal(str(tmp_path / "obs.jsonl"))
        journal.manifest(kind="run", trace_id="t1", source="test",
                         request={"kind": "run"},
                         provenance={"poison": object()})
        event = read_journal(journal.path)[0]
        # The poisoned section was dropped and named; the rest survived.
        assert "provenance" not in event
        assert event["request"] == {"kind": "run"}
        assert any("provenance" in entry for entry in event["degraded"])

    def test_journal_spans_keeps_idless_spans(self):
        events = [{"event": "spans", "spans": [
            {"span_id": "a", "name": "one"},
            {"name": "no-id-1"},
            {"span_id": "a", "name": "one-dup"},
            {"name": "no-id-2"},
        ]}]
        spans = journal_spans(events)
        names = [span["name"] for span in spans]
        # Duplicate ids collapse; id-less spans are all kept.
        assert names == ["one", "no-id-1", "no-id-2"]

    def test_latest_metrics_skips_corrupt_ts_and_breaks_ties(self):
        series = lambda value: {"series": [{  # noqa: E731
            "type": "counter", "name": "n", "labels": {}, "value": value}]}
        events = [
            {"event": "manifest", "ts": "not-a-time", "metrics": series(1)},
            {"event": "manifest", "ts": float("nan"), "metrics": series(2)},
            {"event": "manifest", "ts": 5.0, "metrics": series(3)},
            {"event": "manifest", "ts": 5.0, "metrics": series(4)},
            {"event": "manifest", "ts": 1.0, "metrics": series(5)},
        ]
        metrics = latest_metrics(events)
        # Unparseable timestamps skipped; the 5.0 tie goes to the later
        # event in journal order, and the older 1.0 never wins.
        assert snapshot_value(metrics, "n") == 4.0

    def test_renderers_cover_manifest_and_spans(self):
        spans = [
            {"trace_id": "t", "span_id": "a", "parent_id": None,
             "name": "session.run", "start_ts": 0.0, "seconds": 1.0,
             "status": "ok"},
            {"trace_id": "t", "span_id": "b", "parent_id": "a",
             "name": "stage.backend", "start_ts": 0.25, "seconds": 0.5,
             "status": "error"},
        ]
        events = [{"event": "manifest", "kind": "run", "source": "test",
                   "request": {"kind": "run"},
                   "provenance": {"engine": "cycle", "fidelity": "cycle",
                                  "stages": [{"hit": True}]}}]
        waterfall = render_waterfall(spans)
        assert "session.run" in waterfall and "!error" in waterfall
        summary = render_trace_summary(events, spans)
        assert "kind      : run" in summary
        assert "depth 2" in summary
        assert render_waterfall([]) == "(no spans)"


# ----------------------------------------------------------------------
# Session-level observability.
# ----------------------------------------------------------------------

class TestSessionObs:

    def test_metrics_mode_counts_requests(self):
        with Session(name="obs-m") as session:
            session.execute(RunRequest(kernel="dot_product",
                                       machine="vliw4", size=16))
            snapshot = session.metrics()
        assert snapshot_value(snapshot, "session_requests", kind="run") == 1.0
        assert snapshot_value(snapshot, "engine_run_seconds") == \
            pytest.approx(snapshot_value(snapshot, "request_seconds"))

    def test_off_mode_skips_request_metrics_keeps_store_counters(self):
        with Session(name="obs-off", obs="off") as session:
            session.execute(RunRequest(kernel="dot_product",
                                       machine="vliw4", size=16))
            snapshot = session.metrics()
        assert snapshot_value(snapshot, "session_requests") == 0.0
        assert snapshot_value(snapshot, "store_misses") > 0.0
        assert global_tracer().trace_ids() == []

    def test_trace_mode_stamps_provenance_and_journals(self, tmp_path):
        journal_path = str(tmp_path / "session.jsonl")
        with Session(name="obs-t", obs="trace",
                     journal=journal_path) as session:
            response = session.execute(RunRequest(kernel="dot_product",
                                                  machine="vliw4", size=16))
        trace_id = response.provenance.trace_id
        assert len(trace_id) == 32
        events = read_journal(journal_path, trace_id=trace_id)
        assert len(events) == 1
        manifest = events[0]
        assert manifest["kind"] == "run"
        assert manifest["request"]["kernel"] == "dot_product"
        assert manifest["metrics"]["series"]
        spans = journal_spans(events)
        names = {s["name"] for s in spans}
        assert "session.run" in names and "stage.backend" in names
        assert span_depth(spans) >= 3

    def test_store_stats_match_registry(self):
        with Session(name="obs-store") as session:
            session.execute(RunRequest(kernel="dot_product",
                                       machine="vliw4", size=16))
            stats = session.store.stats_dict()
            snapshot = session.metrics()
        assert stats
        for stage, counters in stats.items():
            for field in ("hits", "misses"):
                assert counters[field] == snapshot_value(
                    snapshot, f"store_{field}", stage=stage)

    def test_journal_env_default(self, tmp_path, monkeypatch):
        path = str(tmp_path / "env.jsonl")
        monkeypatch.setenv("REPRO_OBS_JOURNAL", path)
        with Session(name="obs-env", obs="trace") as session:
            session.execute(RunRequest(kernel="dot_product",
                                       machine="vliw4", size=16))
        assert read_journal(path)


# ----------------------------------------------------------------------
# Service-fleet observability (thread-mode daemon: full protocol,
# in-process, coverage-visible).
# ----------------------------------------------------------------------

@pytest.fixture()
def traced_daemon(tmp_path):
    set_obs_mode("trace")
    daemon = ServiceDaemon(str(tmp_path / "svc"), workers=2,
                           worker_mode="thread", name="obs-daemon",
                           task_timeout=120.0)
    with daemon:
        with ServiceClient(daemon.endpoint) as client:
            yield daemon, client


class TestServiceObs:

    def test_single_stitched_trace_thread_mode(self, traced_daemon):
        daemon, client = traced_daemon
        response = client.execute(
            MatrixRequest(machines=["vliw4", "risc32"],
                          kernels=["crc32", "dot_product"], size=16),
            timeout=120)
        trace_id = response.provenance.trace_id
        assert len(trace_id) == 32
        reply = client.trace(trace_id)
        spans = reply["spans"]
        assert {s["trace_id"] for s in spans} == {trace_id}
        names = {s["name"] for s in spans}
        for required in ("client.execute", "daemon.job", "worker.task",
                         "stage.cell"):
            assert required in names, names
        assert span_depth(spans) >= 4
        # the daemon journaled the job, and the client's late spans.
        events = read_journal(daemon.journal.path, trace_id=trace_id)
        kinds = {event["event"] for event in events}
        assert kinds == {"manifest", "spans"}

    def test_daemon_metrics_cover_queue_and_cache(self, traced_daemon):
        daemon, client = traced_daemon
        client.execute(RunRequest(kernel="dot_product", machine="vliw4",
                                  size=16), timeout=120)
        snapshot = client.stats()["metrics"]
        assert snapshot_value(snapshot, "jobs_claimed") >= 1.0
        assert snapshot_value(snapshot, "jobs_finished", state="done") >= 1.0
        assert snapshot_quantile(snapshot, "queue_wait_seconds", 0.99) >= 0.0
        names = {series["name"] for series in snapshot["series"]}
        assert "queue_depth" in names
        assert "store_hits" in names          # cache family
        assert "engine_run_seconds" in names  # engine family (worker-merged)
        text = render_prometheus(snapshot)
        assert "repro_queue_wait_seconds_bucket" in text

    def test_second_request_reuses_nothing_across_traces(self, traced_daemon):
        daemon, client = traced_daemon
        request = MatrixRequest(machines=["vliw4"], kernels=["crc32"],
                                size=16)
        first = client.execute(request, timeout=120)
        second = client.execute(request, timeout=120)
        assert first.provenance.trace_id != second.provenance.trace_id
        spans = client.trace(second.provenance.trace_id)["spans"]
        assert {s["trace_id"] for s in spans} == \
            {second.provenance.trace_id}
        # the warm matrix still shows its per-cell lookups.
        assert any(s["name"] == "stage.cell" and s["attrs"].get("hit")
                   for s in spans)

    def test_obs_spans_op_validates(self, traced_daemon):
        daemon, client = traced_daemon
        from repro.service import ServiceError

        with pytest.raises(ServiceError):
            client._call({"op": "obs.spans", "spans": "not-a-list"})
        reply = client._call({"op": "obs.spans", "spans": [
            {"trace_id": "t" * 32, "span_id": "s" * 16, "name": "x",
             "start_ts": 0.0, "seconds": 0.0}], "source": "test"})
        assert reply["ingested"] == 1

    def test_single_stitched_trace_process_mode(self, tmp_path):
        """Cross-process stitching: spans cross two real process hops."""
        set_obs_mode("trace")
        daemon = ServiceDaemon(str(tmp_path / "svc"), workers=2,
                               worker_mode="process", name="obs-proc",
                               task_timeout=120.0)
        with daemon:
            with ServiceClient(daemon.endpoint) as client:
                response = client.execute(
                    MatrixRequest(machines=["vliw4", "risc32"],
                                  kernels=["crc32", "dot_product"],
                                  size=16),
                    timeout=120)
                trace_id = response.provenance.trace_id
                spans = client.trace(trace_id)["spans"]
                snapshot = client.stats()["metrics"]
        assert {s["trace_id"] for s in spans} == {trace_id}
        names = {s["name"] for s in spans}
        for required in ("client.execute", "daemon.job", "worker.task",
                         "stage.cell"):
            assert required in names, names
        assert span_depth(spans) >= 4
        # worker registry snapshots crossed the socket and merged.
        assert snapshot_value(snapshot, "store_puts") > 0.0


# ----------------------------------------------------------------------
# The CLI: --obs/--journal, stats, inspect.
# ----------------------------------------------------------------------

class TestObsCli:

    def _run_traced(self, tmp_path, capsys):
        journal = str(tmp_path / "cli.jsonl")
        code = cli_main(["run", "--kernel", "dot_product",
                         "--machine", "vliw4", "--size", "16",
                         "--obs", "trace", "--journal", journal])
        assert code == 0
        response = json.loads(capsys.readouterr().out)
        return journal, response["provenance"]["trace_id"]

    def test_run_with_obs_trace_then_inspect(self, tmp_path, capsys):
        journal, trace_id = self._run_traced(tmp_path, capsys)
        assert cli_main(["inspect", trace_id, "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert "session.run" in out and "trace " + trace_id in out

    def test_inspect_json_and_missing_trace(self, tmp_path, capsys):
        journal, trace_id = self._run_traced(tmp_path, capsys)
        assert cli_main(["inspect", trace_id, "--journal", journal,
                         "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["trace_id"] == trace_id and data["spans"]
        assert cli_main(["inspect", "f" * 32, "--journal", journal]) == 1

    def test_stats_from_journal(self, tmp_path, capsys):
        journal, _ = self._run_traced(tmp_path, capsys)
        assert cli_main(["stats", "--journal", journal]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot_value(snapshot, "session_requests", kind="run") == 1.0

    def test_stats_prometheus_format(self, tmp_path, capsys):
        journal, _ = self._run_traced(tmp_path, capsys)
        assert cli_main(["stats", "--journal", journal,
                         "--format", "prometheus"]) == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_store_hits counter" in text
        assert "# TYPE repro_request_seconds histogram" in text

    def test_stats_without_sources_renders_fresh_registry(self, capsys):
        assert cli_main(["stats"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["schema_version"] == 1


class TestModelObs:
    def test_model_layer_emits_spans(self):
        """capture_trace and RetimingModel.price show up in a trace —
        the analytic model is part of the instrumented pipeline."""
        from repro.arch.presets import get_preset
        from repro.model import RetimingModel
        from repro.workloads import get_kernel

        kernel = get_kernel("dot_product")
        machine = get_preset("vliw4")
        with obs_override("trace"), Session(name="obs-model") as session:
            pipeline = session.pipeline
            module, _ = pipeline.front(kernel.source, kernel.name,
                                       opt_level=2)
            compiled, _report = pipeline.backend(module, machine)
            tracer = global_tracer()
            with tracer.span("test.model") as root:
                trace, _record = pipeline.trace(
                    module, kernel.entry, kernel.arguments(16, seed=7))
                estimate = RetimingModel().price(compiled, machine, trace)
                trace_id = root.trace_id
            spans = tracer.take(trace_id)
        names = {span["name"] for span in spans}
        assert "model.capture_trace" in names
        assert "model.price" in names
        priced = next(s for s in spans if s["name"] == "model.price")
        assert priced["attrs"]["cycles"] == estimate.cycles
        assert priced["attrs"]["machine"] == "vliw4"
