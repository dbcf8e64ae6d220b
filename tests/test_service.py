"""The service layer: protocol, disk store, durable queue, daemon.

Most end-to-end tests run the daemon with thread-mode workers speaking
the full socket protocol in-process (fast, deterministic, visible to
coverage); process-mode isolation and worker-kill fault injection get
their own (slower) tests at the bottom.
"""

from __future__ import annotations

import dataclasses
import json
import os
import socket
import sys
import threading
import time

import pytest

from repro.api.requests import (
    MatrixRequest, Provenance, RunRequest, request_from_dict,
)
from repro.api.session import Session
from repro.service import (
    CELL_STAGE, DiskArtifactStore, DurableQueue, JobFailed, JobRecord,
    QueueError, ServiceClient, ServiceDaemon, ServiceError, WorkerRuntime,
    cell_key, merge_matrix, shard_matrix,
)
from repro.service import protocol
from repro.service.diskstore import QUARANTINE_DIR
from repro.service.tasks import shard_population

MACHINES = ["vliw4", "risc32"]
KERNELS = ["crc32", "dot_product"]


def _strip_provenance(response) -> dict:
    data = response.to_dict()
    data.pop("provenance")
    return data


# ----------------------------------------------------------------------
# Framed protocol.
# ----------------------------------------------------------------------

class TestProtocol:

    def test_parse_endpoint_forms(self):
        assert protocol.parse_endpoint("unix:/tmp/x.sock") == \
            ("unix", "/tmp/x.sock")
        assert protocol.parse_endpoint("/tmp/x.sock") == \
            ("unix", "/tmp/x.sock")
        assert protocol.parse_endpoint("tcp:127.0.0.1:901") == \
            ("tcp", "127.0.0.1", 901)
        assert protocol.parse_endpoint("tcp::901") == ("tcp", "127.0.0.1", 901)
        with pytest.raises(ValueError):
            protocol.parse_endpoint("tcp:nohost:noport")
        with pytest.raises(ValueError):
            protocol.parse_endpoint("unix:")

    def test_frame_round_trip(self):
        a, b = socket.socketpair()
        try:
            message = {"op": "task", "payload": {"deep": [1, 2, {"x": "y"}]}}
            protocol.send_frame(a, message)
            assert protocol.recv_frame(b) == message
            a.close()
            assert protocol.recv_frame(b) is None  # clean EOF
        finally:
            b.close()

    def test_truncated_frame_raises(self):
        a, b = socket.socketpair()
        try:
            protocol.send_frame(a, {"op": "x"})
            # Second frame: header promises more bytes than ever arrive.
            a.sendall(b"\x00\x00\x00\xff{half")
            a.close()
            assert protocol.recv_frame(b) == {"op": "x"}
            with pytest.raises(protocol.ProtocolError):
                protocol.recv_frame(b)
        finally:
            b.close()

    def test_oversized_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\xff\xff\xff\xff")
            with pytest.raises(protocol.ProtocolError):
                protocol.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_dict_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            body = json.dumps([1, 2, 3]).encode()
            a.sendall(len(body).to_bytes(4, "big") + body)
            with pytest.raises(protocol.ProtocolError):
                protocol.recv_frame(b)
        finally:
            a.close()
            b.close()


# ----------------------------------------------------------------------
# Cross-process disk store.
# ----------------------------------------------------------------------

class TestDiskStore:

    def test_round_trip_across_instances(self, tmp_path):
        writer = DiskArtifactStore(str(tmp_path / "store"))
        writer.put("backend", "k1", {"code": [1, 2, 3]}, seconds=0.5)
        reader = DiskArtifactStore(str(tmp_path / "store"))
        artifact = reader.get("backend", "k1")
        assert artifact is not None
        assert artifact.payload == {"code": [1, 2, 3]}
        assert artifact.seconds == 0.5
        assert artifact.source == "disk"
        assert reader.stats("backend").disk_hits == 1
        # Promoted to memory: the next lookup is a memory hit.
        assert reader.get("backend", "k1").source == "memory"

    def test_unpicklable_payload_stays_in_memory(self, tmp_path):
        root = tmp_path / "s"
        store = DiskArtifactStore(str(root))
        payload = {"op": lambda value: value + 1}  # closures do not pickle
        store.put("exec.code", "k", payload)
        assert store.get("exec.code", "k").payload is payload
        assert store.stats("exec.code").corrupt == 0
        leftovers = [name for _dir, _subdirs, files in os.walk(root)
                     for name in files
                     if name.endswith(".art") or ".tmp." in name]
        assert leftovers == []
        assert DiskArtifactStore(str(root)).get("exec.code", "k") is None

    def test_translation_miss_touches_no_file(self, tmp_path, monkeypatch):
        from repro.exec.cache import CODE_STAGE, translate
        from repro.frontend import compile_c

        store = DiskArtifactStore(str(tmp_path / "s"))
        touched = []
        monkeypatch.setattr(store, "_load_disk",
                            lambda *args: touched.append(("load", args)))
        monkeypatch.setattr(store, "_store_disk",
                            lambda *args: touched.append(("store", args)))
        module = compile_c("int f(int x) { return x + 1; }")
        translate(module, store=store)  # miss: built and put
        translate(module, store=store)  # memory hit
        assert touched == []
        stats = store.stats(CODE_STAGE)
        assert (stats.misses, stats.puts, stats.hits) == (1, 1, 1)
        assert os.listdir(store.root) == []

    def test_force_persist_shares_unmarked_stages(self, tmp_path):
        # Every stage persists: no stage has to opt in.
        store = DiskArtifactStore(str(tmp_path / "s"))
        store.put("frontend", "k", "payload")  # persist not requested
        fresh = DiskArtifactStore(str(tmp_path / "s"))
        assert fresh.get("frontend", "k").payload == "payload"

    def test_corruption_detected_and_quarantined(self, tmp_path):
        store = DiskArtifactStore(str(tmp_path / "s"))
        store.put("backend", "bad", [1, 2, 3])
        path = store._disk_path("backend", "bad")
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:  # flip bytes in the pickle body
            handle.write(blob[:-3] + b"zzz")
        fresh = DiskArtifactStore(str(tmp_path / "s"))
        assert fresh.get("backend", "bad") is None
        assert fresh.stats("backend").corrupt == 1
        assert not os.path.exists(path)
        quarantined = os.listdir(tmp_path / "s" / QUARANTINE_DIR)
        assert quarantined == ["backend__bad.art"]
        # A recompute can re-populate the slot afterwards.
        fresh.put("backend", "bad", [1, 2, 3])
        assert fresh.get("backend", "bad").payload == [1, 2, 3]

    def test_truncation_detected(self, tmp_path):
        store = DiskArtifactStore(str(tmp_path / "s"))
        store.put("encode", "t", list(range(100)))
        path = store._disk_path("encode", "t")
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[:len(blob) // 2])
        fresh = DiskArtifactStore(str(tmp_path / "s"))
        assert fresh.get("encode", "t") is None
        assert fresh.stats("encode").corrupt == 1

    def test_size_budget_evicts_lru(self, tmp_path):
        store = DiskArtifactStore(str(tmp_path / "s"),
                                  size_budget_bytes=2_000)
        for index in range(10):
            store.put("backend", f"k{index}", b"x" * 400)
            time.sleep(0.01)  # distinct mtimes for LRU ordering
        assert store.disk_bytes() <= 2_000
        assert store.disk_len() < 10
        evicted = sum(s.disk_evictions for s in store._stats.values())
        assert evicted >= 1
        # Newest entries survive; oldest were evicted.
        fresh = DiskArtifactStore(str(tmp_path / "s"))
        assert fresh.get("backend", "k9") is not None
        assert fresh.get("backend", "k0") is None

    def test_stats_dict_carries_new_counters(self, tmp_path):
        store = DiskArtifactStore(str(tmp_path / "s"))
        store.put("backend", "k", 1)
        stats = store.stats_dict()["backend"]
        assert "corrupt" in stats and "disk_evictions" in stats


# ----------------------------------------------------------------------
# Durable queue.
# ----------------------------------------------------------------------

class TestDurableQueue:

    def test_submit_claim_finish_result(self, tmp_path):
        queue = DurableQueue(str(tmp_path))
        record = queue.submit({"kind": "run", "kernel": "crc32"})
        assert record.state == "queued"
        claimed = queue.claim(timeout=1.0, worker="t")
        assert claimed.id == record.id
        assert claimed.state == "running" and claimed.attempts == 1
        queue.finish(record.id, {"kind": "run.response", "correct": True})
        assert queue.get(record.id).state == "done"
        assert queue.result(record.id)["correct"] is True

    def test_priority_then_fifo(self, tmp_path):
        queue = DurableQueue(str(tmp_path))
        low = queue.submit({"kind": "a"}, priority=0)
        high = queue.submit({"kind": "b"}, priority=5)
        low2 = queue.submit({"kind": "c"}, priority=0)
        order = [queue.claim(timeout=1.0).id for _ in range(3)]
        assert order == [high.id, low.id, low2.id]

    def test_claim_times_out_empty(self, tmp_path):
        queue = DurableQueue(str(tmp_path))
        assert queue.claim(timeout=0.05) is None

    def test_cancel_only_queued(self, tmp_path):
        queue = DurableQueue(str(tmp_path))
        record = queue.submit({"kind": "a"})
        assert queue.cancel(record.id) is True
        assert queue.get(record.id).state == "cancelled"
        running = queue.submit({"kind": "b"})
        queue.claim(timeout=1.0)
        assert queue.cancel(running.id) is False

    def test_requeue_gives_up_after_max_attempts(self, tmp_path):
        queue = DurableQueue(str(tmp_path))
        record = queue.submit({"kind": "a"}, max_attempts=2)
        for attempt in range(2):
            claimed = queue.claim(timeout=1.0)
            assert claimed.id == record.id
            outcome = queue.requeue(record.id, f"death {attempt}")
        assert outcome.state == "failed"
        assert "gave up after 2 attempts" in outcome.error

    def test_restart_recovers_running_and_keeps_done(self, tmp_path):
        queue = DurableQueue(str(tmp_path))
        done = queue.submit({"kind": "a"})
        queue.claim(timeout=1.0)
        queue.finish(done.id, {"kind": "a.response", "value": 7})
        crashed = queue.submit({"kind": "b"})
        queue.claim(timeout=1.0)  # daemon "dies" with this job running
        still_queued = queue.submit({"kind": "c"})

        reborn = DurableQueue(str(tmp_path))
        assert reborn.recovered == [crashed.id]
        revived = reborn.get(crashed.id)
        assert revived.state == "queued" and revived.recovered
        assert revived.attempts == 1 and revived.worker == ""
        assert reborn.get(done.id).state == "done"
        assert reborn.result(done.id)["value"] == 7
        assert reborn.get(still_queued.id).state == "queued"
        # Both pending jobs are claimable, in submission order.
        assert {reborn.claim(timeout=1.0).id for _ in range(2)} == \
            {crashed.id, still_queued.id}

    def test_job_record_golden_round_trip(self, tmp_path):
        record = JobRecord(id="job-000009", request={"kind": "matrix"},
                           priority=3, state="running", seq=9, attempts=1,
                           submitted_at=123.0, started_at=124.0,
                           worker="daemon")
        data = record.to_dict()
        assert data["kind"] == "job" and data["schema_version"] == 1
        assert JobRecord.from_dict(data) == record
        # The journal and the status op emit the same shape.
        queue = DurableQueue(str(tmp_path))
        submitted = queue.submit({"kind": "run"})
        with open(queue.journal_path, encoding="utf-8") as handle:
            last_line = handle.read().splitlines()[-1]
        assert JobRecord.from_dict(json.loads(last_line)) == submitted

    def test_journal_recovery_survives_torn_tail(self, tmp_path):
        queue = DurableQueue(str(tmp_path))
        crashed = queue.submit({"kind": "a"})
        queue.claim(timeout=1.0, worker="dead-daemon")
        waiting = queue.submit({"kind": "b"})
        del queue
        # The daemon died mid-append: an unterminated half line.
        with open(os.path.join(str(tmp_path), "journal.jsonl"), "ab") as f:
            f.write(b'{"kind": "job", "id": "job-0000')

        reborn = DurableQueue(str(tmp_path))
        assert reborn.recovered == [crashed.id]
        late = reborn.submit({"kind": "c"})
        claimed = reborn.claim(timeout=1.0, worker="reborn")
        assert claimed.id == crashed.id and claimed.attempts == 2
        reborn.finish(crashed.id, {"kind": "a.response", "value": 3})
        del reborn

        third = DurableQueue(str(tmp_path))
        assert third.recovered == []
        finished = third.get(crashed.id)
        assert finished.state == "done" and finished.recovered
        assert finished.attempts == 2
        assert third.result(crashed.id)["value"] == 3
        assert [r.id for r in third.list(["queued"])] == [waiting.id, late.id]
        assert len(third) == 3
        third.close()

    def test_wait_wakes_on_terminal_transition_and_close(self, tmp_path):
        queue = DurableQueue(str(tmp_path))
        record = queue.submit({"kind": "a"})
        queue.claim(timeout=1.0)
        assert queue.wait(record.id, 0.05).state == "running"  # times out
        threading.Timer(0.1, queue.fail, (record.id, "boom")).start()
        started = time.monotonic()
        assert queue.wait(record.id, 10.0).state == "failed"
        assert time.monotonic() - started < 5.0
        pending = queue.submit({"kind": "b"})
        threading.Timer(0.1, queue.close).start()
        started = time.monotonic()
        assert queue.wait(pending.id, 10.0).state == "queued"
        assert time.monotonic() - started < 5.0
        assert queue.claim(timeout=10.0) is None
        with pytest.raises(QueueError):
            queue.submit({"kind": "c"})

    def test_done_line_carries_the_response(self, tmp_path):
        queue = DurableQueue(str(tmp_path))
        record = queue.submit({"kind": "run"})
        queue.claim(timeout=1.0)
        response = {"kind": "run.response", "value": [1, 2], "correct": True}
        queue.finish(record.id, response)
        with open(queue.journal_path, encoding="utf-8") as handle:
            last = json.loads(handle.read().splitlines()[-1])
        assert last["state"] == "done" and last["response"] == response
        assert JobRecord.from_dict(last) == queue.get(record.id)
        # Results live in the journal: the queue root holds nothing else.
        assert sorted(os.listdir(str(tmp_path))) == ["journal.jsonl"]
        queue.close()

    def test_reopened_queue_reads_result_at_recorded_offset(self, tmp_path):
        queue = DurableQueue(str(tmp_path))
        record = queue.submit({"kind": "run"})
        queue.claim(timeout=1.0)
        queue.finish(record.id, {"kind": "run.response", "value": 11})
        queue.close()

        reborn = DurableQueue(str(tmp_path))
        offset, length = reborn._done_lines[record.id]
        with open(reborn.journal_path, "rb") as handle:
            line = handle.read()[offset:offset + length]
        assert line.endswith(b"\n")
        assert json.loads(line)["response"] == {"kind": "run.response",
                                                "value": 11}
        assert reborn.result(record.id) == {"kind": "run.response",
                                            "value": 11}
        reborn.close()

    def test_done_line_without_response_reads_as_missing(self, tmp_path):
        # A root journaled before responses moved into done lines.
        old = JobRecord(id="job-000001", request={"kind": "run"},
                        state="done", seq=1, attempts=1)
        with open(tmp_path / "journal.jsonl", "w", encoding="utf-8") as f:
            f.write(json.dumps(old.to_dict(), sort_keys=True) + "\n")
        queue = DurableQueue(str(tmp_path))
        assert queue.get(old.id).state == "done"
        assert queue.result(old.id) is None
        queue.close()

    def test_torn_done_line_requeues_the_job(self, tmp_path):
        queue = DurableQueue(str(tmp_path))
        record = queue.submit({"kind": "a"})
        queue.claim(timeout=1.0, worker="dead-daemon")
        queue.finish(record.id, {"kind": "a.response", "value": 5})
        _offset, length = queue._done_lines[record.id]
        queue.close()
        # The daemon died halfway through writing the done line.
        size = os.path.getsize(queue.journal_path)
        os.truncate(queue.journal_path, size - length // 2)

        reborn = DurableQueue(str(tmp_path))
        revived = reborn.get(record.id)
        assert revived.state == "queued" and revived.recovered
        assert revived.attempts == 1
        assert reborn.result(record.id) is None
        assert reborn.recovered == [record.id]
        reborn.close()

    def test_open_compacts_journal_to_one_line_per_job(self, tmp_path):
        queue = DurableQueue(str(tmp_path))
        ids = []
        for index in range(5):
            record = queue.submit({"kind": "run", "index": index})
            queue.claim(timeout=1.0)
            queue.finish(record.id, {"kind": "run.response", "value": index})
            ids.append(record.id)
        queue.close()
        with open(queue.journal_path, "rb") as handle:
            assert len(handle.read().splitlines()) == 15
        # A torn tail is dropped along with the superseded lines.
        with open(queue.journal_path, "ab") as handle:
            handle.write(b'{"kind": "job", "id": "job-0000')

        reborn = DurableQueue(str(tmp_path))
        with open(reborn.journal_path, "rb") as handle:
            data = handle.read()
        lines = data.splitlines()
        assert data.endswith(b"\n") and len(lines) == 5
        assert [json.loads(line)["id"] for line in lines] == ids
        assert all(json.loads(line)["state"] == "done" for line in lines)
        for index, job_id in enumerate(ids):
            assert reborn.result(job_id) == {"kind": "run.response",
                                             "value": index}
        assert not os.path.exists(reborn.journal_path + ".tmp")
        # Appends after compaction land at offsets result() can read.
        late = reborn.submit({"kind": "run"})
        reborn.claim(timeout=1.0)
        reborn.finish(late.id, {"kind": "run.response", "value": 99})
        assert reborn.result(late.id)["value"] == 99
        reborn.close()
        third = DurableQueue(str(tmp_path))
        assert third.result(late.id)["value"] == 99
        assert third.result(ids[0])["value"] == 0
        third.close()

    def test_concurrent_finishes_read_back_their_own_results(self,
                                                             tmp_path):
        queue = DurableQueue(str(tmp_path))
        errors = []

        def work(thread_index):
            for _ in range(25):
                queue.submit({"kind": "run", "thread": thread_index})
                record = queue.claim(timeout=5.0, worker=str(thread_index))
                response = {"kind": "run.response", "job": record.id}
                queue.finish(record.id, response)
                if queue.result(record.id) != response:
                    errors.append(record.id)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(index,))
                       for index in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        done = queue.list(["done"])
        assert len(done) == 200
        queue.close()
        # Every offset recorded under contention survives a reopen,
        # and a fetch after close still reads the journal.
        assert all(queue.result(r.id) == {"kind": "run.response",
                                          "job": r.id} for r in done)
        reborn = DurableQueue(str(tmp_path))
        assert all(reborn.result(r.id) == {"kind": "run.response",
                                           "job": r.id} for r in done)
        reborn.close()

    def test_job_record_to_dict_matches_asdict(self):
        records = [
            JobRecord(id="j", request={}),
            JobRecord(id="job-000004", request={
                "kind": "matrix", "machines": ["vliw4", {"issue_width": 2}],
                "size": 16}, priority=2, state="done", seq=4, attempts=2,
                max_attempts=5, submitted_at=1.5, started_at=2.5,
                finished_at=3.5, worker="w1", error="boom", recovered=True,
                trace={"trace_id": "t", "span_id": "s"}),
        ]
        for record in records:
            expected = {"kind": "job", "schema_version": 1,
                        **dataclasses.asdict(record)}
            assert repr(record.to_dict()) == repr(expected)

    def test_job_record_rejects_bad_schema(self):
        good = JobRecord(id="j", request={}).to_dict()
        for corruption in ({"kind": "nope"}, {"schema_version": 99},
                           {"state": "zombie"}):
            with pytest.raises(QueueError):
                JobRecord.from_dict({**good, **corruption})


# ----------------------------------------------------------------------
# Shard/merge rules and the worker runtime.
# ----------------------------------------------------------------------

class TestTasksAndWorker:

    def test_shard_matrix_one_task_per_machine(self):
        request = MatrixRequest(machines=MACHINES, kernels=KERNELS).to_dict()
        tasks = shard_matrix(request)
        assert [t["request"]["machines"] for t in tasks] == \
            [["vliw4"], ["risc32"]]
        assert all(t["task"] == "matrix" for t in tasks)

    def test_merge_matrix_reproduces_single_process_fields(self):
        shards = [
            {"machines": ["m1"], "kernels": ["a", "b"], "engine": "interpreter",
             "fidelity": "cycle", "rows": [{"kernel": "a"}, {"kernel": "b"}],
             "failures": [], "correct": 2},
            {"machines": ["m2"], "kernels": ["a", "b"], "engine": "interpreter",
             "fidelity": "cycle", "rows": [{"kernel": "a"}, {"kernel": "b"}],
             "failures": [{"machine": "m2", "kernel": "b", "error": "x"}],
             "correct": 1},
        ]
        merged = merge_matrix({}, shards)
        assert merged["machines"] == ["m1", "m2"]
        assert merged["pass_rate"] == 3 / 4
        assert merged["all_correct"] is False
        assert len(merged["rows"]) == 4

    def test_shard_population_covers_population(self):
        tasks = shard_population({"count": 10}, 3)
        indices = {(t["index"], t["shards"]) for t in tasks}
        assert indices == {(0, 3), (1, 3), (2, 3)}
        covered = sorted(i for t in tasks
                         for i in range(t["index"], 10, t["shards"]))
        assert covered == list(range(10))

    def test_cell_key_distinguishes_recipe(self):
        base = cell_key("vliw4", "crc32", None, 1234, 2, "interpreter",
                        "cycle")
        assert base == cell_key("vliw4", "crc32", None, 1234, 2,
                                "interpreter", "cycle")
        assert base != cell_key("vliw4", "crc32", 64, 1234, 2,
                                "interpreter", "cycle")
        assert base != cell_key("risc32", "crc32", None, 1234, 2,
                                "interpreter", "cycle")

    def test_worker_matrix_memoizes_cells(self, tmp_path):
        runtime = WorkerRuntime(DiskArtifactStore(str(tmp_path / "s")),
                                worker_id="t1")
        task = {"task": "matrix",
                "request": MatrixRequest(machines=["vliw4"],
                                         kernels=KERNELS).to_dict()}
        cold = runtime.execute(task)
        assert cold["correct"] == len(KERNELS)
        misses = runtime.store.stats(CELL_STAGE).misses
        warm = runtime.execute(task)
        assert warm["rows"] == cold["rows"]
        assert runtime.store.stats(CELL_STAGE).misses == misses
        assert runtime.store.stats(CELL_STAGE).hits >= len(KERNELS)

    def test_worker_evaluate_restores_spec_weights(self, tmp_path):
        # Weights travel as JSON lists; the worker must restore the
        # tuple shape or its store keys diverge from the daemon's.
        from repro.dse.space import DesignSpace
        from repro.exec.batch import BatchEvaluator

        store = DiskArtifactStore(str(tmp_path / "s"))
        runtime = WorkerRuntime(store, worker_id="t2")
        session = Session(name="keycheck", store=store)
        evaluator = session.evaluator("medical", size=8)
        batch = BatchEvaluator(evaluator, store=store)
        points = list(DesignSpace(
            issue_widths=(2,), register_counts=(32, 64),
            cluster_counts=(1,), mul_unit_counts=(1,),
            mem_unit_counts=(1,)).points())
        spec = json.loads(json.dumps({
            "mix_name": batch.spec.mix_name,
            "weights": [list(p) for p in batch.spec.weights],
            "size": batch.spec.size, "opt_level": batch.spec.opt_level,
            "seed": batch.spec.seed, "fidelity": batch.spec.fidelity,
        }))
        result = runtime.execute({
            "task": "evaluate", "spec": spec,
            "points": [json.loads(json.dumps(p.__dict__)) for p in points]})
        assert result["keys"] == [batch.point_key(p) for p in points]
        for key in result["keys"]:
            assert store.get("evaluation", key) is not None

    def test_worker_unknown_task_rejected(self, tmp_path):
        runtime = WorkerRuntime(DiskArtifactStore(str(tmp_path / "s")))
        with pytest.raises(ValueError):
            runtime.execute({"task": "frobnicate"})


# ----------------------------------------------------------------------
# Daemon end-to-end (thread-mode workers, full socket protocol).
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def thread_daemon(tmp_path_factory):
    root = tmp_path_factory.mktemp("svc-daemon")
    daemon = ServiceDaemon(str(root), workers=2, worker_mode="thread",
                           name="test-daemon", task_timeout=120.0)
    with daemon:
        yield daemon


@pytest.fixture()
def client(thread_daemon):
    with ServiceClient(thread_daemon.endpoint) as session_client:
        yield session_client


class TestDaemon:

    def test_ping_and_describe(self, client, thread_daemon):
        assert client.ping() is True
        info = client.describe()
        assert info["store_dir"] == thread_daemon.store_dir
        assert info["worker_mode"] == "thread"

    def test_matrix_bit_identical_to_session(self, client):
        request = MatrixRequest(machines=MACHINES, kernels=KERNELS)
        remote = client.execute(request, timeout=120)
        with Session(name="oracle") as session:
            local = session.execute(request)
        assert _strip_provenance(remote) == _strip_provenance(local)
        assert remote.provenance.worker  # served by the pool

    def test_run_request_carries_worker_provenance(self, client):
        response = client.execute(
            RunRequest(kernel="popcount_buffer", machine="vliw4",
                       engine="cycle"), timeout=120)
        assert response.correct
        assert response.provenance.worker.startswith("w")

    def test_submit_status_result_lifecycle(self, client):
        handle = client.submit(MatrixRequest(machines=["vliw4"],
                                             kernels=["crc32"]))
        response = handle.result(timeout=120)
        assert response.all_correct
        record = client.status(handle.id)
        assert record["state"] == "done" and record["attempts"] == 1

    def test_failing_job_raises_job_failed(self, client):
        handle = client.submit(RunRequest(kernel="no_such_kernel",
                                          machine="vliw4", engine="cycle"))
        with pytest.raises(JobFailed) as excinfo:
            handle.result(timeout=120)
        assert excinfo.value.record["state"] == "failed"
        assert "no_such_kernel" in str(excinfo.value)

    def test_submit_rejects_malformed_request(self, client):
        with pytest.raises(ServiceError):
            client.submit({"kind": "not-a-kind"})

    def test_cancel_before_run(self, thread_daemon):
        # Submit directly to the queue so no job runner grabs it first.
        record = thread_daemon.queue.submit(
            MatrixRequest(machines=["vliw4"]).to_dict(), priority=-100)
        with ServiceClient(thread_daemon.endpoint) as cancel_client:
            # Either we cancel it in time, or a runner already claimed
            # it; both are legal daemon behaviours — assert consistency.
            cancelled = cancel_client.cancel(record.id)
            state = cancel_client.status(record.id)["state"]
        if cancelled:
            assert state == "cancelled"
        else:
            assert state in ("running", "done")

    def test_concurrent_clients_share_warm_store(self, thread_daemon):
        request = MatrixRequest(machines=MACHINES, kernels=KERNELS)
        cells = len(MACHINES) * len(KERNELS)
        with ServiceClient(thread_daemon.endpoint) as warm:
            warm.execute(request, timeout=120)  # warm every cell

        def hits_and_misses():
            # A shard whose cells the other worker computed is served
            # from the shared disk layer: a disk hit, counted apart from
            # memory hits.  Worker counters are pulled, so probe first.
            thread_daemon.pool.collect_stats()
            stats = thread_daemon.pool.worker_stats
            cell = [s.get(CELL_STAGE, {}) for s in stats.values()]
            return (sum(c.get("hits", 0) + c.get("disk_hits", 0)
                        for c in cell),
                    sum(c.get("misses", 0) for c in cell))

        # test_cancel_before_run may leave its cold matrix job running;
        # its cell misses belong to no request of this test.
        _wait_for(lambda: not any(thread_daemon.queue.snapshot()[state]
                                  for state in ("queued", "running")),
                  60.0, "the daemon never went idle")
        hits_before, misses_before = hits_and_misses()
        responses = [None] * 4
        def run(index):
            with ServiceClient(thread_daemon.endpoint) as c:
                responses[index] = c.execute(request, timeout=120)
        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(r is not None and r.all_correct for r in responses)
        first = _strip_provenance(responses[0])
        assert all(_strip_provenance(r) == first for r in responses[1:])
        hits, misses = hits_and_misses()
        new_hits = hits - hits_before
        new_misses = misses - misses_before
        total = new_hits + new_misses
        assert total >= 4 * cells
        assert new_hits / total >= 0.9, (
            f"warm hit rate {new_hits}/{total} below 90%")

    def test_done_job_with_unreadable_result_raises_service_error(
            self, client, thread_daemon):
        handle = client.submit(RunRequest(kernel="crc32", machine="vliw4",
                                          engine="compiled"))
        handle.result(timeout=120)
        # Clobber the job's done line in place: same length, no JSON.
        path = thread_daemon.queue.journal_path
        with open(path, "rb") as journal:
            data = journal.read()
        marker = f'"id": "{handle.id}"'.encode()
        start = 0
        for line in data.splitlines(keepends=True):
            if marker in line and b'"state": "done"' in line:
                break
            start += len(line)
        else:
            pytest.fail(f"no done line for {handle.id}")
        with open(path, "r+b") as journal:
            journal.seek(start)
            journal.write(b"#" * (len(line) - 1))
        with pytest.raises(ServiceError, match="result is missing"):
            client.result(handle.id, timeout=10)

    def test_stats_surface(self, client):
        stats = client.stats()
        assert stats["queue"]["total"] >= 1
        assert stats["store"]["entries"] > 0
        assert stats["workers"]  # per-worker store counters


# ----------------------------------------------------------------------
# Push-based results and a clean stop.
# ----------------------------------------------------------------------

def _svc_threads():
    return {t for t in threading.enumerate() if t.name.startswith("svc")}


class TestLongPollAndStop:

    @staticmethod
    def _record_ops(monkeypatch):
        messages = []
        call = ServiceClient._call

        def recording_call(client, message):
            messages.append(dict(message))
            return call(client, message)

        monkeypatch.setattr(ServiceClient, "_call", recording_call)
        return messages

    def test_slow_job_executes_in_one_round_trip(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_TASK_DELAY_S", "0.3")
        messages = self._record_ops(monkeypatch)
        with ServiceDaemon(str(tmp_path / "svc"), workers=1,
                           worker_mode="thread", name="longpoll") as daemon:
            with ServiceClient(daemon.endpoint) as c:
                started = time.monotonic()
                response = c.execute(RunRequest(kernel="crc32",
                                                machine="vliw4",
                                                engine="compiled"),
                                     timeout=120)
                elapsed = time.monotonic() - started
        assert response.correct
        assert elapsed >= 0.3
        ops = [message["op"] for message in messages]
        assert ops == ["submit"], ops

    def test_execute_outlasting_wait_cap_falls_back_to_result(
            self, tmp_path, monkeypatch):
        request = RunRequest(kernel="crc32", machine="vliw4",
                             engine="compiled")
        with Session(name="oracle") as session:
            expected = _strip_provenance(session.execute(request))
        monkeypatch.setenv("REPRO_SERVICE_TASK_DELAY_S", "0.4")
        monkeypatch.setattr(protocol, "RESULT_WAIT_CAP_S", 0.1)
        messages = self._record_ops(monkeypatch)
        with ServiceDaemon(str(tmp_path / "svc"), workers=1,
                           worker_mode="thread", name="capped") as daemon:
            with ServiceClient(daemon.endpoint) as c:
                response = c.execute(request, timeout=120)
        ops = [message["op"] for message in messages]
        assert ops[0] == "submit" and ops.count("submit") == 1, ops
        assert ops.count("result") >= 2, ops
        assert _strip_provenance(response) == expected

    def test_run_batch_submits_without_waiting(self, tmp_path, monkeypatch):
        messages = self._record_ops(monkeypatch)
        with ServiceDaemon(str(tmp_path / "svc"), workers=1,
                           worker_mode="thread", name="batch") as daemon:
            with ServiceClient(daemon.endpoint) as c:
                responses = c.run_batch(
                    [RunRequest(kernel=kernel, machine="vliw4",
                                engine="compiled") for kernel in KERNELS],
                    timeout=120)
        assert all(response.correct for response in responses)
        ops = [message["op"] for message in messages]
        assert ops == ["submit", "submit", "result", "result"], ops
        assert not any("wait_s" in message for message in messages
                       if message["op"] == "submit")

    def test_stop_wakes_blocked_result(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_TASK_DELAY_S", "3.0")
        daemon = ServiceDaemon(str(tmp_path / "svc"), workers=1,
                               worker_mode="thread", name="stopper")
        outcome = {}

        def wait_for_result(job_id):
            with ServiceClient(daemon.endpoint) as c:
                try:
                    c.result(job_id, timeout=60)
                except ServiceError as exc:
                    outcome["error"] = exc
                outcome["at"] = time.monotonic()

        with daemon:
            with ServiceClient(daemon.endpoint) as c:
                handle = c.submit(RunRequest(kernel="crc32", machine="vliw4",
                                             engine="compiled"))
            _wait_for(lambda: daemon.queue.get(handle.id).state == "running",
                      30.0, "the job never started")
            waiter = threading.Thread(target=wait_for_result,
                                      args=(handle.id,))
            waiter.start()
            time.sleep(0.2)  # let the client block in its long poll
            stop_started = time.monotonic()
        waiter.join(30)
        assert isinstance(outcome.get("error"), ServiceError)
        assert not isinstance(outcome["error"], JobFailed)
        assert outcome["at"] - stop_started < 2.0

    def test_stop_releases_threads_and_daemon(self, tmp_path):
        import gc
        import weakref

        before = _svc_threads()
        daemon = ServiceDaemon(str(tmp_path / "svc"), workers=2,
                               worker_mode="thread", name="leaky")
        with daemon:
            with ServiceClient(daemon.endpoint) as c:
                assert c.execute(MatrixRequest(machines=["vliw4"],
                                               kernels=["crc32"]),
                                 timeout=120).all_correct
        _wait_for(lambda: not (_svc_threads() - before), 10.0,
                  f"threads left behind: {_svc_threads() - before}")
        ref = weakref.ref(daemon)
        del daemon
        gc.collect()
        assert ref() is None


# ----------------------------------------------------------------------
# Durability through a daemon restart.
# ----------------------------------------------------------------------

class TestDaemonRestart:

    def test_restart_recovers_queue_and_results(self, tmp_path):
        root = str(tmp_path / "svc")
        request = MatrixRequest(machines=["vliw4"],
                                kernels=["crc32"]).to_dict()
        # Simulate a daemon that died with one job running and one
        # queued: seed the journal directly.
        queue = DurableQueue(os.path.join(root, "queue"))
        crashed = queue.submit(request)
        queue.claim(timeout=1.0, worker="dead-daemon")
        queued = queue.submit(request)
        del queue

        daemon = ServiceDaemon(root, workers=0, name="reborn")
        assert daemon.queue.recovered == [crashed.id]
        with daemon:
            with ServiceClient(daemon.endpoint) as restart_client:
                first = restart_client.result(crashed.id, timeout=120)
                second = restart_client.result(queued.id, timeout=120)
                assert first.all_correct and second.all_correct
                record = restart_client.status(crashed.id)
                assert record["recovered"] is True

        # A second restart still serves the stored results.
        daemon2 = ServiceDaemon(root, workers=0, name="reborn2")
        with daemon2:
            with ServiceClient(daemon2.endpoint) as again:
                assert again.result(crashed.id, timeout=10).all_correct
                assert again.status(queued.id)["state"] == "done"

    def test_corrupt_store_entry_recomputed_end_to_end(self, tmp_path):
        root = str(tmp_path / "svc")
        request = MatrixRequest(machines=["vliw4"], kernels=["crc32"])
        with ServiceDaemon(root, workers=1, worker_mode="thread",
                           name="corruptd") as daemon:
            with ServiceClient(daemon.endpoint) as c:
                baseline = c.execute(request, timeout=120)
        # Corrupt every memoized matrix cell on disk, then restart so
        # the fresh worker must consult the (now-corrupt) disk layer.
        cell_dir = os.path.join(daemon.store_dir, CELL_STAGE)
        for name in os.listdir(cell_dir):
            path = os.path.join(cell_dir, name)
            blob = open(path, "rb").read()
            open(path, "wb").write(blob[:len(blob) // 2])
        with ServiceDaemon(root, workers=1, worker_mode="thread",
                           name="corruptd2") as daemon2:
            with ServiceClient(daemon2.endpoint) as c:
                again = c.execute(request, timeout=120)
        assert _strip_provenance(again) == _strip_provenance(baseline)
        quarantine = os.path.join(daemon.store_dir, QUARANTINE_DIR)
        # Detected, quarantined for post-mortem, recomputed.
        assert any(name.startswith(CELL_STAGE + "__")
                   for name in os.listdir(quarantine))


# ----------------------------------------------------------------------
# Pulled worker counters and inline dispatch.
# ----------------------------------------------------------------------

def _cell_hits(stats) -> int:
    cells = [worker.get(CELL_STAGE, {}) for worker in stats["workers"].values()]
    return sum(cell.get("hits", 0) + cell.get("disk_hits", 0)
               for cell in cells)


class TestPulledCounters:

    def test_worker_frames_keep_counters_out_of_results(self, tmp_path):
        from repro.obs import metrics_enabled
        from repro.service.worker import worker_loop

        endpoint = "unix:" + str(tmp_path / "w.sock")
        listener = protocol.listen(endpoint)
        worker = threading.Thread(
            target=worker_loop,
            args=(endpoint, str(tmp_path / "store"), "raw"), daemon=True)
        worker.start()
        conn, _addr = listener.accept()

        def next_frame(op):
            while True:
                message = protocol.recv_frame(conn)
                if message["op"] == op:
                    return message

        try:
            assert next_frame("hello")["worker"] == "raw"
            protocol.send_frame(conn, {"op": "task", "id": 1, "task": {
                "task": "matrix",
                "request": MatrixRequest(machines=["vliw4"],
                                         kernels=["crc32"]).to_dict()}})
            result = next_frame("result")
            assert result["ok"] and result["id"] == 1
            assert result["result"]["worker"] == "raw"
            assert "store" not in result["result"]
            assert "metrics" not in result["result"]
            protocol.send_frame(conn, {"op": "stats", "id": 7})
            counters = next_frame("stats")
            assert counters["id"] == 7
            assert counters["store"][CELL_STAGE]["misses"] == 1
            assert ("metrics" in counters) == metrics_enabled()
            protocol.send_frame(conn, {"op": "exit"})
            worker.join(10)
            assert not worker.is_alive()
        finally:
            protocol.hang_up(conn)
            protocol.hang_up(listener)

    @pytest.mark.parametrize("worker_mode", ["thread", "process"])
    def test_stats_right_after_execute_counts_its_hit(self, tmp_path,
                                                      worker_mode):
        request = MatrixRequest(machines=["vliw4"], kernels=["crc32"])
        with ServiceDaemon(str(tmp_path / "svc"), workers=1,
                           worker_mode=worker_mode, name="pull",
                           task_timeout=120.0) as daemon:
            with ServiceClient(daemon.endpoint) as c:
                c.execute(request, timeout=120)  # cold: computes the cell
                before = _cell_hits(c.stats())
                c.execute(request, timeout=120)  # warm: one cell hit
                after = _cell_hits(c.stats())
        assert after == before + 1

    def test_stats_answers_within_bound_while_worker_is_busy(
            self, tmp_path, monkeypatch):
        from repro.service.daemon import STATS_WAIT_S

        with ServiceDaemon(str(tmp_path / "svc"), workers=1,
                           worker_mode="thread", name="busy",
                           task_timeout=120.0) as daemon:
            with ServiceClient(daemon.endpoint) as c:
                _wait_for(lambda: daemon.pool.live_ids(), 30.0,
                          "worker never connected")
                idle = c.stats()["workers"]
                monkeypatch.setenv("REPRO_SERVICE_TASK_DELAY_S", "3.0")
                handle = c.submit(RunRequest(kernel="crc32", machine="vliw4",
                                             engine="compiled"))
                _wait_for(lambda: daemon.queue.get(handle.id).state
                          == "running", 30.0, "the job never started")
                time.sleep(0.1)  # let the task frame reach the worker
                started = time.monotonic()
                busy = c.stats()["workers"]
                elapsed = time.monotonic() - started
                assert handle.result(timeout=120).correct
        assert elapsed < STATS_WAIT_S + 1.0
        # The mid-task worker kept its last snapshot.
        assert busy == idle and set(busy) == {"w1"}

    def test_no_dispatcher_thread(self, tmp_path):
        with ServiceDaemon(str(tmp_path / "svc"), workers=1,
                           worker_mode="thread", name="inline") as daemon:
            with ServiceClient(daemon.endpoint) as c:
                assert c.execute(MatrixRequest(machines=["vliw4"],
                                               kernels=["crc32"]),
                                 timeout=120).all_correct
            names = {thread.name for thread in threading.enumerate()}
        assert "svc-dispatch" not in names

    def test_one_worker_drains_three_tasks(self, tmp_path):
        request = MatrixRequest(machines=["vliw4", "risc32", "vliw8"],
                                kernels=["crc32"]).to_dict()
        with ServiceDaemon(str(tmp_path / "svc"), workers=1,
                           worker_mode="thread", name="drain") as daemon:
            results = daemon.pool.run_many(shard_matrix(request),
                                           timeout=120)
        assert [r["machines"][0] for r in results] == \
            ["vliw4", "risc32", "vliw8"]
        assert {r["worker"] for r in results} == {"w1"}

    def test_concurrent_probes_and_dispatch_keep_frames_intact(
            self, tmp_path):
        request = MatrixRequest(machines=["vliw4", "risc32", "vliw8"],
                                kernels=KERNELS).to_dict()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave sends as finely as we can
        try:
            with ServiceDaemon(str(tmp_path / "svc"), workers=3,
                               worker_mode="thread", name="probes") as daemon:
                _wait_for(lambda: len(daemon.pool.live_ids()) == 3, 30.0,
                          "workers never connected")
                workers = sorted(daemon.pool.live_ids())
                stop = threading.Event()
                errors = []
                served = []

                def probe():
                    while not stop.is_set():
                        daemon.pool.collect_stats()

                def run():
                    try:
                        for _ in range(10):
                            results = daemon.pool.run_many(
                                shard_matrix(request), timeout=60)
                            served.extend(r["correct"] for r in results)
                    except Exception as exc:  # noqa: BLE001 - asserted
                        errors.append(exc)

                probers = [threading.Thread(target=probe) for _ in range(2)]
                runners = [threading.Thread(target=run) for _ in range(3)]
                for thread in probers + runners:
                    thread.start()
                for thread in runners:
                    thread.join(120)
                stop.set()
                for thread in probers:
                    thread.join(10)
                assert not any(t.is_alive() for t in probers + runners)
                # A corrupt frame would have killed (and replaced) a worker.
                assert sorted(daemon.pool.live_ids()) == workers
                daemon.pool.collect_stats()
                assert sorted(daemon.pool.worker_stats) == workers
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert served == [len(KERNELS)] * (3 * 10 * 3)


# ----------------------------------------------------------------------
# Provenance schema.
# ----------------------------------------------------------------------

class TestProvenanceWorker:

    def test_provenance_round_trips_worker(self):
        provenance = Provenance(session="s", engine="cycle", worker="w7",
                                elapsed_s=0.5)
        data = provenance.to_dict()
        assert data["worker"] == "w7"
        assert Provenance.from_dict(data) == provenance

    def test_old_provenance_dicts_still_parse(self):
        data = Provenance(session="s").to_dict()
        data.pop("worker")  # a pre-service response JSON
        parsed = Provenance.from_dict(data)
        assert parsed.worker == ""

    def test_request_json_round_trip_unchanged(self):
        request = MatrixRequest(machines=MACHINES, kernels=KERNELS)
        assert request_from_dict(request.to_dict()) == request


# ----------------------------------------------------------------------
# Process-mode isolation and fault injection (slower).
# ----------------------------------------------------------------------

def _wait_for(predicate, timeout_s: float, message: str) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(message)


class TestProcessWorkers:

    def test_kill_worker_mid_job_retries_bit_identically(self, tmp_path):
        import signal

        request = MatrixRequest(machines=["vliw4"], kernels=["crc32"])
        with Session(name="oracle") as session:
            local = session.execute(request)
        daemon = ServiceDaemon(
            str(tmp_path / "svc"), workers=2, worker_mode="process",
            name="faulty", heartbeat_timeout=10.0, task_timeout=120.0,
            # Give the test a deterministic window in which the worker
            # is provably mid-task.
            worker_env={"REPRO_SERVICE_TASK_DELAY_S": "2.0"})
        with daemon:
            _wait_for(lambda: len(daemon.pool.live_ids()) == 2, 30.0,
                      "workers never connected")
            with ServiceClient(daemon.endpoint) as fault_client:
                handle = fault_client.submit(request)

                def busy_worker():
                    with daemon.pool._cv:
                        busy = [l.worker_id
                                for l in daemon.pool._links.values()
                                if l.busy is not None]
                    return busy[0] if busy else None

                _wait_for(lambda: busy_worker() is not None, 30.0,
                          "no worker ever went busy")
                victim = busy_worker()
                daemon._procs[victim].send_signal(signal.SIGKILL)

                remote = handle.result(timeout=120)
                record = fault_client.status(handle.id)
        # Zero jobs lost: the task was re-queued and completed with
        # results bit-identical to the single-process run.
        assert record["state"] == "done"
        assert _strip_provenance(remote) == _strip_provenance(local)
        # A replacement worker was spawned for the killed one.
        assert victim not in daemon.pool.worker_stats or \
            len(set(daemon.pool.worker_stats)) >= 2
