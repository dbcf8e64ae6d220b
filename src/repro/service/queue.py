"""The durable job queue behind the service daemon.

Jobs are the unit clients submit: one versioned request-JSON dict (the
wire format of :mod:`repro.api.requests`) plus scheduling metadata.
:class:`DurableQueue` keeps every job journaled on disk so a daemon
crash or restart loses nothing:

* ``journal.jsonl`` — an append-only log, opened once in append mode,
  with one :class:`JobRecord` line per state transition.  Opening the
  queue replays it (the last line per job id wins).  A crash mid-append
  can tear only the unterminated last line: it is cut off on open, and
  any other undecodable line is skipped on replay;
* ``results/<id>.json`` — the response JSON of a finished job, written
  atomically (temp file + ``os.replace``) before the job's ``done``
  line is appended, so a ``done`` state always has a fetchable result.

States move ``queued → running → done|failed``, with ``cancelled``
reachable from ``queued`` and ``running → queued`` on recovery (a job
that was mid-flight when the daemon died is re-queued, its ``attempts``
counter ticking so a poison job cannot crash-loop forever — after
``max_attempts`` it lands in ``failed`` instead).  Scheduling is by
``(priority desc, submission order asc)``.

The queue is the daemon's private state machine; it is process-local
(one daemon owns one queue root) but thread-safe.  Journal appends
happen under the queue lock, so log order is transition order; only
the result-file write runs outside it.  Job runners block cheaply on
:meth:`claim`, result long-polls block on :meth:`wait` (every terminal
transition wakes them), and :meth:`close` releases both when the
daemon stops.
"""

from __future__ import annotations

import heapq
import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

#: version of the job-record wire/journal format; bump on breaking change.
JOB_SCHEMA_VERSION = 1

#: every state a job record can be in.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: states from which a job can never move again.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: file name of the append-only transition log under the queue root.
JOURNAL_NAME = "journal.jsonl"


class QueueError(RuntimeError):
    """An operation that the queue's state machine does not allow."""


@dataclass
class JobRecord:
    """One submitted job: the request plus its scheduling journal."""

    id: str
    request: Dict[str, object]
    priority: int = 0
    state: str = "queued"
    seq: int = 0
    attempts: int = 0
    max_attempts: int = 3
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: id of the worker/runner that served (or last touched) the job.
    worker: str = ""
    error: Optional[str] = None
    #: True when this record survived a daemon restart while running.
    recovered: bool = False
    #: client-side trace context (``{"trace_id", "span_id"}``) when the
    #: submitter was tracing, so the daemon's job span joins the
    #: client's trace.  Optional and additive: old journals load fine.
    trace: Optional[Dict[str, str]] = None

    @property
    def kind(self) -> str:
        return str(self.request.get("kind", ""))

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "kind": "job", "schema_version": JOB_SCHEMA_VERSION,
        }
        data.update(asdict(self))
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "JobRecord":
        payload = dict(data)
        kind = payload.pop("kind", "job")
        if kind != "job":
            raise QueueError(f"not a job record: kind={kind!r}")
        version = payload.pop("schema_version", JOB_SCHEMA_VERSION)
        if not isinstance(version, int) or not 1 <= version <= JOB_SCHEMA_VERSION:
            raise QueueError(
                f"unsupported job schema_version {version!r} "
                f"(this build understands 1..{JOB_SCHEMA_VERSION})")
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        record = cls(**{k: v for k, v in payload.items() if k in known})
        if record.state not in JOB_STATES:
            raise QueueError(f"unknown job state {record.state!r}")
        return record


class DurableQueue:
    """Crash-safe priority queue of request jobs, journaled under ``root``."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self.journal_path = os.path.join(self.root, JOURNAL_NAME)
        self.results_dir = os.path.join(self.root, "results")
        os.makedirs(self.results_dir, exist_ok=True)
        self._records: Dict[str, JobRecord] = {}
        #: (-priority, seq, id) min-heap of claimable jobs.
        self._heap: List[tuple] = []
        self._seq = 0
        self._closed = False
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        #: notified on every terminal transition (and on close).
        self._settled = threading.Condition(self._lock)
        self.recovered: List[str] = self._recover()

    # ------------------------------------------------------------------
    # Journal I/O.
    # ------------------------------------------------------------------
    def _result_path(self, job_id: str) -> str:
        return os.path.join(self.results_dir, f"{job_id}.json")

    def _append(self, record: JobRecord) -> None:
        # Caller holds the lock.  One unbuffered write per line, so a
        # crash tears at most the last line.
        line = (json.dumps(record.to_dict(), sort_keys=True)
                + "\n").encode("utf-8")
        if self._closed:
            # A job still in flight when the queue closed lands anyway.
            with open(self.journal_path, "ab") as handle:
                handle.write(line)
        else:
            self._journal.write(line)

    def _write_result(self, job_id: str,
                      response: Mapping[str, object]) -> None:
        path = self._result_path(job_id)
        tmp = f"{path}.tmp.{os.getpid()}"
        data = json.dumps(dict(response), sort_keys=True)
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(data)
        os.replace(tmp, path)

    def _recover(self) -> List[str]:
        """Replay the journal; re-queue jobs that died mid-flight."""
        try:
            with open(self.journal_path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            data = b""
        end = data.rfind(b"\n") + 1
        if end < len(data):
            # A torn last append: cut it so the next line is not glued
            # onto garbage.
            os.truncate(self.journal_path, end)
        for line in data[:end].splitlines():
            try:
                record = JobRecord.from_dict(json.loads(line))
            except (ValueError, TypeError, QueueError):
                continue
            self._records[record.id] = record
        self._journal = open(self.journal_path, "ab", buffering=0)
        recovered: List[str] = []
        for record in sorted(self._records.values(), key=lambda r: r.seq):
            self._seq = max(self._seq, record.seq)
            if record.state == "running":
                record.state = "queued"
                record.recovered = True
                record.worker = ""
                self._append(record)
                recovered.append(record.id)
            if record.state == "queued":
                heapq.heappush(self._heap,
                               (-record.priority, record.seq, record.id))
        return recovered

    def close(self) -> None:
        """Stop handing out work and wake every blocked caller.

        Pending :meth:`claim` calls return None and pending :meth:`wait`
        calls return the job as it stands.  Jobs already running may
        still finish; their transitions are journaled.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._journal.close()
            self._available.notify_all()
            self._settled.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Submission and claiming.
    # ------------------------------------------------------------------
    def submit(self, request: Mapping[str, object],
               priority: int = 0, max_attempts: int = 3,
               trace: Optional[Mapping[str, str]] = None) -> JobRecord:
        """Journal a new job; returns its record (state ``queued``)."""
        with self._available:
            if self._closed:
                raise QueueError("the queue is closed")
            self._seq += 1
            record = JobRecord(
                id=f"job-{self._seq:06d}", request=dict(request),
                priority=int(priority), seq=self._seq,
                max_attempts=max_attempts, submitted_at=time.time(),
                trace=dict(trace) if trace else None)
            self._append(record)
            self._records[record.id] = record
            heapq.heappush(self._heap,
                           (-record.priority, record.seq, record.id))
            self._available.notify()
        return record

    def claim(self, timeout: Optional[float] = None,
              worker: str = "") -> Optional[JobRecord]:
        """Pop the best queued job and mark it running; None on timeout
        or once the queue is closed."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._available:
            while not self._closed:
                record = self._pop_queued()
                if record is not None:
                    record.state = "running"
                    record.attempts += 1
                    record.started_at = time.time()
                    record.worker = worker
                    self._append(record)
                    return record
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._available.wait(remaining)
                else:
                    self._available.wait()
            return None

    def _pop_queued(self) -> Optional[JobRecord]:
        # Caller holds the lock.  Entries for jobs that were cancelled
        # (or re-pushed) while heaped are skipped lazily.
        while self._heap:
            _neg_priority, _seq, job_id = heapq.heappop(self._heap)
            record = self._records.get(job_id)
            if record is not None and record.state == "queued":
                return record
        return None

    # ------------------------------------------------------------------
    # Transitions.
    # ------------------------------------------------------------------
    def _require(self, job_id: str) -> JobRecord:
        record = self._records.get(job_id)
        if record is None:
            raise QueueError(f"unknown job {job_id!r}")
        return record

    def _require_running(self, job_id: str, verb: str) -> JobRecord:
        record = self._require(job_id)
        if record.state != "running":
            raise QueueError(
                f"cannot {verb} job {job_id} in state {record.state!r}")
        return record

    def _settle(self, record: JobRecord, state: str,
                error: Optional[str]) -> JobRecord:
        # Caller holds the lock: journal the terminal state, wake waiters.
        record.state = state
        record.finished_at = time.time()
        record.error = error
        self._append(record)
        self._settled.notify_all()
        return record

    def finish(self, job_id: str, response: Mapping[str, object]) -> JobRecord:
        """Store the response, then flip the job to ``done``."""
        with self._lock:
            self._require_running(job_id, "finish")
        # Result first, and outside the lock: a 'done' journal line must
        # always have a fetchable result, even if the daemon dies in
        # between.
        self._write_result(job_id, response)
        with self._lock:
            return self._settle(self._require_running(job_id, "finish"),
                                "done", None)

    def fail(self, job_id: str, error: str) -> JobRecord:
        """Flip a running job to ``failed`` (terminal)."""
        with self._lock:
            return self._settle(self._require_running(job_id, "fail"),
                                "failed", error)

    def requeue(self, job_id: str, error: str) -> JobRecord:
        """Put a running job back in line (worker death, shutdown).

        After ``max_attempts`` claims the job fails instead — a job that
        kills every worker it touches must not crash-loop the fleet.
        """
        with self._available:
            record = self._require_running(job_id, "requeue")
            if record.attempts >= record.max_attempts:
                return self._settle(
                    record, "failed",
                    f"gave up after {record.attempts} attempts; "
                    f"last error: {error}")
            record.state = "queued"
            record.worker = ""
            record.error = error
            self._append(record)
            heapq.heappush(self._heap,
                           (-record.priority, record.seq, record.id))
            self._available.notify()
            return record

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; False once it is running or terminal."""
        with self._lock:
            record = self._require(job_id)
            if record.state != "queued":
                return False
            self._settle(record, "cancelled", record.error)
            return True

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            return self._require(job_id)

    def wait(self, job_id: str, timeout: float) -> JobRecord:
        """Block until the job is terminal, the queue closes, or
        ``timeout`` seconds pass; returns the job's record."""
        with self._settled:
            record = self._require(job_id)
            self._settled.wait_for(
                lambda: record.terminal or self._closed, timeout)
            return record

    def result(self, job_id: str) -> Optional[Dict[str, object]]:
        """The stored response dict of a ``done`` job, else None."""
        path = self._result_path(job_id)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def list(self, states: Optional[Sequence[str]] = None) -> List[JobRecord]:
        with self._lock:
            records = sorted(self._records.values(), key=lambda r: r.seq)
        if states is not None:
            wanted = set(states)
            records = [r for r in records if r.state in wanted]
        return records

    def snapshot(self) -> Dict[str, int]:
        """Per-state job counts (the daemon's ``stats`` op)."""
        counts = {state: 0 for state in JOB_STATES}
        with self._lock:
            for record in self._records.values():
                counts[record.state] += 1
        counts["total"] = len(self._records)
        return counts

    def __len__(self) -> int:
        return len(self._records)
