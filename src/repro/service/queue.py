"""The durable job queue behind the service daemon.

Jobs are the unit clients submit: one versioned request-JSON dict (the
wire format of :mod:`repro.api.requests`) plus scheduling metadata.
:class:`DurableQueue` keeps every job journaled on disk so a daemon
crash or restart loses nothing:

* ``journal.jsonl`` — an append-only log, opened once in append mode,
  with one :class:`JobRecord` line per state transition.  Opening the
  queue replays it (the last line per job id wins) and compacts it to
  that last line per job (temp file + ``os.replace``).  A crash
  mid-append can tear only the unterminated last line: it is dropped on
  open, and any other undecodable line is skipped on replay.
* A finished job's response rides in its ``done`` line (a
  ``"response"`` key beside the record fields), so the result is
  durable in the same write as the state: a ``done`` job always has a
  fetchable result, and a torn ``done`` line leaves the job re-queued.
  :meth:`DurableQueue.result` reads that line back with one
  ``os.pread`` at the ``(offset, length)`` recorded on append or replay.

States move ``queued → running → done|failed``, with ``cancelled``
reachable from ``queued`` and ``running → queued`` on recovery (a job
that was mid-flight when the daemon died is re-queued, its ``attempts``
counter ticking so a poison job cannot crash-loop forever — after
``max_attempts`` it lands in ``failed`` instead).  Scheduling is by
``(priority desc, submission order asc)``.

The queue is the daemon's private state machine; it is process-local
(one daemon owns one queue root) but thread-safe.  Journal appends
happen under the queue lock, so log order is transition order.  Job
runners block cheaply on :meth:`claim`, result long-polls block on
:meth:`wait` (every terminal transition wakes them), and :meth:`close`
releases both when the daemon stops.
"""

from __future__ import annotations

import heapq
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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
        # Field by field: dataclasses.asdict recurses and deep-copies
        # the request (~60x slower), and this runs five times per job.
        return {
            "kind": "job", "schema_version": JOB_SCHEMA_VERSION,
            "id": self.id, "request": dict(self.request),
            "priority": self.priority, "state": self.state,
            "seq": self.seq, "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at, "worker": self.worker,
            "error": self.error, "recovered": self.recovered,
            "trace": None if self.trace is None else dict(self.trace),
        }

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
        os.makedirs(self.root, exist_ok=True)
        self._records: Dict[str, JobRecord] = {}
        #: job id -> ``(offset, length)`` of its ``done`` journal line.
        self._done_lines: Dict[str, Tuple[int, int]] = {}
        #: bytes in the journal, i.e. the offset of the next append.
        self._size = 0
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
    @staticmethod
    def _line(record: JobRecord,
              response: Optional[Mapping[str, object]] = None) -> bytes:
        data = record.to_dict()
        if response is not None:
            data["response"] = response
        return (json.dumps(data, sort_keys=True) + "\n").encode("utf-8")

    def _write(self, handle, record: JobRecord, line: bytes) -> None:
        if record.state == "done":
            self._done_lines[record.id] = (self._size, len(line))
        handle.write(line)
        self._size += len(line)

    def _append(self, record: JobRecord,
                response: Optional[Mapping[str, object]] = None) -> None:
        # Caller holds the lock.  One unbuffered write per line, so a
        # crash tears at most the last line.
        line = self._line(record, response)
        if self._closed:
            # A job still in flight when the queue closed lands anyway.
            with open(self.journal_path, "ab") as handle:
                self._write(handle, record, line)
        else:
            self._write(self._journal, record, line)

    def _recover(self) -> List[str]:
        """Replay the journal, re-queue jobs that died mid-flight, and
        compact the journal to one line per job."""
        try:
            with open(self.journal_path, "rb") as handle:
                chunks = handle.read().split(b"\n")
        except FileNotFoundError:
            chunks = [b""]
        # The last chunk is empty or a torn, unterminated append; the
        # compacted journal leaves it out.
        lines: Dict[str, bytes] = {}
        for chunk in chunks[:-1]:
            try:
                record = JobRecord.from_dict(json.loads(chunk))
            except (ValueError, TypeError, QueueError):
                continue
            self._records[record.id] = record
            lines[record.id] = chunk + b"\n"
        recovered: List[str] = []
        compacted = self.journal_path + ".tmp"
        with open(compacted, "wb") as handle:
            for record in sorted(self._records.values(),
                                 key=lambda r: r.seq):
                self._seq = max(self._seq, record.seq)
                line = lines[record.id]
                if record.state == "running":
                    record.state = "queued"
                    record.recovered = True
                    record.worker = ""
                    line = self._line(record)
                    recovered.append(record.id)
                if record.state == "queued":
                    heapq.heappush(self._heap,
                                   (-record.priority, record.seq, record.id))
                self._write(handle, record, line)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(compacted, self.journal_path)
        self._journal = open(self.journal_path, "ab", buffering=0)
        #: read side of the journal for result(): open until close(), so
        #: a fetch is one pread.
        self._reader = open(self.journal_path, "rb", buffering=0)
        return recovered

    def _pread(self, offset: int, length: int) -> bytes:
        # Caller holds the lock, so close() cannot close the fd mid-read.
        if self._closed:
            # A fetch after close (a stopping daemon) opens the file.
            with open(self.journal_path, "rb") as handle:
                return os.pread(handle.fileno(), length, offset)
        return os.pread(self._reader.fileno(), length, offset)

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
            self._reader.close()
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

    def _settle(self, record: JobRecord, state: str, error: Optional[str],
                response: Optional[Mapping[str, object]] = None
                ) -> JobRecord:
        # Caller holds the lock: journal the terminal state, wake waiters.
        record.state = state
        record.finished_at = time.time()
        record.error = error
        self._append(record, response)
        self._settled.notify_all()
        return record

    def finish(self, job_id: str, response: Mapping[str, object]) -> JobRecord:
        """Flip the job to ``done``; its journal line stores the response."""
        with self._lock:
            return self._settle(self._require_running(job_id, "finish"),
                                "done", None, response)

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
        """The response stored in a ``done`` job's journal line; None if
        the job is not done or the line holds no readable response."""
        with self._lock:
            where = self._done_lines.get(job_id)
            if where is None:
                return None
            try:
                line = self._pread(*where)
            except OSError:
                return None
        try:
            data = json.loads(line)
        except ValueError:
            return None
        response = data.get("response") if isinstance(data, dict) else None
        return response if isinstance(response, dict) else None

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
