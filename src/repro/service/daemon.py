"""The persistent job daemon: durable queue + sharded worker fan-out.

:class:`ServiceDaemon` is the long-lived process of the service layer.
It owns three durable things under one root directory:

* ``queue/`` — the :class:`~repro.service.queue.DurableQueue`'s
  append-only journal, whose ``done`` lines carry the job responses,
  so submitted jobs survive daemon restarts (running jobs are re-queued
  on recovery, finished results stay fetchable);
* ``store/`` — the shared
  :class:`~repro.service.diskstore.DiskArtifactStore`, the **data
  plane**: workers persist compile artifacts, matrix cells and design
  -point evaluations there, and only content keys travel over sockets;
* ``daemon.sock`` — one framed-JSON endpoint (unix socket by default,
  ``tcp:host:port`` optional) serving both clients and workers: the
  first frame of a connection declares the role.

Job results are pushed: a client's ``result`` op carrying ``wait_s``
blocks on :meth:`DurableQueue.wait` until the job settles (or
:data:`~repro.service.protocol.RESULT_WAIT_CAP_S` passes).  A ``submit``
op carrying ``wait_s`` queues the job and then answers exactly as that
``result`` op would, so a blocking execute is one round trip.
:meth:`ServiceDaemon.stop` closes the queue first, which answers
blocked long polls with an error instead of leaving clients to their
timeouts.

Fan-out requests are sharded over a pool of N workers (separate
processes by default; in-process threads for tests and zero-install
deployments) through :class:`TaskPool`, which has no dispatcher
thread.  Workers heartbeat while they compute; a worker that stops
heartbeating or drops its connection is declared dead, its in-flight
task is re-queued (bounded attempts), and — in process mode — a
replacement is spawned.  The shard/merge rules live in
:mod:`repro.service.tasks` and preserve bit-identity with a
single-process :meth:`repro.api.Session.execute`.

Worker counters are pulled on demand.  Result frames carry no store
or metrics counters; the client ``stats`` op first sends every live
worker a ``stats`` probe (:meth:`TaskPool.collect_stats`) and waits up
to :data:`STATS_WAIT_S` for the answers.  A worker answers between
tasks, so one still mid-task at that bound keeps its last snapshot.

Exploration requests keep their sequential search loop in the daemon
(strategies are stateful) but fan the design-point evaluations out via
:class:`ShardedBatch`, a :class:`~repro.exec.batch.BatchEvaluator`
whose miss path ships ``evaluate`` tasks to the pool and reads the
resulting evaluations back from the shared store.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import os
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from typing import Callable, Dict, List, Optional, Sequence

from ..exec.batch import EVALUATION_STAGE, BatchEvaluator
from ..obs import (
    ObsJournal, default_journal_path, global_tracer, metrics_enabled,
    obs_mode, read_journal, tracing_enabled,
)
from ..obs.metrics import merge_snapshot
from . import protocol
from .diskstore import DiskArtifactStore
from .queue import DurableQueue, QueueError
from .tasks import (
    merge_matrix, merge_population, shard_matrix, shard_population,
)


class TaskError(RuntimeError):
    """A pool task failed (worker error, repeated death, or timeout)."""


#: longest :meth:`TaskPool.collect_stats` waits for workers to answer a
#: counters probe; a worker still mid-task keeps its last snapshot.
STATS_WAIT_S = 0.5


class _PendingTask:
    """One task in flight through the pool."""

    __slots__ = ("uid", "payload", "event", "result", "error", "attempts",
                 "done")

    def __init__(self, uid: int, payload: Dict[str, object]) -> None:
        self.uid = uid
        self.payload = payload
        self.event = threading.Event()
        self.result: Optional[Dict[str, object]] = None
        self.error: Optional[str] = None
        self.attempts = 0
        self.done = False


class _WorkerLink:
    """Daemon-side state of one connected worker."""

    def __init__(self, worker_id: str, conn) -> None:
        self.worker_id = worker_id
        self.conn = conn
        #: serializes every frame the daemon writes to this worker: task
        #: frames, stats probes and the ``exit`` frame.
        self.send_lock = threading.Lock()
        self.busy: Optional[_PendingTask] = None
        #: unanswered stats probes, by probe id.
        self.probes: Dict[int, threading.Event] = {}
        self.last_seen = time.monotonic()
        self.alive = True

    def send(self, message: Dict[str, object]) -> None:
        with self.send_lock:
            protocol.send_frame(self.conn, message)


class TaskPool:
    """Dispatches framed tasks to connected workers, with retry on death.

    There is no dispatcher thread: whichever thread makes a task/worker
    pairing possible (:meth:`run_many` queueing tasks, a reader freeing
    its worker, :meth:`attach`, or a death re-queueing a task) pairs
    them under the pool lock and sends the task frame itself.

    Retries happen only when a *worker dies* mid-task (connection drop
    or stale heartbeat) — a task the worker itself reports as failed is
    deterministic and fails immediately.  ``on_worker_lost`` lets the
    daemon respawn process workers.
    """

    def __init__(self, task_retries: int = 2,
                 on_worker_lost: Optional[Callable[[str], None]] = None
                 ) -> None:
        self.task_retries = task_retries
        self.on_worker_lost = on_worker_lost
        #: guards the links, the task deque and the pairings.
        self._cv = threading.Lock()
        self._tasks: "collections.deque[_PendingTask]" = collections.deque()
        self._links: Dict[str, _WorkerLink] = {}
        self._uid = itertools.count(1)
        self._stopping = False
        #: last collected per-worker store counters (cache economics).
        self.worker_stats: Dict[str, Dict[str, object]] = {}
        #: last collected per-worker metrics-registry snapshot (cumulative
        #: per worker; the daemon merges them fleet-wide on demand).
        self.worker_metrics: Dict[str, Dict[str, object]] = {}

    # ------------------------------------------------------------------
    def live_ids(self) -> List[str]:
        with self._cv:
            return [link.worker_id for link in self._links.values()
                    if link.alive]

    def attach(self, conn, hello: Dict[str, object]) -> None:
        """Adopt a freshly connected worker; starts its reader thread."""
        worker_id = str(hello.get("worker", f"anon-{next(self._uid)}"))
        link = _WorkerLink(worker_id, conn)
        with self._cv:
            if self._stopping:
                link.alive = False
            else:
                self._links[worker_id] = link
        if not link.alive:
            with contextlib.suppress(OSError):
                conn.close()
            return
        threading.Thread(target=self._reader, args=(link,), daemon=True,
                         name=f"svc-reader-{worker_id}").start()
        self._dispatch()

    # ------------------------------------------------------------------
    # Task submission.
    # ------------------------------------------------------------------
    def run_many(self, payloads: Sequence[Dict[str, object]],
                 timeout: Optional[float] = None) -> List[Dict[str, object]]:
        """Run tasks through the pool; results in payload order.

        Raises :class:`TaskError` if any task fails, times out, or
        exhausts its worker-death retry budget.
        """
        if tracing_enabled():
            # Ride the caller's span context into each task frame so the
            # worker's spans join this trace (additive wire field).
            context = global_tracer().current_context()
            if context is not None:
                payloads = [dict(payload, trace=dict(context))
                            for payload in payloads]
        pending = [_PendingTask(next(self._uid), payload)
                   for payload in payloads]
        with self._cv:
            self._tasks.extend(pending)
        self._dispatch()
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            for task in pending:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    raise TaskError("task pool timeout")
                if not task.event.wait(remaining):
                    raise TaskError("task pool timeout")
        finally:
            # Detach every unfinished task so a late result (or a task
            # still sitting in the deque) cannot leak into a dead call.
            with self._cv:
                stale = [t for t in pending if not t.event.is_set()]
                for task in stale:
                    task.done = True
                if stale:
                    self._tasks = collections.deque(
                        t for t in self._tasks if not t.done)
        errors = [task.error for task in pending if task.error is not None]
        if errors:
            raise TaskError(errors[0])
        return [task.result for task in pending]

    def run_task(self, payload: Dict[str, object],
                 timeout: Optional[float] = None) -> Dict[str, object]:
        return self.run_many([payload], timeout=timeout)[0]

    # ------------------------------------------------------------------
    # Dispatch and reading.
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Pair queued tasks with idle workers and send their frames."""
        while True:
            with self._cv:
                if self._stopping:
                    return
                while self._tasks and self._tasks[0].done:
                    self._tasks.popleft()
                link = next((link for link in self._links.values()
                             if link.alive and link.busy is None), None)
                if not self._tasks or link is None:
                    return
                task = link.busy = self._tasks.popleft()
            try:
                link.send({"op": "task", "id": task.uid,
                           "task": task.payload})
            except OSError:
                self._worker_dead(link, "send failed")

    def _reader(self, link: _WorkerLink) -> None:
        while True:
            try:
                message = protocol.recv_frame(link.conn)
            except (OSError, protocol.ProtocolError):
                message = None
            if message is None:
                self._worker_dead(link, "connection lost")
                return
            link.last_seen = time.monotonic()
            op = message.get("op")
            if op == "result":
                self._settle(link, message)
            elif op == "stats":
                self._record_stats(link, message)
            # anything else is a heartbeat (or unknown chatter)

    def _settle(self, link: _WorkerLink, message: Dict[str, object]) -> None:
        with self._cv:
            task, link.busy = link.busy, None
        self._dispatch()
        if task is None or task.done:
            return
        if message.get("ok"):
            task.result = message.get("result") or {}
            spans = task.result.get("spans")
            if spans:
                # Stitch the worker's spans into the daemon's trace
                # buffer; they already carry the propagated trace_id.
                global_tracer().ingest(spans)
        else:
            task.error = str(message.get("error", "worker error"))
        task.event.set()

    def _record_stats(self, link: _WorkerLink,
                      message: Dict[str, object]) -> None:
        store, metrics = message.get("store"), message.get("metrics")
        with self._cv:
            if isinstance(store, dict):
                self.worker_stats[link.worker_id] = store
            if isinstance(metrics, dict):
                self.worker_metrics[link.worker_id] = metrics
            probe = link.probes.pop(message.get("id"), None)
        if probe is not None:
            probe.set()

    def collect_stats(self) -> None:
        """Refresh :attr:`worker_stats` and :attr:`worker_metrics`.

        Probes every live worker and waits up to :data:`STATS_WAIT_S`
        for the answers.  A worker answers between tasks, so one still
        mid-task at the deadline keeps its last snapshot.
        """
        probes = []
        with self._cv:
            for link in self._links.values():
                if link.alive:
                    uid = next(self._uid)
                    event = link.probes[uid] = threading.Event()
                    probes.append((link, uid, event))
        for link, uid, _event in probes:
            try:
                link.send({"op": "stats", "id": uid})
            except OSError:
                self._worker_dead(link, "send failed")
        deadline = time.monotonic() + STATS_WAIT_S
        for _link, _uid, event in probes:
            event.wait(max(0.0, deadline - time.monotonic()))
        with self._cv:
            for link, uid, _event in probes:
                link.probes.pop(uid, None)

    def _worker_dead(self, link: _WorkerLink, reason: str) -> None:
        with self._cv:
            if not link.alive:
                return
            link.alive = False
            self._links.pop(link.worker_id, None)
            probes, link.probes = list(link.probes.values()), {}
            task, link.busy = link.busy, None
            if task is not None and not task.done:
                task.attempts += 1
                if task.attempts > self.task_retries:
                    task.error = (f"worker died {task.attempts} times "
                                  f"running this task ({reason})")
                    task.event.set()
                else:
                    # Head of the line: the task already waited its turn.
                    self._tasks.appendleft(task)
        for probe in probes:
            probe.set()  # a dead worker answers no probe
        with contextlib.suppress(OSError):
            link.conn.close()
        self._dispatch()
        if self.on_worker_lost is not None and not self._stopping:
            self.on_worker_lost(link.worker_id)

    def heartbeat_lags(self) -> Dict[str, float]:
        """Seconds since each live worker's last frame (heartbeat lag)."""
        now = time.monotonic()
        with self._cv:
            return {link.worker_id: round(now - link.last_seen, 6)
                    for link in self._links.values() if link.alive}

    def reap_stale(self, heartbeat_timeout: float) -> List[str]:
        """Declare workers with stale heartbeats dead; returns their ids."""
        now = time.monotonic()
        with self._cv:
            stale = [link for link in self._links.values()
                     if link.alive and now - link.last_seen > heartbeat_timeout]
        for link in stale:
            self._worker_dead(link, "heartbeat timeout")
        return [link.worker_id for link in stale]

    def stop(self) -> None:
        with self._cv:
            self._stopping = True
            links = list(self._links.values())
        for link in links:
            with contextlib.suppress(OSError):
                link.send({"op": "exit"})
            protocol.hang_up(link.conn)


# ----------------------------------------------------------------------
# Sharded exploration.
# ----------------------------------------------------------------------

class ShardedBatch(BatchEvaluator):
    """A BatchEvaluator whose misses fan out as pool ``evaluate`` tasks.

    Workers persist the evaluations into the shared store under the
    standard ``evaluation`` stage and return only the content keys; the
    daemon reads the payloads back — the store is the data plane, the
    frames carry keys.  A key a worker claims but the daemon cannot
    read (evicted between write and read) falls back to local
    evaluation, so the batch never returns holes.
    """

    def __init__(self, evaluator, pool: TaskPool, store: DiskArtifactStore,
                 chunk: int = 4, task_timeout: Optional[float] = None
                 ) -> None:
        super().__init__(evaluator, workers=0, store=store)
        self.pool = pool
        self.chunk = max(1, chunk)
        self.task_timeout = task_timeout

    def _evaluate_missing(self, items):
        spec = asdict(self.spec)
        spec["weights"] = [list(pair) for pair in self.spec.weights]
        tasks = []
        for start in range(0, len(items), self.chunk):
            part = items[start:start + self.chunk]
            tasks.append({
                "task": "evaluate",
                "spec": spec,
                "points": [asdict(point) for _key, point in part],
            })
        self.pool.run_many(tasks, timeout=self.task_timeout)
        evaluated = []
        for key, point in items:
            artifact = self.store.get(EVALUATION_STAGE, key)
            if artifact is not None:
                evaluated.append((key, artifact.payload))
            else:
                evaluated.append((key, self.evaluator.evaluate(
                    point.to_machine(),
                    custom_area_budget=point.custom_area_budget)))
        return evaluated


# ----------------------------------------------------------------------
# The daemon.
# ----------------------------------------------------------------------

class ServiceDaemon:
    """Persistent daemon: durable queue, shared store, worker fan-out."""

    def __init__(self, root: str, *, endpoint: Optional[str] = None,
                 workers: int = 2, worker_mode: str = "process",
                 job_runners: int = 2,
                 store_budget_bytes: Optional[int] = None,
                 heartbeat_timeout: float = 15.0,
                 task_timeout: float = 600.0, task_retries: int = 2,
                 evaluate_chunk: int = 4,
                 worker_env: Optional[Dict[str, str]] = None,
                 name: str = "daemon",
                 journal: Optional[str] = None) -> None:
        if worker_mode not in ("process", "thread"):
            raise ValueError(
                f"worker_mode must be 'process' or 'thread', "
                f"not {worker_mode!r}")
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.name = name
        self.endpoint = endpoint or "unix:" + os.path.join(
            self.root, "daemon.sock")
        self.store_dir = os.path.join(self.root, "store")
        self.workers = max(0, int(workers))
        self.worker_mode = worker_mode
        self.job_runners = max(1, int(job_runners))
        self.heartbeat_timeout = heartbeat_timeout
        self.task_timeout = task_timeout
        self.evaluate_chunk = evaluate_chunk
        self.worker_env = dict(worker_env or {})

        self.store = DiskArtifactStore(self.store_dir,
                                       size_budget_bytes=store_budget_bytes)
        self.queue = DurableQueue(os.path.join(self.root, "queue"))
        self.pool = TaskPool(task_retries=task_retries,
                             on_worker_lost=self._worker_lost)
        #: fleet observability: the daemon counts into its store's
        #: registry (so queue/job metrics export next to cache counters)
        #: and journals one manifest per finished job when tracing.
        self.registry = self.store.registry
        self.journal = ObsJournal(
            journal or default_journal_path()
            or os.path.join(self.root, "obs.jsonl"))
        self.session = self._make_session()

        self._listener = None
        self._threads: List[threading.Thread] = []
        self._procs: Dict[str, subprocess.Popen] = {}
        self._worker_seq = itertools.count(1)
        self._client_conns: List[object] = []
        self._state_lock = threading.Lock()
        self._stopping = False
        self._started = False

    # ------------------------------------------------------------------
    def _make_session(self):
        from ..api.session import Session

        daemon = self

        class DaemonSession(Session):
            """A Session whose design-point batches fan out to the pool."""

            def batch_evaluator(self, evaluator, *, workers=None):
                if daemon.workers > 0:
                    return ShardedBatch(
                        evaluator, daemon.pool, daemon.store,
                        chunk=daemon.evaluate_chunk,
                        task_timeout=daemon.task_timeout)
                return super().batch_evaluator(evaluator, workers=workers)

        return DaemonSession(name=self.name, store=self.store)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> "ServiceDaemon":
        if self._started:
            return self
        self._started = True
        self._listener = protocol.listen(self.endpoint)
        self._spawn_thread(self._accept_loop, "svc-accept")
        for index in range(self.job_runners):
            self._spawn_thread(self._job_runner, f"svc-job-{index}")
        for _ in range(self.workers):
            self._spawn_worker()
        self._spawn_thread(self._monitor_loop, "svc-monitor")
        return self

    def stop(self, timeout: float = 30.0) -> None:
        with self._state_lock:
            if self._stopping:
                return
            self._stopping = True
        if self._listener is not None:
            # Wakes the accept thread; close() alone would leave it
            # blocked, pinning the whole daemon in memory.
            protocol.hang_up(self._listener)
        # Answer blocked result long-polls and idle claims at once.
        self.queue.close()
        # Let job runners finish the jobs they already claimed (queued
        # jobs stay journaled for the next daemon), then drop the pool.
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            if thread.name.startswith("svc-job"):
                thread.join(max(0.0, deadline - time.monotonic()))
        self.pool.stop()
        for proc in self._procs.values():
            with contextlib.suppress(OSError):
                proc.terminate()
        for proc in self._procs.values():
            try:
                proc.wait(timeout=5.0)
            except Exception:  # noqa: BLE001 - escalate to SIGKILL
                with contextlib.suppress(OSError):
                    proc.kill()
        self._procs.clear()
        for conn in list(self._client_conns):
            protocol.hang_up(conn)
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        parsed = protocol.parse_endpoint(self.endpoint)
        if parsed[0] == "unix" and os.path.exists(parsed[1]):
            with contextlib.suppress(OSError):
                os.unlink(parsed[1])

    def __enter__(self) -> "ServiceDaemon":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _spawn_thread(self, target, name: str) -> None:
        thread = threading.Thread(target=target, daemon=True, name=name)
        thread.start()
        self._threads.append(thread)

    # ------------------------------------------------------------------
    # Workers.
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> str:
        worker_id = f"w{next(self._worker_seq)}"
        if self.worker_mode == "thread":
            from .worker import worker_loop

            thread = threading.Thread(
                target=worker_loop,
                args=(self.endpoint, self.store_dir, worker_id),
                kwargs={"heartbeat_s": min(2.0, self.heartbeat_timeout / 4)},
                daemon=True, name=f"svc-worker-{worker_id}")
            thread.start()
            return worker_id
        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        env.update(self.worker_env)
        # Workers follow the daemon's observability mode unless the
        # operator pinned one explicitly (env or worker_env).
        env.setdefault("REPRO_OBS", obs_mode())
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service.worker",
             "--endpoint", self.endpoint, "--store", self.store_dir,
             "--id", worker_id,
             "--heartbeat", str(min(2.0, self.heartbeat_timeout / 4))],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        with self._state_lock:
            self._procs[worker_id] = proc
        return worker_id

    def _worker_lost(self, worker_id: str) -> None:
        """Pool callback: clean up the dead worker, spawn a replacement."""
        with self._state_lock:
            if self._stopping:
                return
            proc = self._procs.pop(worker_id, None)
        if proc is not None:
            with contextlib.suppress(OSError):
                proc.terminate()
        self._spawn_worker()

    def _monitor_loop(self) -> None:
        while not self._stopping:
            time.sleep(0.5)
            if self._stopping:
                return
            self.pool.reap_stale(self.heartbeat_timeout)
            # A spawned process that died before ever connecting leaves
            # no link for the pool to notice; replace it here.
            live = set(self.pool.live_ids())
            with self._state_lock:
                dead = [wid for wid, proc in self._procs.items()
                        if proc.poll() is not None and wid not in live]
                for wid in dead:
                    self._procs.pop(wid, None)
            for _wid in dead:
                if not self._stopping:
                    self._spawn_worker()

    # ------------------------------------------------------------------
    # Connections.
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopping:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._serve_connection, args=(conn,),
                             daemon=True, name="svc-conn").start()

    def _serve_connection(self, conn) -> None:
        try:
            first = protocol.recv_frame(conn)
        except (OSError, protocol.ProtocolError):
            with contextlib.suppress(OSError):
                conn.close()
            return
        if first is None:
            with contextlib.suppress(OSError):
                conn.close()
            return
        if first.get("op") == "hello" and first.get("role") == "worker":
            self.pool.attach(conn, first)
            return
        self._client_conns.append(conn)
        try:
            message = first
            while message is not None:
                if message.get("op") == "hello":
                    reply = {"ok": True, "role": "client",
                             "daemon": self.name}
                else:
                    reply = self._client_op(message)
                try:
                    protocol.send_frame(conn, reply)
                except OSError:
                    break
                if message.get("op") == "shutdown":
                    break
                try:
                    message = protocol.recv_frame(conn)
                except (OSError, protocol.ProtocolError):
                    break
        finally:
            with contextlib.suppress(OSError):
                conn.close()
            if conn in self._client_conns:
                self._client_conns.remove(conn)

    # ------------------------------------------------------------------
    # Client operations.
    # ------------------------------------------------------------------
    def _client_op(self, message: Dict[str, object]) -> Dict[str, object]:
        op = message.get("op")
        try:
            if op == "ping":
                return {"ok": True, "pong": True}
            if op == "describe":
                return {"ok": True, "daemon": self.name,
                        "endpoint": self.endpoint,
                        "store_dir": self.store_dir,
                        "workers": self.workers,
                        "worker_mode": self.worker_mode,
                        "live_workers": self.pool.live_ids()}
            if op == "submit":
                return self._op_submit(message)
            if op == "status":
                record = self.queue.get(str(message.get("id")))
                return {"ok": True, "job": record.to_dict()}
            if op == "result":
                return self._op_result(message)
            if op == "cancel":
                cancelled = self.queue.cancel(str(message.get("id")))
                record = self.queue.get(str(message.get("id")))
                return {"ok": True, "cancelled": cancelled,
                        "job": record.to_dict()}
            if op == "jobs":
                states = message.get("states")
                records = self.queue.list(states)
                return {"ok": True, "jobs": [r.to_dict() for r in records]}
            if op == "stats":
                self.pool.collect_stats()
                return {"ok": True,
                        "queue": self.queue.snapshot(),
                        "store": {**self.store.describe(),
                                  "stages": self.store.stats_dict()},
                        "workers": dict(self.pool.worker_stats),
                        "recovered": list(self.queue.recovered),
                        "metrics": self.metrics()}
            if op == "obs.spans":
                return self._op_obs_spans(message)
            if op == "trace":
                return self._op_trace(message)
            if op == "shutdown":
                threading.Thread(target=self.stop, daemon=True,
                                 name="svc-shutdown").start()
                return {"ok": True, "stopping": True}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except QueueError as exc:
            return {"ok": False, "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - client ops never kill conn
            return {"ok": False,
                    "error": f"{type(exc).__name__}: {exc}"}

    def _op_submit(self, message: Dict[str, object]) -> Dict[str, object]:
        from ..api.requests import request_from_dict

        request = message.get("request")
        if not isinstance(request, dict):
            return {"ok": False, "error": "submit needs a request dict"}
        request_from_dict(request)  # validate kind + schema before queueing
        wait_s = float(message.get("wait_s") or 0.0)
        trace = message.get("trace")
        record = self.queue.submit(
            request, priority=int(message.get("priority", 0)),
            max_attempts=int(message.get("max_attempts", 3)),
            trace=trace if isinstance(trace, dict) else None)
        if wait_s > 0:
            # Submit-and-wait: one round trip for a blocking execute.
            return self._op_result({"id": record.id, "wait_s": wait_s})
        return {"ok": True, "job": record.to_dict()}

    def _op_obs_spans(self, message: Dict[str, object]) -> Dict[str, object]:
        """Stitch late client-side spans into the daemon's trace buffer."""
        spans = message.get("spans")
        if not isinstance(spans, list):
            return {"ok": False, "error": "obs.spans needs a spans list"}
        ingested = global_tracer().ingest(spans)
        by_trace: Dict[str, List[Dict[str, object]]] = {}
        for span in spans:
            if isinstance(span, dict) and span.get("trace_id"):
                by_trace.setdefault(str(span["trace_id"]), []).append(span)
        for trace_id, trace_spans in by_trace.items():
            with contextlib.suppress(OSError):
                self.journal.spans(trace_id, trace_spans,
                                   source=str(message.get("source",
                                                          "client")))
        return {"ok": True, "ingested": ingested}

    def _op_trace(self, message: Dict[str, object]) -> Dict[str, object]:
        """Everything the daemon knows about one trace id."""
        trace_id = str(message.get("id", ""))
        if not trace_id:
            return {"ok": False, "error": "trace needs an id"}
        events = read_journal(self.journal.path, trace_id)
        return {"ok": True, "trace_id": trace_id,
                "spans": global_tracer().spans_for(trace_id),
                "events": events}

    def metrics(self) -> Dict[str, object]:
        """The daemon's registry snapshot merged with the worker
        snapshots the last :meth:`TaskPool.collect_stats` pulled."""
        if metrics_enabled():
            self.registry.gauge(
                "queue_depth",
                help="jobs currently queued").set(
                float(self.queue.snapshot().get("queued", 0)))
            for worker_id, lag in self.pool.heartbeat_lags().items():
                self.registry.gauge(
                    "worker_heartbeat_lag_seconds", {"worker": worker_id},
                    help="seconds since the worker's last frame").set(lag)
        snapshot = self.registry.snapshot()
        others = [m for m in self.pool.worker_metrics.values()
                  if isinstance(m, dict)]
        return merge_snapshot(snapshot, *others) if others else snapshot

    def _op_result(self, message: Dict[str, object]) -> Dict[str, object]:
        """A job's state, plus its response once done.

        With ``wait_s`` this is a long poll: the reply waits until the
        job is terminal or ``min(wait_s, RESULT_WAIT_CAP_S)`` passes.
        """
        job_id = str(message.get("id"))
        wait_s = min(float(message.get("wait_s") or 0.0),
                     protocol.RESULT_WAIT_CAP_S)
        if wait_s > 0:
            record = self.queue.wait(job_id, wait_s)
            if not record.terminal and self.queue.closed:
                return {"ok": False,
                        "error": f"daemon stopped before job {job_id} "
                                 f"finished"}
        else:
            record = self.queue.get(job_id)
        reply: Dict[str, object] = {"ok": True, "job": record.to_dict(),
                                    "state": record.state}
        if record.state == "done":
            response = self.queue.result(record.id)
            if response is None:
                return {"ok": False,
                        "error": f"job {job_id} is done but its stored "
                                 f"result is missing or unreadable"}
            reply["response"] = response
        return reply

    # ------------------------------------------------------------------
    # Job execution.
    # ------------------------------------------------------------------
    def _job_runner(self) -> None:
        while not self._stopping:
            record = self.queue.claim(timeout=0.25, worker=self.name)
            if record is None:
                continue
            self._count_claim(record)
            tracer = global_tracer()
            trace = record.trace or {}
            started = time.perf_counter()
            try:
                # Graft the job span under the client's submit context
                # (when the client was tracing) so one trace_id covers
                # client → daemon → worker → stage.
                with tracer.adopt(str(trace.get("trace_id", "")),
                                  str(trace.get("span_id", ""))):
                    with tracer.span("daemon.job", job=record.id,
                                     kind=record.kind) as span:
                        response = self._run_job(record.request)
                        trace_id = span.trace_id
            except Exception as exc:  # noqa: BLE001 - job fails, runner lives
                self._count_done(record, "failed",
                                 time.perf_counter() - started)
                with contextlib.suppress(QueueError):
                    self.queue.fail(record.id,
                                    f"{type(exc).__name__}: {exc}")
                continue
            self._count_done(record, "done", time.perf_counter() - started)
            if trace_id:
                provenance = response.get("provenance")
                if isinstance(provenance, dict):
                    provenance.setdefault("trace_id", "")
                    if not provenance["trace_id"]:
                        provenance["trace_id"] = trace_id
                self._journal_job(record, response, trace_id)
            with contextlib.suppress(QueueError):
                self.queue.finish(record.id, response)

    def _count_claim(self, record) -> None:
        if not metrics_enabled():
            return
        wait = max(0.0, (record.started_at or 0.0) - record.submitted_at)
        self.registry.histogram(
            "queue_wait_seconds",
            help="submit-to-claim latency of daemon jobs").observe(wait)
        self.registry.counter(
            "jobs_claimed", {"kind": record.kind},
            help="jobs claimed by the daemon's runners").inc()

    def _count_done(self, record, state: str, seconds: float) -> None:
        if not metrics_enabled():
            return
        self.registry.counter(
            "jobs_finished", {"kind": record.kind, "state": state},
            help="jobs finished by terminal state").inc()
        self.registry.histogram(
            "job_seconds", {"kind": record.kind},
            help="claim-to-finish job execution time").observe(seconds)

    def _journal_job(self, record, response: Dict[str, object],
                     trace_id: str) -> None:
        try:
            self.journal.manifest(
                kind=record.kind, trace_id=trace_id,
                source=f"daemon:{self.name}",
                request=record.request,
                provenance=response.get("provenance")
                if isinstance(response.get("provenance"), dict) else None,
                spans=global_tracer().spans_for(trace_id),
                metrics=self.metrics(),
                extra={"job": record.id})
        except OSError:  # pragma: no cover - journaling is best effort
            pass

    def _pool_provenance(self, engine: str, fidelity: str, started: float,
                         results: Sequence[Dict[str, object]]
                         ) -> Dict[str, object]:
        from ..api.requests import Provenance

        return Provenance(
            session=self.name, engine=engine, fidelity=fidelity,
            elapsed_s=round(time.perf_counter() - started, 6),
            cache={"store": self.store.stats_dict()},
            worker=_served_by(results) or "pool",
        ).to_dict()

    def _run_job(self, request: Dict[str, object]) -> Dict[str, object]:
        from ..api.requests import (
            ExploreRequest, MatrixRequest, PopulationRequest,
            request_from_dict,
        )

        kind = request.get("kind")
        if self.workers <= 0:
            response = self.session.execute(request_from_dict(request))
            if response.provenance is not None:
                response.provenance.worker = self.name
            return response.to_dict()
        if kind == MatrixRequest.kind:
            return self._run_matrix_job(request)
        if kind == PopulationRequest.kind:
            return self._run_population_job(request)
        if kind == ExploreRequest.kind:
            # Sequential search loop in the daemon; the point
            # evaluations fan out through ShardedBatch (DaemonSession).
            response = self.session.execute(request_from_dict(request))
            if response.provenance is not None:
                response.provenance.worker = (
                    "+".join(sorted(self.pool.live_ids())) or self.name)
            return response.to_dict()
        result = self.pool.run_task({"task": "request", "request": request},
                                    timeout=self.task_timeout)
        return result["response"]

    def _run_matrix_job(self, request: Dict[str, object]
                        ) -> Dict[str, object]:
        from ..api.requests import SCHEMA_VERSION, MatrixResponse

        started = time.perf_counter()
        shards = shard_matrix(request)
        results = self.pool.run_many(shards, timeout=self.task_timeout)
        merged = merge_matrix(request, results)
        response = {"kind": MatrixResponse.kind,
                    "schema_version": SCHEMA_VERSION}
        response.update(merged)
        response["provenance"] = self._pool_provenance(
            merged["engine"], merged["fidelity"], started, results)
        return response

    def _run_population_job(self, request: Dict[str, object]
                            ) -> Dict[str, object]:
        validate = bool(request.get("validate_population", True))
        report_request = dict(request)
        report_request["validate_population"] = False
        tasks: List[Dict[str, object]] = []
        if validate:
            tasks.extend(shard_population(request, self.workers))
        tasks.append({"task": "request", "request": report_request})
        results = self.pool.run_many(tasks, timeout=self.task_timeout)
        response = merge_population(results[-1]["response"], results[:-1],
                                    validate)
        provenance = response.get("provenance")
        if isinstance(provenance, dict):
            provenance["worker"] = (_served_by(results)
                                    or provenance.get("worker"))
        return response


def _served_by(results: Sequence[Dict[str, object]]) -> str:
    """``w1+w2``: the workers named in the results' ``worker`` fields."""
    return "+".join(sorted({str(result["worker"]) for result in results
                            if result.get("worker")}))
