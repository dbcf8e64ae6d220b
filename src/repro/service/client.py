"""Client side of the service daemon: Session-shaped, future-backed.

:class:`ServiceClient` speaks the framed-JSON protocol to a running
:class:`~repro.service.daemon.ServiceDaemon` and mirrors the
:class:`repro.api.Session` surface: :meth:`execute` blocks for one
request/response round-trip, :meth:`submit` returns a future-backed
:class:`JobHandle`, :meth:`run_batch` submits a mixed request list and
collects responses in order.  Requests go in as the serializable
dataclasses of :mod:`repro.api.requests` (or their dict form) and come
back as the matching response dataclasses, so swapping a ``Session``
for a ``ServiceClient`` is a one-line change.

Waiting for a job costs no polling.  :meth:`ServiceClient.execute` is
one round trip: it submits with ``wait_s``, and the daemon replies once
the job settles, response included.  :meth:`ServiceClient.result` sends
a long-poll ``result`` op that the daemon answers the same way.  Either
falls back to (re-)issuing ``result`` only when the daemon's wait cap
(:data:`~repro.service.protocol.RESULT_WAIT_CAP_S`) runs out first.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional, Sequence

from ..obs import global_tracer, tracing_enabled
from . import protocol
from .queue import TERMINAL_STATES

#: environment variable naming the daemon endpoint for implicit clients
#: (the CLI's client subcommands).
ENDPOINT_ENV = "REPRO_SERVICE_SOCKET"


class ServiceError(RuntimeError):
    """The daemon rejected an operation (or is unreachable)."""


class JobFailed(ServiceError):
    """A submitted job ended failed or cancelled.

    ``record`` holds the final job journal dict (state, error,
    attempts) for post-mortems.
    """

    def __init__(self, message: str, record: Optional[Dict] = None) -> None:
        super().__init__(message)
        self.record = record or {}


def _wait_s(deadline: Optional[float]) -> float:
    """How long the daemon may hold the next reply."""
    if deadline is None:
        return protocol.RESULT_WAIT_CAP_S
    return min(protocol.RESULT_WAIT_CAP_S,
               max(0.0, deadline - time.monotonic()))


def _outcome(job_id: str, reply: Dict[str, object]):
    """The response object of a terminal job reply, or JobFailed."""
    from ..api.requests import response_from_dict

    state = reply["state"]
    if state == "done":
        return response_from_dict(reply["response"])
    record = reply.get("job", {})
    raise JobFailed(f"job {job_id} {state}: {record.get('error')}",
                    record=record)


class JobHandle:
    """Future-backed access to one submitted job."""

    def __init__(self, client: "ServiceClient", record: Dict[str, object],
                 settled: Optional[Dict[str, object]] = None) -> None:
        self.client = client
        self.id = str(record["id"])
        self._record = record
        #: the daemon's terminal reply when the submit waited the job
        #: out; result() then needs no wire call.
        self._settled = settled

    @property
    def record(self) -> Dict[str, object]:
        return dict(self._record)

    def status(self) -> str:
        """Current job state (refreshes the cached record)."""
        self._record = self.client.status(self.id)
        return str(self._record["state"])

    def done(self) -> bool:
        return self.status() in ("done", "failed", "cancelled")

    def cancel(self) -> bool:
        return self.client.cancel(self.id)

    def result(self, timeout: Optional[float] = None):
        """Block until terminal; the response object, or JobFailed."""
        if self._settled is not None:
            return _outcome(self.id, self._settled)
        return self.client.result(self.id, timeout=timeout)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JobHandle({self.id!r}, state={self._record.get('state')!r})"


class ServiceClient:
    """One connection to a service daemon, usable from one thread at a
    time (ops serialize on an internal lock)."""

    def __init__(self, endpoint: Optional[str] = None,
                 timeout: float = 30.0) -> None:
        endpoint = endpoint or os.environ.get(ENDPOINT_ENV)
        if not endpoint:
            raise ServiceError(
                "no daemon endpoint: pass one or set " + ENDPOINT_ENV)
        self.endpoint = endpoint
        self.timeout = timeout
        self._sock = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Wire plumbing.
    # ------------------------------------------------------------------
    def _call(self, message: Dict[str, object]) -> Dict[str, object]:
        with self._lock:
            try:
                if self._sock is None:
                    self._sock = protocol.connect(self.endpoint,
                                                  timeout=self.timeout)
                protocol.send_frame(self._sock, message)
                reply = protocol.recv_frame(self._sock)
            except (OSError, protocol.ProtocolError) as exc:
                self._drop_connection()
                raise ServiceError(
                    f"daemon at {self.endpoint} unreachable: {exc}") from exc
            if reply is None:
                self._drop_connection()
                raise ServiceError(
                    f"daemon at {self.endpoint} closed the connection")
        if not reply.get("ok"):
            raise ServiceError(str(reply.get("error", "daemon error")))
        return reply

    def _drop_connection(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def close(self) -> None:
        with self._lock:
            self._drop_connection()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Daemon introspection.
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        return bool(self._call({"op": "ping"}).get("pong"))

    def describe(self) -> Dict[str, object]:
        return self._call({"op": "describe"})

    def stats(self) -> Dict[str, object]:
        return self._call({"op": "stats"})

    def trace(self, trace_id: str) -> Dict[str, object]:
        """The daemon's stitched view of one trace: spans + journal
        events (see the ``trace`` protocol op)."""
        return self._call({"op": "trace", "id": trace_id})

    def jobs(self, states: Optional[Sequence[str]] = None
             ) -> List[Dict[str, object]]:
        message: Dict[str, object] = {"op": "jobs"}
        if states is not None:
            message["states"] = list(states)
        return list(self._call(message)["jobs"])

    def shutdown(self) -> None:
        """Ask the daemon to stop (queued jobs stay journaled)."""
        self._call({"op": "shutdown"})
        self.close()

    # ------------------------------------------------------------------
    # Jobs (the Session-shaped surface).
    # ------------------------------------------------------------------
    @staticmethod
    def _request_dict(request) -> Dict[str, object]:
        if hasattr(request, "to_dict"):
            return request.to_dict()
        return dict(request)

    def submit(self, request, priority: int = 0, max_attempts: int = 3,
               wait_s: float = 0.0) -> JobHandle:
        """Queue one request on the daemon; returns a JobHandle.

        With ``wait_s`` the daemon holds its reply until the job settles
        or ``min(wait_s, RESULT_WAIT_CAP_S)`` passes; a handle that came
        back settled answers :meth:`JobHandle.result` without a wire call.
        """
        message: Dict[str, object] = {
            "op": "submit",
            "request": self._request_dict(request),
            "priority": priority,
            "max_attempts": max_attempts,
        }
        if wait_s:
            message["wait_s"] = wait_s
        if tracing_enabled():
            # Attach the caller's span context (additive wire field) so
            # the daemon's job span joins this trace.
            context = global_tracer().current_context()
            if context is not None:
                message["trace"] = dict(context)
        reply = self._call(message)
        settled = reply if reply.get("state") in TERMINAL_STATES else None
        return JobHandle(self, reply["job"], settled)

    def status(self, job_id: str) -> Dict[str, object]:
        return dict(self._call({"op": "status", "id": job_id})["job"])

    def cancel(self, job_id: str) -> bool:
        return bool(self._call({"op": "cancel", "id": job_id})["cancelled"])

    def result(self, job_id: str, timeout: Optional[float] = None):
        """Block until the job is terminal; returns the response object.

        Raises :class:`JobFailed` for failed/cancelled jobs and
        :class:`ServiceError` on timeout, when the daemon stops first,
        or when a done job's stored result cannot be read.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            reply = self._call({"op": "result", "id": job_id,
                                "wait_s": _wait_s(deadline)})
            if reply["state"] in TERMINAL_STATES:
                return _outcome(job_id, reply)
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(f"timed out waiting for job {job_id} "
                                   f"(state {reply['state']})")

    def execute(self, request, timeout: Optional[float] = None,
                priority: int = 0):
        """Session-shaped blocking execution of one request: one
        submit-and-wait round trip, plus ``result`` polls only for a job
        that outlasts the daemon's wait cap."""
        tracer = global_tracer()
        deadline = None if timeout is None else time.monotonic() + timeout
        kind = getattr(request, "kind", None) or (
            request.get("kind", "request") if isinstance(request, dict)
            else "request")
        with tracer.span("client.execute", endpoint=self.endpoint,
                         kind=str(kind)) as span:
            handle = self.submit(request, priority=priority,
                                 wait_s=_wait_s(deadline))
            response = handle.result(
                timeout=None if deadline is None
                else max(0.0, deadline - time.monotonic()))
            trace_id = span.trace_id
        if trace_id:
            self._ship_spans(tracer, trace_id)
        return response

    def _ship_spans(self, tracer, trace_id: str) -> None:
        """Best-effort: hand the client's finished spans to the daemon
        so one ``trace`` lookup returns the stitched cross-process tree.
        The spans are drained either way; a dead daemon loses only the
        client-side spans, never the request."""
        spans = tracer.take(trace_id)
        if not spans:
            return
        try:
            self._call({"op": "obs.spans", "spans": spans,
                        "source": "client"})
        except ServiceError:
            pass

    def run_batch(self, requests: Sequence,
                  timeout: Optional[float] = None) -> List:
        """Submit a request list; responses in request order."""
        handles = [self.submit(request) for request in requests]
        return [handle.result(timeout=timeout) for handle in handles]

