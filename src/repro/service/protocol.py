"""The framed wire protocol of the job service.

Every connection in :mod:`repro.service` — client ↔ daemon and
daemon ↔ worker alike — speaks the same tiny protocol: a stream of
*frames*, each a 4-byte big-endian length prefix followed by that many
bytes of UTF-8 JSON.  Messages are plain dicts with an ``"op"`` field;
nothing about the framing is service-specific, which is what lets one
listener serve clients and workers (the first frame declares the
``role``) and lets tests drive either side with a raw socket.

Endpoints are strings so they can live in environment variables and
request JSON:

* ``unix:/path/to/daemon.sock`` (or a bare filesystem path) — a unix
  domain socket, the default transport;
* ``tcp:host:port`` — a TCP socket, for crossing machine boundaries.

Frames are bounded (:data:`MAX_FRAME_BYTES`) so a corrupt length prefix
cannot make a peer allocate gigabytes; the payload plane for bulky
artifacts is the shared :class:`~repro.service.diskstore.DiskArtifactStore`,
never the socket.

Results are pushed, not polled: the client op ``{"op": "result", "id":
..., "wait_s": seconds}`` is a long poll.  The daemon holds the reply
until the job reaches a terminal state or ``min(wait_s,``
:data:`RESULT_WAIT_CAP_S` ``)`` seconds pass, so a client usually
fetches a job with one round trip.  Without ``wait_s`` the daemon
answers at once with the job's current state.  ``submit`` accepts the
same ``wait_s``: the daemon queues the job, then replies as the
``result`` op would (state, job record, and the response once done),
so a blocking execute needs a single round trip; without ``wait_s`` the
reply is the queued job record alone.

Daemon → worker frames are ``task`` (answered by one ``result``),
``stats`` (answered between tasks by a ``stats`` frame echoing its
``id`` with the worker's ``store`` counters and, with metrics on, its
``metrics`` snapshot) and ``exit``; workers also send ``heartbeat``
frames on their own.  Counters travel only on ``stats``, never inside
``result`` frames.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import struct
from typing import Dict, Optional, Tuple, Union

#: hard per-frame ceiling; responses carrying whole exploration tables
#: stay far below this, bulk artifacts travel through the disk store.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: longest a ``result`` op (or a ``submit`` with ``wait_s``) is held
#: server-side before the daemon answers with the job's current state;
#: clients re-issue a ``result`` op after that.
RESULT_WAIT_CAP_S = 5.0

_HEADER = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """A malformed frame: bad length, truncated body, or invalid JSON."""


def parse_endpoint(endpoint: str) -> Union[Tuple[str, str],
                                           Tuple[str, str, int]]:
    """``"unix:/p"``/bare path → ``("unix", path)``;
    ``"tcp:host:port"`` → ``("tcp", host, port)``."""
    if endpoint.startswith("tcp:"):
        host, _, port = endpoint[4:].rpartition(":")
        if not port.isdigit():
            raise ValueError(f"malformed tcp endpoint {endpoint!r} "
                             f"(want tcp:host:port)")
        return ("tcp", host or "127.0.0.1", int(port))
    if endpoint.startswith("unix:"):
        endpoint = endpoint[len("unix:"):]
    if not endpoint:
        raise ValueError("empty service endpoint")
    return ("unix", endpoint)


def listen(endpoint: str, backlog: int = 64) -> socket.socket:
    """Bind and listen on ``endpoint``; returns the listening socket."""
    parsed = parse_endpoint(endpoint)
    if parsed[0] == "tcp":
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((parsed[1], parsed[2]))
    else:
        path = parsed[1]
        if os.path.exists(path):
            # A stale socket file from a dead daemon blocks bind();
            # a live daemon would still hold the listener, so probe it.
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(path)
            except OSError:
                os.unlink(path)
            else:
                probe.close()
                raise OSError(f"endpoint {endpoint!r} already has a "
                              f"listening daemon")
            finally:
                probe.close()
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(path)
    sock.listen(backlog)
    return sock


def connect(endpoint: str, timeout: Optional[float] = None) -> socket.socket:
    """Connect to ``endpoint``; the timeout applies to the connect only."""
    parsed = parse_endpoint(endpoint)
    if parsed[0] == "tcp":
        sock = socket.create_connection((parsed[1], parsed[2]),
                                        timeout=timeout)
    else:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(parsed[1])
    sock.settimeout(None)
    return sock


def hang_up(sock: socket.socket) -> None:
    """Shut ``sock`` down, then close it.

    On Linux, ``close()`` alone does not wake a thread blocked in
    ``accept()`` or ``recv()`` on the same socket; ``shutdown`` does.
    """
    with contextlib.suppress(OSError):
        sock.shutdown(socket.SHUT_RDWR)
    with contextlib.suppress(OSError):
        sock.close()


def send_frame(sock: socket.socket, message: Dict[str, object]) -> None:
    """Serialize ``message`` and write one length-prefixed frame."""
    data = json.dumps(message, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(data)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte ceiling")
    sock.sendall(_HEADER.pack(len(data)) + data)


def recv_frame(sock: socket.socket) -> Optional[Dict[str, object]]:
    """Read one frame; None on a clean EOF at a frame boundary.

    Raises :class:`ProtocolError` on truncation mid-frame, an oversized
    length prefix, or a body that is not a JSON object.  A socket
    timeout configured by the caller propagates as ``socket.timeout``.
    """
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"peer announced a {length}-byte frame "
            f"(ceiling {MAX_FRAME_BYTES}); stream corrupt?")
    body = _recv_exactly(sock, length)
    if body is None:
        raise ProtocolError("connection closed mid-frame")
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame body: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frames must be JSON objects, got {type(message).__name__}")
    return message


def _recv_exactly(sock: socket.socket, count: int) -> Optional[bytes]:
    """``count`` bytes, or None on EOF before the first byte."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
