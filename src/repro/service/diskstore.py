"""The cross-process artifact store shared by daemon and workers.

:class:`DiskArtifactStore` implements the ``(stage, key)`` protocol of
:class:`repro.pipeline.store.SupportsArtifactStore` on top of a shared
directory, so every process pointed at the same root — the daemon, its
worker pool, a CLI session — sees one
compile/trace/evaluation cache.  It is the only on-disk store format and
extends the in-process :class:`~repro.pipeline.store.ArtifactStore`
(which stays the private fast path: memory LRU in front, per-process
counters) with:

* **persistence of every stage** — each memory miss consults the disk
  and each put writes through, so any picklable artifact crosses
  process boundaries; a payload that does not pickle stays in memory
  only and leaves no file, and a stage declared ``memory_only``
  (threaded-code translations are closures) skips the disk altogether;
* **content fingerprints** — each entry file carries a SHA-256 of its
  pickle body; a mismatch (truncation, corruption, torn write from a
  dying process) is *detected*, the entry is quarantined under
  ``_quarantine/`` for post-mortems, the per-stage ``corrupt`` counter
  ticks, and the lookup misses so the artifact is recomputed;
* **atomic writes** — entries are written to a pid-unique temp file and
  ``os.replace``d into place, so readers never observe a partial entry;
* **size-budget LRU eviction** — when the directory exceeds
  ``size_budget_bytes``, least-recently-used entries (by mtime; reads
  re-touch) are removed under an exclusive file lock so concurrent
  sweeps from different processes cannot double-delete or race a
  writer, with per-stage ``disk_evictions`` counters.

Counters remain per-process (each process has its own instance); the
daemon aggregates worker-side counters through task results, which is
how the service reports fleet-wide cache economics.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import time
from typing import Dict, Iterator, List, Optional, Tuple

from ..pipeline.store import MEMORY_ONLY_STAGES, ArtifactStore, StageArtifact

try:  # file locking is POSIX-only; elsewhere the store degrades gracefully
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

#: entry-file magic; bump on incompatible layout changes.
FORMAT_MAGIC = b"repro-art1"

#: directory (under the root) where corrupt entries are preserved.
QUARANTINE_DIR = "_quarantine"

_LOCK_FILE = ".lock"


class DiskArtifactStore(ArtifactStore):
    """Disk-backed, file-locked, fingerprinted ``(stage, key)`` store."""

    def __init__(self, root: str, capacity: Optional[int] = 1024,
                 size_budget_bytes: Optional[int] = None) -> None:
        super().__init__(capacity=capacity)
        self.root = os.path.abspath(root)
        self.size_budget_bytes = size_budget_bytes
        os.makedirs(self.root, exist_ok=True)

    # ------------------------------------------------------------------
    # (stage, key) protocol — memory first, then the disk.
    # ------------------------------------------------------------------
    def get(self, stage: str, key: str) -> Optional[StageArtifact]:
        """The artifact from memory, else from disk (promoted into
        memory), else None."""
        if stage in MEMORY_ONLY_STAGES:
            return super().get(stage, key)
        with self._lock:
            stats = self._stage_stats(stage)
            artifact = self._lookup(stage, key, stats)
        if artifact is not None:
            return artifact
        # ``artifact`` is this call's private object; the stored copy is
        # never mutated after insertion.
        artifact = self._load_disk(stage, key)
        with self._lock:
            if artifact is None:
                stats.misses += 1
                return None
            stats.disk_hits += 1
            stats.seconds_saved += artifact.seconds
            self._insert(stage, key, artifact, stats)
        return artifact

    def put(self, stage: str, key: str, payload: object,
            seconds: float = 0.0) -> StageArtifact:
        """Insert into memory and write the entry through to disk."""
        artifact = super().put(stage, key, payload, seconds=seconds)
        if stage not in MEMORY_ONLY_STAGES:
            self._store_disk(stage, key, artifact)
        return artifact

    # ------------------------------------------------------------------
    # Disk layout and locking.
    # ------------------------------------------------------------------
    def _disk_path(self, stage: str, key: str) -> str:
        return os.path.join(self.root, stage, f"{key}.art")

    @contextlib.contextmanager
    def _file_lock(self) -> Iterator[None]:
        """Exclusive cross-process lock over destructive directory ops."""
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        path = os.path.join(self.root, _LOCK_FILE)
        with open(path, "a+b") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    # ------------------------------------------------------------------
    # Entry format: one header line, then the pickle body.
    # ------------------------------------------------------------------
    def _load_disk(self, stage: str, key: str) -> Optional[StageArtifact]:
        path = self._disk_path(stage, key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        header, _, body = blob.partition(b"\n")
        parts = header.split(b" ")
        if (len(parts) != 3 or parts[0] != FORMAT_MAGIC
                or hashlib.sha256(body).hexdigest().encode() != parts[1]):
            self._quarantine(stage, key, path)
            return None
        try:
            payload = pickle.loads(body)
            seconds = float(parts[2])
        except Exception:  # noqa: BLE001 - fingerprint ok, pickle still bad
            self._quarantine(stage, key, path)
            return None
        # Recency for the LRU sweep: reads count as use.
        with contextlib.suppress(OSError):
            os.utime(path, None)
        return StageArtifact(stage=stage, key=key, payload=payload,
                             seconds=seconds, source="disk")

    def _store_disk(self, stage: str, key: str,
                    artifact: StageArtifact) -> None:
        path = self._disk_path(stage, key)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            body = pickle.dumps(artifact.payload)
            header = b" ".join([
                FORMAT_MAGIC,
                hashlib.sha256(body).hexdigest().encode(),
                repr(float(artifact.seconds)).encode(),
            ])
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "wb") as handle:
                handle.write(header + b"\n" + body)
            os.replace(tmp, path)
        except Exception:  # noqa: BLE001 - the disk layer is best effort
            with contextlib.suppress(OSError):
                os.remove(tmp)
            return
        self._evict_to_budget()

    def _quarantine(self, stage: str, key: str, path: str) -> None:
        """Move a failed-fingerprint entry aside and count it."""
        stats = self.stats(stage)
        with self._lock:
            stats.corrupt += 1
        quarantine = os.path.join(self.root, QUARANTINE_DIR)
        destination = os.path.join(quarantine, f"{stage}__{key}.art")
        with self._file_lock():
            try:
                os.makedirs(quarantine, exist_ok=True)
                os.replace(path, destination)
            except OSError:
                # Another process quarantined it first; that is fine.
                pass

    # ------------------------------------------------------------------
    # Size-budget LRU eviction.
    # ------------------------------------------------------------------
    def _disk_entries(self) -> List[Tuple[float, int, str, str]]:
        """(mtime, size, stage, path) for every live entry file."""
        entries: List[Tuple[float, int, str, str]] = []
        for name in os.listdir(self.root):
            stage_dir = os.path.join(self.root, name)
            if name == QUARANTINE_DIR or not os.path.isdir(stage_dir):
                continue
            for entry in os.listdir(stage_dir):
                if not entry.endswith(".art"):
                    continue
                path = os.path.join(stage_dir, entry)
                try:
                    status = os.stat(path)
                except OSError:
                    continue
                entries.append((status.st_mtime, status.st_size, name, path))
        return entries

    def disk_bytes(self) -> int:
        """Total size of live entry files (excludes quarantine)."""
        return sum(size for _mtime, size, _stage, _path in
                   self._disk_entries())

    def disk_len(self) -> int:
        """Number of live entry files (excludes quarantine)."""
        return len(self._disk_entries())

    def _evict_to_budget(self) -> None:
        if self.size_budget_bytes is None:
            return
        with self._file_lock():
            entries = sorted(self._disk_entries())
            total = sum(size for _mtime, size, _stage, _path in entries)
            for _mtime, size, stage, path in entries:
                if total <= self.size_budget_bytes:
                    break
                try:
                    os.remove(path)
                except OSError:
                    continue
                total -= size
                stats = self.stats(stage)
                with self._lock:
                    stats.disk_evictions += 1

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """Plain-data summary for the daemon's ``describe``/``stats`` ops."""
        return {
            "root": self.root,
            "entries": self.disk_len(),
            "bytes": self.disk_bytes(),
            "size_budget_bytes": self.size_budget_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DiskArtifactStore({self.root!r}, "
                f"budget={self.size_budget_bytes})")
