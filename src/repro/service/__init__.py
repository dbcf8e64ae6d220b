"""The persistent service layer: daemon, durable queue, shared store.

``repro.service`` turns the in-process :class:`repro.api.Session` into
a long-lived fleet: a :class:`ServiceDaemon` owns a crash-safe
:class:`DurableQueue` of request jobs and shards fan-out work over N
worker processes, all of which meet in one cross-process
:class:`DiskArtifactStore` — the shared compile/evaluation cache that
makes a warm daemon serve repeated matrices and explorations at cache
speed.  :class:`ServiceClient` is the Session-shaped front door;
``python -m repro serve/submit/status/result/cancel`` is the CLI form.

Results are bit-identical to single-process execution: the shard/merge
rules in :mod:`repro.service.tasks` reproduce the exact iteration
order (and therefore the exact floats) of the in-process paths.
"""

from .client import (
    ENDPOINT_ENV, JobFailed, JobHandle, ServiceClient, ServiceError,
)
from .daemon import ServiceDaemon, ShardedBatch, TaskError, TaskPool
from .diskstore import DiskArtifactStore
from .queue import (
    JOB_SCHEMA_VERSION, JOB_STATES, TERMINAL_STATES, DurableQueue, JobRecord,
    QueueError,
)
from .tasks import CELL_STAGE, cell_key, merge_matrix, shard_matrix
from .worker import WorkerRuntime, worker_loop

__all__ = [
    "ServiceDaemon", "ServiceClient", "JobHandle", "ServiceError",
    "JobFailed", "TaskError", "TaskPool", "ShardedBatch",
    "DiskArtifactStore", "DurableQueue", "JobRecord", "QueueError",
    "JOB_SCHEMA_VERSION", "JOB_STATES", "TERMINAL_STATES",
    "WorkerRuntime", "worker_loop",
    "CELL_STAGE", "cell_key", "shard_matrix", "merge_matrix",
    "ENDPOINT_ENV",
]
