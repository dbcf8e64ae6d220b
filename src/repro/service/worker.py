"""The worker side of the daemon↔worker protocol.

A worker is one isolated runner process (or, for tests and low-overhead
deployments, a thread) that connects back to the daemon's endpoint,
declares ``role: worker``, and then serves framed tasks one at a time:

* ``request`` — execute one full API request on the worker's private
  :class:`~repro.api.Session` (which shares the fleet-wide
  :class:`~repro.service.diskstore.DiskArtifactStore` — including the
  native engine's compiled ``.so`` artifacts, so one worker's JIT
  compile serves every worker), stamping the
  worker id into the response provenance;
* ``matrix`` — one machine's column of an N×M matrix, with per-cell
  memoization in the shared store (stage :data:`~repro.service.tasks.CELL_STAGE`)
  so warm matrices cost one lookup per cell;
* ``evaluate`` — a chunk of design points for an exploration: the
  evaluations land in the shared store under the batch layer's
  ``evaluation`` stage and only the content *keys* travel back over the
  socket (the store is the data plane, the frames are the control
  plane);
* ``population_validate`` — one round-robin slice of a deterministic
  generated population's dual-engine validation pass.

Result frames carry the task's result only.  The worker's cumulative
counters (store stats and, with metrics on, its registry snapshot)
are pulled: the daemon sends ``{"op": "stats", "id": n}`` and the
worker answers it between tasks with ``{"op": "stats", "id": n,
"store": ..., "metrics": ...}``.

A background thread heartbeats while tasks run, so the daemon can tell
a *slow* worker from a *dead* one; losing the connection (daemon gone)
ends the worker.  :class:`WorkerRuntime` holds all task semantics and
no I/O, so the execution contract is unit-testable without sockets.
"""

from __future__ import annotations

import argparse
import os
import threading
import time
from typing import Dict, List, Optional

from ..obs import global_tracer, metrics_enabled
from . import protocol
from .diskstore import DiskArtifactStore
from .tasks import CELL_STAGE, cell_key

#: env knob: per-task delay in seconds, a deterministic window for the
#: fault-injection tests to kill a worker that is provably mid-job.
TASK_DELAY_ENV = "REPRO_SERVICE_TASK_DELAY_S"


class WorkerRuntime:
    """Task execution semantics, independent of the socket loop."""

    def __init__(self, store: DiskArtifactStore,
                 worker_id: str = "local") -> None:
        from ..api.session import Session

        self.store = store
        self.worker_id = worker_id
        self.session = Session(name=f"svc-{worker_id}", store=store)

    # ------------------------------------------------------------------
    def execute(self, task: Dict[str, object]) -> Dict[str, object]:
        """Serve one task dict; returns a JSON-serializable result."""
        delay = float(os.environ.get(TASK_DELAY_ENV, "0") or 0.0)
        if delay > 0:
            time.sleep(delay)
        kind = task.get("task")
        handler = {
            "request": self._request,
            "matrix": self._matrix,
            "evaluate": self._evaluate,
            "population_validate": self._population_validate,
        }.get(kind)
        if handler is None:
            raise ValueError(f"unknown task kind {kind!r}")
        tracer = global_tracer()
        trace = task.get("trace") if isinstance(task.get("trace"),
                                                dict) else {}
        # Adopt the daemon's span context (propagated in the task frame)
        # so the worker's spans carry the request's trace_id.
        with tracer.adopt(str(trace.get("trace_id", "")),
                          str(trace.get("span_id", ""))):
            with tracer.span("worker.task", worker=self.worker_id,
                             task=str(kind)) as span:
                result = handler(task)
                trace_id = span.trace_id
        result["worker"] = self.worker_id
        if trace_id:
            # Ship (and drain) this task's spans back inside the result
            # frame; the daemon stitches them into its trace buffer.
            result["spans"] = tracer.take(trace_id)
        return result

    def stats(self) -> Dict[str, object]:
        """The worker's cumulative counters, for the daemon's ``stats`` op.

        ``store`` is the store's per-stage counters; ``metrics`` (with
        metrics on) the session registry snapshot, which the daemon
        merges fleet-wide.
        """
        counters: Dict[str, object] = {"store": self.store.stats_dict()}
        if metrics_enabled():
            counters["metrics"] = self.session.registry.snapshot()
        return counters

    # ------------------------------------------------------------------
    # Task handlers.
    # ------------------------------------------------------------------
    def _request(self, task: Dict[str, object]) -> Dict[str, object]:
        from ..api.requests import request_from_dict

        request = request_from_dict(task["request"])
        response = self.session.execute(request)
        if response.provenance is not None:
            response.provenance.worker = self.worker_id
        return {"response": response.to_dict()}

    def _matrix(self, task: Dict[str, object]) -> Dict[str, object]:
        """One machine's matrix column, memoized per cell."""
        from ..api.requests import MatrixRequest, resolve_machine
        from ..exec.registry import TRACE_ENGINE
        from ..toolchain.matrix import run_matrix
        from ..workloads.kernels import KERNELS

        request = MatrixRequest.from_dict(task["request"])
        if len(request.machines) != 1:
            raise ValueError("matrix tasks are sharded to one machine each")
        machine_ref = request.machines[0]
        session = self.session
        size = request.size if request.size is not None else session.size
        seed = request.seed if request.seed is not None else session.seed
        opt_level = (request.opt_level if request.opt_level is not None
                     else session.opt_level)
        fidelity = (request.fidelity if request.fidelity is not None
                    else session.fidelity)
        engine = request.engine if request.engine is not None else session.engine
        if fidelity == "trace":
            # Mirror run_matrix: key and report the engine that runs.
            engine = TRACE_ENGINE
        kernels = (sorted(request.kernels) if request.kernels is not None
                   else sorted(KERNELS))

        tracer = global_tracer()
        cells: Dict[str, Dict[str, object]] = {}
        missing: List[str] = []
        for kernel in kernels:
            key = cell_key(machine_ref, kernel, size, seed, opt_level,
                           engine, fidelity)
            with tracer.span("stage.cell", kernel=kernel,
                             machine=str(machine_ref)) as span:
                artifact = self.store.get(CELL_STAGE, key)
                if artifact is not None:
                    span.note(hit=True, key=key[:16])
                    cells[kernel] = artifact.payload
                else:
                    span.note(hit=False, key=key[:16])
                    missing.append(kernel)

        machine = resolve_machine(machine_ref)
        if missing:
            report = run_matrix([machine], kernel_names=missing, size=size,
                                opt_level=opt_level, seed=seed, engine=engine,
                                fidelity=fidelity, pipeline=session.pipeline)
            started = time.perf_counter()
            for cell, row in zip(report.cells, report.to_rows()):
                payload = {
                    "row": row,
                    "correct": cell.correct,
                    "failure": (None if cell.correct else
                                {"machine": cell.machine,
                                 "kernel": cell.kernel,
                                 "error": cell.error}),
                }
                cells[cell.kernel] = payload
                key = cell_key(machine_ref, cell.kernel, size, seed,
                               opt_level, engine, fidelity)
                self.store.put(CELL_STAGE, key, payload,
                               seconds=time.perf_counter() - started)

        rows = [cells[kernel]["row"] for kernel in kernels]
        failures = [cells[kernel]["failure"] for kernel in kernels
                    if cells[kernel]["failure"] is not None]
        return {
            "machines": [machine.name],
            "kernels": kernels,
            "engine": engine,
            "fidelity": fidelity,
            "rows": rows,
            "failures": failures,
            "correct": sum(bool(cells[kernel]["correct"])
                           for kernel in kernels),
        }

    def _evaluate(self, task: Dict[str, object]) -> Dict[str, object]:
        """Evaluate a design-point chunk into the shared store."""
        from ..dse.space import DesignPoint
        from ..exec.batch import BatchEvaluator, EvaluatorSpec

        raw = dict(task["spec"])
        # JSON flattens tuples to lists; the cache key is a repr of the
        # spec, so restore the exact tuple shape the daemon hashed.
        raw["weights"] = tuple((str(kernel), weight)
                               for kernel, weight in raw["weights"])
        spec = EvaluatorSpec(**raw)
        # The spec itself knows whether it rebuilds a kernel-mix or an
        # application-mix evaluator; either way the worker's session
        # pipeline (and its shared store) backs the compilation.
        evaluator = spec.build(pipeline=self.session.pipeline)
        batch = BatchEvaluator(evaluator, workers=0, store=self.store)
        points = [DesignPoint(**point) for point in task["points"]]
        batch.evaluate_many(points)
        return {"keys": [batch.point_key(point) for point in points]}

    def _population_validate(self, task: Dict[str, object]
                             ) -> Dict[str, object]:
        """Validate one round-robin slice of a generated population."""
        from ..api.requests import PopulationRequest
        from ..gen.population import WorkloadPopulation

        request = PopulationRequest.from_dict(task["request"])
        index, shards = int(task["index"]), int(task["shards"])
        population = WorkloadPopulation.generate(
            request.count, seed=request.seed, families=request.families)
        subset = WorkloadPopulation(population.generated[index::shards],
                                    seed=request.seed)
        opt_level = (request.opt_level if request.opt_level is not None
                     else self.session.opt_level)
        with subset:
            validated = subset.validate(size=request.size,
                                        opt_level=opt_level,
                                        pipeline=self.session.pipeline)
        return {"valid": sum(validated.values()), "checked": len(validated)}


# ----------------------------------------------------------------------
# Socket loop.
# ----------------------------------------------------------------------

def _connect_with_retry(endpoint: str, deadline_s: float = 15.0):
    """Workers may start before the daemon's listener; retry briefly."""
    deadline = time.monotonic() + deadline_s
    while True:
        try:
            return protocol.connect(endpoint, timeout=2.0)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)


def worker_loop(endpoint: str, store_root: str, worker_id: str,
                heartbeat_s: float = 2.0,
                runtime: Optional[WorkerRuntime] = None) -> None:
    """Connect, register, and serve tasks until told to exit."""
    if runtime is None:
        runtime = WorkerRuntime(DiskArtifactStore(store_root),
                                worker_id=worker_id)
    sock = _connect_with_retry(endpoint)
    send_lock = threading.Lock()
    stop = threading.Event()

    def _send(message: Dict[str, object]) -> None:
        with send_lock:
            protocol.send_frame(sock, message)

    def _heartbeat() -> None:
        while not stop.wait(heartbeat_s):
            try:
                _send({"op": "heartbeat", "worker": worker_id})
            except OSError:
                return

    _send({"op": "hello", "role": "worker", "worker": worker_id,
           "pid": os.getpid()})
    threading.Thread(target=_heartbeat, daemon=True,
                     name=f"svc-{worker_id}-heartbeat").start()
    try:
        while True:
            message = protocol.recv_frame(sock)
            if message is None or message.get("op") == "exit":
                break
            if message.get("op") == "stats":
                _send(dict(runtime.stats(), op="stats", id=message.get("id")))
                continue
            if message.get("op") != "task":
                continue
            task_id = message.get("id")
            try:
                result = runtime.execute(message["task"])
                reply = {"op": "result", "id": task_id, "ok": True,
                         "result": result}
            except Exception as exc:  # noqa: BLE001 - report, keep serving
                reply = {"op": "result", "id": task_id, "ok": False,
                         "error": f"{type(exc).__name__}: {exc}"}
            _send(reply)
    except (OSError, protocol.ProtocolError):
        # The daemon is gone; a worker has no purpose without one.
        pass
    finally:
        stop.set()
        sock.close()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.worker",
        description="one runner process of a repro service daemon")
    parser.add_argument("--endpoint", required=True,
                        help="daemon endpoint (unix:/path or tcp:host:port)")
    parser.add_argument("--store", required=True,
                        help="root of the shared disk artifact store")
    parser.add_argument("--id", default=f"w{os.getpid()}",
                        help="worker id reported to the daemon")
    parser.add_argument("--heartbeat", type=float, default=2.0,
                        help="heartbeat interval in seconds")
    args = parser.parse_args(argv)
    worker_loop(args.endpoint, args.store, args.id,
                heartbeat_s=args.heartbeat)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
