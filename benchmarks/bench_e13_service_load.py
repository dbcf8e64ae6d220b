"""E13 — service daemon under concurrent mixed client load.

PR 6 moved execution behind a persistent daemon; this benchmark prices
that move.  One daemon (shared disk store, sharded worker pool) is
warmed with the E5 machine × kernel validation matrix, then a fleet of
concurrent clients replays a mixed request stream against it — full
42-cell matrices, single-machine matrix slices, and individual kernel
runs — the "8 concurrent clients, one warm daemon" load shape of the
ISSUE-6 acceptance test.

Measured: per-request latency (p50/p99), end-to-end throughput, the
job round trips (``submit`` + ``result`` ops) a client needs per
executed request (one: ``execute`` submits and waits in a single op),
and the cache economics of the shared store (warm
matrix cells must be served from the cell memo, not recomputed).  Asserted: every concurrent matrix
response is bit-identical to a single-process ``Session.execute`` of
the same request, and the fleet-wide cell hit rate stays above the
ISSUE-6 floor (≥90%, ``E13_MIN_HIT_RATE`` to override).  Results go to
``BENCH_service_load.json`` at the repository root.

Scale follows the shared ``--shrink`` flag (the full shape exercises
hundreds of requests); ``E13_CLIENTS``, ``E13_REQUESTS_PER_CLIENT``,
``E13_WORKERS`` and ``E13_WORKER_MODE`` still pin individual knobs.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path

from repro.api import Session
from repro.api.requests import MatrixRequest, RunRequest
from repro.obs import snapshot_quantile, snapshot_value
from repro.service import CELL_STAGE, ServiceClient, ServiceDaemon

from conftest import (
    bench_metric, print_table, run_once, shrink_knob, write_baseline,
)

#: the E5 validation-matrix shape: 6 machines x 7 kernels = 42 cells.
MACHINES = ["risc32", "vliw2", "vliw4", "vliw8", "vliw4c2", "dsp16"]
KERNELS = ["dot_product", "saturated_add", "viterbi_acs", "sad16",
           "rgb_to_gray", "ip_checksum", "histogram"]
SIZE = 24

#: acceptance floor for the fleet-wide warm cell hit rate (ISSUE 6).
MIN_HIT_RATE = 0.90

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_service_load.json"


def _full_matrix() -> MatrixRequest:
    return MatrixRequest(machines=MACHINES, kernels=KERNELS, size=SIZE)


def _request_stream(client_index: int, requests_per_client: int):
    """One client's mixed request list (deterministic per client)."""
    requests = []
    for index in range(requests_per_client):
        slot = (client_index + index) % 5
        if slot == 0:
            requests.append(RunRequest(
                kernel=KERNELS[index % len(KERNELS)],
                machine=MACHINES[index % len(MACHINES)],
                size=SIZE, engine="cycle"))
        elif slot == 1:
            requests.append(MatrixRequest(
                machines=[MACHINES[index % len(MACHINES)]],
                kernels=KERNELS, size=SIZE))
        else:
            requests.append(_full_matrix())
    return requests


def _percentile(samples, fraction):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1,
                       int(fraction * (len(ordered) - 1) + 0.5))]


def _cell_economics(stats):
    """Fleet-wide cell-memo hits/misses from the daemon's merged metrics
    registry (the ``stats`` op pulls the worker registry snapshots)."""
    metrics = stats.get("metrics") or {}
    hits = int(snapshot_value(metrics, "store_hits", stage=CELL_STAGE))
    misses = int(snapshot_value(metrics, "store_misses", stage=CELL_STAGE))
    return hits, misses


def test_e13_service_load(benchmark, tmp_path, pytestconfig):
    clients = shrink_knob(pytestconfig, "E13_CLIENTS", 8, 4)
    requests_per_client = shrink_knob(
        pytestconfig, "E13_REQUESTS_PER_CLIENT", 25, 6)
    workers = shrink_knob(pytestconfig, "E13_WORKERS", 4, 2)
    worker_mode = shrink_knob(pytestconfig, "E13_WORKER_MODE",
                              "thread", "thread", cast=str)

    with Session(name="bench-e13-oracle") as oracle_session:
        oracle = oracle_session.execute(_full_matrix()).to_dict()
    oracle.pop("provenance")

    daemon = ServiceDaemon(str(tmp_path / "svc"), workers=workers,
                           worker_mode=worker_mode, name="bench-e13",
                           task_timeout=600.0)
    with daemon:
        with ServiceClient(daemon.endpoint) as warm:
            warm_start = time.perf_counter()
            warm_response = warm.execute(_full_matrix(), timeout=600)
            warm_seconds = time.perf_counter() - warm_start
            warm_dict = warm_response.to_dict()
            warm_dict.pop("provenance")
            assert warm_dict == oracle, "cold daemon matrix diverged"
            # Compulsory cold misses end here; the hit-rate floor
            # applies to the concurrent phase against the warm store.
            warm_hits, warm_misses = _cell_economics(warm.stats())

        latencies = [[] for _ in range(clients)]
        round_trips = [0] * clients
        matrix_responses = [[] for _ in range(clients)]
        errors = []

        def drive(client_index: int) -> None:
            try:
                with ServiceClient(daemon.endpoint) as client:
                    call = client._call

                    def counted_call(message):
                        if message.get("op") in ("submit", "result"):
                            round_trips[client_index] += 1
                        return call(message)

                    client._call = counted_call
                    for request in _request_stream(client_index,
                                                   requests_per_client):
                        start = time.perf_counter()
                        response = client.execute(request, timeout=600)
                        latencies[client_index].append(
                            time.perf_counter() - start)
                        if (request.kind == "matrix"
                                and len(request.machines) == len(MACHINES)):
                            matrix_responses[client_index].append(
                                response.to_dict())
            except Exception as exc:  # noqa: BLE001 - surface in main thread
                errors.append(f"client {client_index}: {exc}")

        def experiment():
            threads = [threading.Thread(target=drive, args=(index,),
                                        name=f"e13-client-{index}")
                       for index in range(clients)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return time.perf_counter() - start

        wall_seconds = run_once(benchmark, experiment)

        with ServiceClient(daemon.endpoint) as reporter:
            stats = reporter.stats()

    assert not errors, errors
    flat = [sample for per_client in latencies for sample in per_client]
    total_requests = len(flat)
    assert total_requests == clients * requests_per_client

    p50 = _percentile(flat, 0.50)
    p99 = _percentile(flat, 0.99)
    throughput = total_requests / wall_seconds if wall_seconds else 0.0
    round_trips_per_request = sum(round_trips) / total_requests
    total_hits, total_misses = _cell_economics(stats)
    hits = total_hits - warm_hits
    misses = total_misses - warm_misses
    hit_rate = hits / (hits + misses) if hits + misses else 0.0

    # Queue economics straight from the daemon's metrics registry: how
    # long jobs sat queued before a runner claimed them, and the build
    # seconds the shared cell memo saved the fleet.
    metrics = stats["metrics"]
    queue_wait_p50 = snapshot_quantile(metrics, "queue_wait_seconds", 0.50)
    queue_wait_p99 = snapshot_quantile(metrics, "queue_wait_seconds", 0.99)
    jobs_done = snapshot_value(metrics, "jobs_finished", state="done")
    cell_seconds_saved = snapshot_value(metrics, "store_seconds_saved",
                                        stage=CELL_STAGE)

    for per_client in matrix_responses:
        for response in per_client:
            response.pop("provenance")
            assert response == oracle, \
                "concurrent matrix response diverged from Session.execute"
    matrix_count = sum(len(per_client) for per_client in matrix_responses)

    print_table("E13: service load summary", [{
        "clients": clients,
        "requests": total_requests,
        "wall_s": round(wall_seconds, 2),
        "rps": round(throughput, 1),
        "p50_ms": round(p50 * 1e3, 1),
        "p99_ms": round(p99 * 1e3, 1),
        "round_trips/req": round(round_trips_per_request, 2),
        "qwait_p50_ms": round(queue_wait_p50 * 1e3, 1),
        "qwait_p99_ms": round(queue_wait_p99 * 1e3, 1),
        "cell_hit%": round(100 * hit_rate, 1),
    }])
    print(f"\nE13 summary: {total_requests} mixed requests from {clients} "
          f"concurrent clients against one warm daemon ({workers} "
          f"{worker_mode} workers): {throughput:.1f} req/s, p50 "
          f"{p50 * 1e3:.1f} ms, p99 {p99 * 1e3:.1f} ms; queue wait p50 "
          f"{queue_wait_p50 * 1e3:.1f} ms / p99 {queue_wait_p99 * 1e3:.1f} "
          f"ms over {jobs_done:.0f} jobs; cold 42-cell "
          f"matrix {warm_seconds:.2f} s; fleet cell-memo hit rate "
          f"{100 * hit_rate:.1f}% ({hits} hits / {misses} misses, "
          f"{cell_seconds_saved:.2f} build-seconds saved); "
          f"{matrix_count} full-matrix responses bit-identical to "
          f"Session.execute.")

    floor = float(os.environ.get("E13_MIN_HIT_RATE", MIN_HIT_RATE))
    write_baseline(OUTPUT, "e13_service_load", {
        "clients": clients,
        "requests_per_client": requests_per_client,
        "workers": workers,
        "worker_mode": worker_mode,
        "matrix_cells": len(MACHINES) * len(KERNELS),
        "requests": total_requests,
        "warm_matrix_seconds": round(warm_seconds, 4),
        "wall_seconds": round(wall_seconds, 4),
        "throughput_rps": round(throughput, 2),
        "latency_p50_s": round(p50, 5),
        "latency_p99_s": round(p99, 5),
        "round_trips_per_request": round(round_trips_per_request, 3),
        "queue_wait_p50_s": round(queue_wait_p50, 5),
        "queue_wait_p99_s": round(queue_wait_p99, 5),
        "jobs_done": int(jobs_done),
        "cell_hits": hits,
        "cell_misses": misses,
        "cell_hit_rate": round(hit_rate, 4),
        "cell_seconds_saved": round(cell_seconds_saved, 3),
        "matrix_responses_checked": matrix_count,
        "queue": stats["queue"],
        "store": {key: stats["store"][key]
                  for key in ("entries", "bytes", "size_budget_bytes")},
    }, metrics={
        "cell_hit_rate": bench_metric(round(hit_rate, 4), floor=floor),
        "failed_jobs": bench_metric(stats["queue"]["failed"],
                                    kind="fidelity", direction="lower",
                                    ceiling=0),
        "throughput_rps": bench_metric(round(throughput, 2), band=10.0),
        "latency_p50_s": bench_metric(round(p50, 5), direction="lower",
                                      band=2.0),
        # A blocking execute is one submit-and-wait op; a client that
        # goes back to submit-then-result (or sleep-polls) needs two or
        # more and trips the ceiling at any scale.
        "round_trips_per_request": bench_metric(
            round(round_trips_per_request, 3), direction="lower",
            ceiling=1.5),
        "matrix_responses_checked": bench_metric(
            matrix_count, floor=1),
    }, shrunk=bool(pytestconfig.getoption("--shrink")))

    assert stats["queue"]["failed"] == 0
    assert hit_rate >= floor, (
        f"fleet cell hit rate {hit_rate:.3f} below the {floor:.2f} floor")
