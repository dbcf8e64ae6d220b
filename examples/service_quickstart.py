"""Run the repro job service: daemon, durable queue, concurrent clients.

PR 6 puts a persistent daemon in front of the experiment engine: clients
submit the same serializable requests the :class:`repro.api.Session`
executes, the daemon journals them in a crash-safe queue, shards the
work over a pool of workers, and memoizes everything in one
cross-process artifact store — so eight clients re-running the
validation matrix pay for it roughly once.

This example embeds the daemon in-process (thread workers) so it runs
anywhere without orchestration; in production you would start it once
with ``python -m repro serve --root /var/lib/repro`` and point clients
(and ``REPRO_SERVICE_SOCKET``) at its endpoint.

Run with:  python examples/service_quickstart.py
"""

from __future__ import annotations

import tempfile
import threading
import time

from repro.api.requests import MatrixRequest, RunRequest
from repro.service import ServiceClient, ServiceDaemon

MACHINES = ["vliw4", "risc32", "dsp16"]
KERNELS = ["crc32", "dot_product", "viterbi_acs"]


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-service-") as root:
        serve(root)


def serve(root: str) -> None:
    with ServiceDaemon(root, workers=2, worker_mode="thread",
                       name="quickstart") as daemon:
        print(f"daemon up: endpoint={daemon.endpoint}")
        print(f"shared store: {daemon.store_dir}\n")

        # --- one blocking request, Session-shaped -----------------------
        with ServiceClient(daemon.endpoint) as client:
            request = MatrixRequest(machines=MACHINES, kernels=KERNELS)
            start = time.perf_counter()
            response = client.execute(request, timeout=300)
            cold_s = time.perf_counter() - start
            cells = len(response.rows)
            print(f"cold matrix: {cells} cells in {cold_s:.2f}s, "
                  f"pass rate {response.pass_rate}, "
                  f"served by workers [{response.provenance.worker}]")

            # --- future-backed submission ------------------------------
            handle = client.submit(RunRequest(kernel="sad16",
                                              machine="vliw8",
                                              engine="cycle"))
            print(f"submitted {handle.id}; state={handle.status()}")
            run = handle.result(timeout=300)
            print(f"{handle.id} done: sad16 on vliw8 -> "
                  f"{run.cycles} cycles, correct={run.correct}")

        # --- concurrent clients against the warm store ------------------
        def rerun(index: int, seconds: list) -> None:
            with ServiceClient(daemon.endpoint) as c:
                start = time.perf_counter()
                warm = c.execute(MatrixRequest(machines=MACHINES,
                                               kernels=KERNELS), timeout=300)
                seconds[index] = time.perf_counter() - start
                assert warm.all_correct

        timings = [0.0] * 4
        threads = [threading.Thread(target=rerun, args=(i, timings))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        print(f"\n4 concurrent warm clients: "
              f"{', '.join(f'{s * 1e3:.0f}ms' for s in timings)} "
              f"(every cell a shared-store hit)")

        with ServiceClient(daemon.endpoint) as client:
            stats = client.stats()
            queue = stats["queue"]
            print(f"queue journal: {queue['done']} done / "
                  f"{queue['total']} submitted; store holds "
                  f"{stats['store']['entries']} artifacts "
                  f"({stats['store']['bytes'] / 1024:.0f} KiB)")
    print("daemon stopped; the queue journal and store survive restarts.")


if __name__ == "__main__":
    main()
