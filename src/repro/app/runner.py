"""Window-by-window execution of an application graph on one machine.

:class:`AppRunner` expands every node of an
:class:`~repro.app.spec.ApplicationSpec` through the deterministic
kernel generator, compiles each node for the target machine through the
shared :class:`~repro.pipeline.CompilePipeline`, and then drives the
graph one input window at a time: arguments are bound per (window,
node) from seeded RNG draws plus whatever upstream nodes produced along
the spec's edges, the node executes on the selected functional engine
(interpreter / compiled / native — identical values by construction),
and its timing is its measured profile reduced over the machine's
schedule by :class:`~repro.model.RetimingModel` with cache modelling
off (the functional engines record no address stream).

Every node run is checked against a *composed oracle*: a second,
engine-free propagation chain evaluates each node's generated Python
reference on oracle-produced upstream values, so a whole graph stays
self-checking — per-node return values **and** produced output arrays
must match bit for bit.

Two fidelities mirror the single-kernel evaluator:

* ``"cycle"`` — every window of every node actually executes; window
  latency, jitter and deadline misses come from measured per-window
  profiles (data-dependent control flow makes windows genuinely vary);
* ``"trace"`` — each node is timed once (window 0) by the pipeline's
  one kernel measurement, :meth:`~repro.pipeline.CompilePipeline.measure`
  at trace fidelity: profiled by the ``trace`` stage and priced
  analytically per machine by the :class:`~repro.model.RetimingModel`;
  the graph is re-aggregated from the per-node estimates, so a
  design-space sweep never re-executes the application.

The result is a typed, plain-data :class:`AppReport` — picklable
through the artifact store — with p50/p95/p99 window latencies derived
via :mod:`repro.obs` histogram quantiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..arch.machine import MachineDescription
from ..exec.registry import validate_engine
from ..gen.generator import _INPUT_RANGES, build_function, generate_kernel
from ..ir.types import I32
from ..obs import global_tracer
from ..obs.metrics import Histogram
from ..workloads.kernels import draw_ints
from .spec import VALUE_PORT, ApplicationSpec

_W = I32.wrap

#: geometric microsecond ladder for window-latency quantiles
#: (0.5 us .. ~1.2e7 us, ratio 4/3 — fine enough for p99 interpolation).
LATENCY_BUCKETS_US: Tuple[float, ...] = tuple(
    0.5 * (4.0 / 3.0) ** i for i in range(60))


def _port_seed(stream_seed: int, window: int, node: str, port: str) -> str:
    """Stable string seed for one array draw (str seeding hashes with
    sha512, so it is identical across processes and platforms)."""
    return f"app:{stream_seed}:{window}:{node}:{port}"


@dataclass
class AppNodeStats:
    """Aggregate measurements of one node across all windows."""

    node: str
    kernel: str
    family: str
    runs: int = 0
    cycles_per_window: List[int] = field(default_factory=list)
    energy_uj_total: float = 0.0
    code_bytes: int = 0
    correct: bool = True

    @property
    def cycles_total(self) -> int:
        return sum(self.cycles_per_window)

    @property
    def cycles_mean(self) -> float:
        return self.cycles_total / self.runs if self.runs else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "node": self.node, "kernel": self.kernel, "family": self.family,
            "runs": self.runs, "cycles_total": self.cycles_total,
            "cycles_mean": round(self.cycles_mean, 1),
            "energy_uj": round(self.energy_uj_total, 4),
            "code_bytes": self.code_bytes, "correct": self.correct,
        }


@dataclass
class AppReport:
    """Typed real-time measurements of one application on one machine.

    Plain data throughout (lists, dicts, floats) so reports survive the
    pickling artifact-store layers; latency quantiles are derived on
    demand through a transient :class:`~repro.obs.metrics.Histogram`.
    """

    application: str
    fingerprint: str
    machine: str
    engine: str
    fidelity: str
    windows: int
    window_size: int
    period_us: float
    deadline_us: float
    clock_ns: float
    correct: bool
    window_latencies_us: List[float]
    window_energies_uj: List[float]
    node_stats: List[AppNodeStats]
    #: per-window scalar return value of every node — the bit-identity
    #: surface the differential engine tests compare.
    window_values: List[Dict[str, int]]

    # ------------------------------------------------------------------
    # Real-time metrics.
    # ------------------------------------------------------------------
    @property
    def deadline_misses(self) -> int:
        return sum(1 for latency in self.window_latencies_us
                   if latency > self.deadline_us)

    @property
    def deadline_miss_rate(self) -> float:
        if not self.window_latencies_us:
            return 0.0
        return self.deadline_misses / len(self.window_latencies_us)

    @property
    def jitter_us(self) -> float:
        if len(self.window_latencies_us) < 2:
            return 0.0
        return max(self.window_latencies_us) - min(self.window_latencies_us)

    @property
    def energy_per_window_uj(self) -> float:
        if not self.window_energies_uj:
            return 0.0
        return sum(self.window_energies_uj) / len(self.window_energies_uj)

    @property
    def total_cycles(self) -> int:
        return sum(stats.cycles_total for stats in self.node_stats)

    @property
    def cycles_per_window(self) -> float:
        return self.total_cycles / self.windows if self.windows else 0.0

    def _histogram(self) -> Histogram:
        histogram = Histogram("app_window_latency_us", (),
                              buckets=LATENCY_BUCKETS_US)
        for latency in self.window_latencies_us:
            histogram.observe(latency)
        return histogram

    def latency_quantile_us(self, q: float) -> float:
        return self._histogram().quantile(q)

    @property
    def p50_latency_us(self) -> float:
        return self.latency_quantile_us(0.50)

    @property
    def p95_latency_us(self) -> float:
        return self.latency_quantile_us(0.95)

    @property
    def p99_latency_us(self) -> float:
        return self.latency_quantile_us(0.99)

    # ------------------------------------------------------------------
    # Presentation.
    # ------------------------------------------------------------------
    def summary_row(self) -> Dict[str, object]:
        return {
            "application": self.application,
            "machine": self.machine,
            "engine": self.engine,
            "fidelity": self.fidelity,
            "windows": self.windows,
            "correct": self.correct,
            "miss_rate": round(self.deadline_miss_rate, 4),
            "p50_us": round(self.p50_latency_us, 2),
            "p95_us": round(self.p95_latency_us, 2),
            "p99_us": round(self.p99_latency_us, 2),
            "jitter_us": round(self.jitter_us, 2),
            "energy_per_window_uj": round(self.energy_per_window_uj, 4),
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "application": self.application,
            "fingerprint": self.fingerprint,
            "machine": self.machine,
            "engine": self.engine,
            "fidelity": self.fidelity,
            "windows": self.windows,
            "window_size": self.window_size,
            "period_us": self.period_us,
            "deadline_us": self.deadline_us,
            "clock_ns": self.clock_ns,
            "correct": self.correct,
            "deadline_misses": self.deadline_misses,
            "deadline_miss_rate": self.deadline_miss_rate,
            "p50_latency_us": self.p50_latency_us,
            "p95_latency_us": self.p95_latency_us,
            "p99_latency_us": self.p99_latency_us,
            "jitter_us": self.jitter_us,
            "energy_per_window_uj": self.energy_per_window_uj,
            "window_latencies_us": list(self.window_latencies_us),
            "nodes": [stats.to_dict() for stats in self.node_stats],
        }


class AppRunner:
    """Executes one application spec on one machine, window by window."""

    def __init__(self, spec: ApplicationSpec, machine: MachineDescription,
                 engine: str = "compiled", opt_level: int = 2,
                 fidelity: str = "cycle", pipeline=None,
                 modules: Optional[Mapping[str, object]] = None) -> None:
        validate_engine(engine, "functional")
        validate_engine(fidelity, "fidelity")
        self.spec = spec
        self.machine = machine
        self.engine = engine
        self.opt_level = opt_level
        self.fidelity = fidelity
        if pipeline is not None:
            self.pipeline = pipeline
        else:
            from ..api.session import default_pipeline

            self.pipeline = default_pipeline()
        self.order = spec.topological_order()
        #: per-node generated kernel (C source, Python oracle, arg roles).
        self.generated = {node.name: generate_kernel(node.spec)
                          for node in spec.nodes}
        #: per-node array parameters in declaration order (name, role).
        self.arrays = {node.name: build_function(node.spec).arrays
                       for node in spec.nodes}
        #: per-node optimized IR — injectable so ISA-customized module
        #: sets (see :class:`repro.dse.AppEvaluator`) reuse this runner.
        if modules is not None:
            self._modules = dict(modules)
        else:
            self._modules = {}
            for node in spec.nodes:
                kernel = self.generated[node.name].kernel
                module, _records = self.pipeline.front(
                    kernel.source, kernel.name, opt_level=self.opt_level)
                self._modules[node.name] = module
        #: per-node scheduled code for ``machine``.
        self._compiled = {}
        self._code_bytes = {}
        for node in spec.nodes:
            compiled, report = self.pipeline.backend(
                self._modules[node.name], machine)
            self._compiled[node.name] = compiled
            self._code_bytes[node.name] = (
                report.code.bytes_effective if report.code is not None else 0)

    @property
    def total_code_bytes(self) -> int:
        """Effective code bytes across all node schedules."""
        return sum(self._code_bytes.values())

    # ------------------------------------------------------------------
    # Argument binding.
    # ------------------------------------------------------------------
    def bind_args(self, window: int, node_name: str,
                  produced: Mapping[Tuple[str, str], object],
                  load: Optional[int] = None) -> tuple:
        """Concrete arguments of one (window, node) run.

        Fresh data is drawn from seeds stable in (stream seed, window,
        node, port); edge-bound ports take upstream values from
        ``produced`` (keyed ``(src node, src port)``) — a copy of the
        produced array for array edges, the scalar folded into a fresh
        window for scalar edges.  Arrays are always allocated at the
        spec's ``run_size`` (so the generator's masked indexing stays in
        range and edges connect equal-length buffers); the trailing
        ``n`` argument is the window's *active* sample count.
        """
        spec = self.spec
        node = spec.node(node_name)
        incoming = {edge.dst_port: edge for edge in spec.in_edges(node_name)}
        lo, hi = _INPUT_RANGES[node.spec.data_bits]
        n = spec.run_size
        if load is None:
            load = min(spec.stream.window_load(window), n)
        args: List[object] = []
        for param in self.arrays[node_name]:
            draw_seed = _port_seed(spec.stream.seed, window, node_name,
                                   param.name)
            if param.role == "table":
                args.append(draw_ints(draw_seed, 256, 0, 255))
            elif param.role == "output":
                args.append([0] * n)
            else:
                edge = incoming.get(param.name)
                if edge is not None and edge.is_array:
                    args.append(list(produced[(edge.src, edge.src_port)]))
                else:
                    data = draw_ints(draw_seed, n, lo, hi)
                    if edge is not None:
                        scalar = produced[(edge.src, VALUE_PORT)]
                        data = [_W(v + scalar) for v in data]
                    args.append(data)
        args.append(load)
        return tuple(args)

    def _oracle_step(self, window: int, node_name: str,
                     produced: Dict[Tuple[str, str], object],
                     load: Optional[int] = None) -> int:
        """Run one node's Python oracle; record its products; return value."""
        generated = self.generated[node_name]
        args = self.bind_args(window, node_name, produced, load=load)
        value = generated.kernel.reference(*args)
        produced[(node_name, VALUE_PORT)] = value
        for param, arg in zip(self.arrays[node_name], args):
            if param.role == "output":
                produced[(node_name, param.name)] = arg
        return value

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def run(self) -> AppReport:
        if self.fidelity == "trace":
            return self._run_trace()
        return self._run_cycle()

    def _empty_report(self) -> AppReport:
        stream = self.spec.stream
        return AppReport(
            application=self.spec.name,
            fingerprint=self.spec.fingerprint(),
            machine=self.machine.name,
            engine=self.engine,
            fidelity=self.fidelity,
            windows=stream.windows,
            window_size=stream.window_size,
            period_us=stream.period_us,
            deadline_us=stream.deadline_us,
            clock_ns=self.machine.clock_ns,
            correct=True,
            window_latencies_us=[],
            window_energies_uj=[],
            node_stats=[
                AppNodeStats(node=node.name,
                             kernel=self.generated[node.name].name,
                             family=node.spec.family,
                             code_bytes=self._code_bytes[node.name])
                for node in self.order
            ],
            window_values=[],
        )

    def _run_cycle(self) -> AppReport:
        from ..exec.engine import make_functional_simulator
        from ..model.retime import RetimingModel

        report = self._empty_report()
        # Profiles carry no address stream: cache modelling is off.
        retimer = RetimingModel(model_caches=False)
        stats_by_node = {stats.node: stats for stats in report.node_stats}
        tracer = global_tracer()
        clock_us = self.machine.clock_ns / 1000.0
        for window in range(self.spec.stream.windows):
            produced_engine: Dict[Tuple[str, str], object] = {}
            produced_oracle: Dict[Tuple[str, str], object] = {}
            window_cycles = 0
            window_energy = 0.0
            values: Dict[str, int] = {}
            with tracer.span("app.window", app=self.spec.name,
                             window=window) as window_span:
                for node in self.order:
                    name = node.name
                    generated = self.generated[name]
                    expected = self._oracle_step(window, name, produced_oracle)
                    args = self.bind_args(window, name, produced_engine)
                    with tracer.span("app.node", node=name,
                                     kernel=generated.name) as node_span:
                        simulator = make_functional_simulator(
                            self._modules[name], engine=self.engine,
                            store=self.pipeline.store)
                        value = simulator.run(generated.kernel.entry, *args)
                        estimate = retimer.price(
                            self._compiled[name], self.machine,
                            simulator.profile)
                        cycles = estimate.cycles
                        energy_uj = estimate.energy_uj
                        node_span.note(cycles=cycles, value=value)
                    produced_engine[(name, VALUE_PORT)] = value
                    correct = value == expected
                    for param, arg in zip(self.arrays[name], args):
                        if param.role == "output":
                            produced_engine[(name, param.name)] = arg
                            if arg != produced_oracle[(name, param.name)]:
                                correct = False
                    stats = stats_by_node[name]
                    stats.runs += 1
                    stats.cycles_per_window.append(cycles)
                    stats.energy_uj_total += energy_uj
                    stats.correct = stats.correct and correct
                    values[name] = value
                    window_cycles += cycles
                    window_energy += energy_uj
                latency_us = window_cycles * clock_us
                window_span.note(latency_us=round(latency_us, 3),
                                 miss=latency_us > self.spec.stream.deadline_us)
            report.window_latencies_us.append(latency_us)
            report.window_energies_uj.append(window_energy)
            report.window_values.append(values)
        report.correct = all(stats.correct for stats in report.node_stats)
        return report

    def _run_trace(self) -> AppReport:
        """Profile each node once (window 0), price analytically, and
        re-aggregate the graph — no per-window execution at all."""
        report = self._empty_report()
        produced_oracle: Dict[Tuple[str, str], object] = {}
        total_cycles = 0
        total_energy = 0.0
        values: Dict[str, int] = {}
        # Screen at worst-case load: every window carries a full
        # window_size samples, so the analytic estimate upper-bounds the
        # measured per-window latency regardless of load jitter.
        load = min(self.spec.stream.window_size, self.spec.run_size)
        for node in self.order:
            name = node.name
            generated = self.generated[name]
            args = self.bind_args(0, name, produced_oracle, load=load)
            expected = self._oracle_step(0, name, produced_oracle, load=load)
            estimate = self.pipeline.measure(
                self._modules[name], self._compiled[name],
                generated.kernel.entry, args, "trace")
            stats = next(s for s in report.node_stats if s.node == name)
            stats.runs = 1
            stats.cycles_per_window.append(estimate.cycles)
            stats.energy_uj_total = estimate.energy_uj
            stats.correct = estimate.value == expected
            values[name] = estimate.value
            total_cycles += estimate.cycles
            total_energy += estimate.energy_uj
        latency_us = total_cycles * self.machine.clock_ns / 1000.0
        windows = self.spec.stream.windows
        report.window_latencies_us = [latency_us] * windows
        report.window_energies_uj = [total_energy] * windows
        report.window_values = [dict(values)] * windows
        report.correct = all(stats.correct for stats in report.node_stats)
        return report


def run_application(spec: ApplicationSpec, machine: MachineDescription,
                    engine: str = "compiled", opt_level: int = 2,
                    fidelity: str = "cycle", pipeline=None) -> AppReport:
    """One-call convenience: build an :class:`AppRunner` and run it."""
    return AppRunner(spec, machine, engine=engine, opt_level=opt_level,
                     fidelity=fidelity, pipeline=pipeline).run()
