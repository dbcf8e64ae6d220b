"""Tests for :mod:`repro.app` — multi-kernel dataflow applications.

Covers, per the PR-9 acceptance criteria:

* :class:`ApplicationSpec` serialization (round-trip identity, stable
  fingerprints, unknown-field tolerance) and graph validation (bad
  ports, double-bound inputs, unknown nodes, cycles);
* graph-level **bit-identity** across all three functional engines: the
  same seeded application produces identical per-window node values on
  the interpreter, the threaded-code engine, and (when a C compiler is
  present) the native engine — all checked against the composed Python
  oracle;
* :class:`AppRunner` real-time metrics: per-window latency and energy,
  nonzero jitter under load variation, deadline-miss accounting,
  quantile ordering, and the trace-fidelity analytic path as an upper
  bound on executed latency;
* :class:`AppEvaluator` / :class:`ApplicationMix` and the real-time
  objectives, including the headline result: optimizing a design space
  for ``deadline_miss_rate`` picks a *different* machine than raw
  ``performance``;
* the :class:`~repro.exec.batch.EvaluatorSpec` recipe round-trip that
  service workers use to rebuild application evaluators.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace

import pytest

from repro.app import (
    AppEdge, AppNode, AppRunner, ApplicationSpec, VALUE_PORT, WindowStream,
    node_ports, run_application,
)
from repro.arch import risc_baseline, vliw4
from repro.dse import (
    AppEvaluation, AppEvaluator, ApplicationMix, DesignSpace, Explorer,
    OBJECTIVES, Evaluation,
)
from repro.exec import native_available
from repro.exec.batch import BatchEvaluator, EvaluatorSpec
from repro.gen import APP_TOPOLOGIES, sample_application

from _shared import APP_SEED, seeded_application

ENGINES = ["interpreter", "compiled"] + (
    ["native"] if native_available() else [])


class TestApplicationSpec:
    @pytest.mark.parametrize("topology", APP_TOPOLOGIES)
    def test_round_trip_identity_and_fingerprint(self, topology):
        spec = seeded_application(topology)
        text = spec.to_json()
        rebuilt = ApplicationSpec.from_json(text)
        assert rebuilt == spec
        assert rebuilt.to_json() == text          # stable fixed point
        assert rebuilt.fingerprint() == spec.fingerprint()

    def test_fingerprints_differ_across_topologies_and_seeds(self):
        prints = {seeded_application(t).fingerprint()
                  for t in APP_TOPOLOGIES}
        assert len(prints) == len(APP_TOPOLOGIES)
        other = sample_application("chain", APP_SEED + 1)
        assert other.fingerprint() != seeded_application("chain").fingerprint()

    def test_generation_is_deterministic(self):
        again = sample_application("chain", APP_SEED, windows=4,
                                   deadline_us=30.0, period_us=30.0)
        assert again == seeded_application("chain")

    def test_unknown_fields_are_ignored(self):
        data = seeded_application("chain").to_dict()
        data["a_future_field"] = True
        assert ApplicationSpec.from_dict(data) == seeded_application("chain")

    def test_topological_order_respects_edges(self):
        spec = seeded_application("diamond")
        order = [node.name for node in spec.topological_order()]
        for edge in spec.edges:
            assert order.index(edge.src) < order.index(edge.dst)

    def test_rejects_unknown_edge_nodes(self):
        spec = seeded_application("chain")
        with pytest.raises(ValueError, match="unknown nodes"):
            ApplicationSpec(name="bad", nodes=spec.nodes,
                            edges=spec.edges + (AppEdge(
                                src="ghost", dst=spec.nodes[0].name,
                                dst_port="x"),))

    def test_rejects_non_output_source_port(self):
        spec = seeded_application("chain")
        src, dst = spec.edges[0].src, spec.edges[0].dst
        some_input = next(name for name, role
                          in node_ports(spec.node(src).spec).items()
                          if role == "input")
        with pytest.raises(ValueError, match="not an output array"):
            ApplicationSpec(name="bad", nodes=spec.nodes, edges=(
                AppEdge(src=src, dst=dst, src_port=some_input,
                        dst_port=spec.edges[0].dst_port),))

    def test_rejects_non_input_destination_port(self):
        spec = seeded_application("chain")
        edge = spec.edges[0]
        with pytest.raises(ValueError, match="not an input array"):
            ApplicationSpec(name="bad", nodes=spec.nodes,
                            edges=(replace(edge, dst_port="nonesuch"),))

    def test_rejects_double_bound_input_port(self):
        spec = seeded_application("chain")
        edge = spec.edges[0]
        scalar = AppEdge(src=edge.src, dst=edge.dst, src_port=VALUE_PORT,
                         dst_port=edge.dst_port)
        with pytest.raises(ValueError, match="bound twice"):
            ApplicationSpec(name="bad", nodes=spec.nodes,
                            edges=(edge, scalar))

    def test_rejects_cycles(self):
        spec = seeded_application("chain")
        first = spec.topological_order()[0].name
        last = spec.topological_order()[-1].name
        back_port = next(name for name, role
                         in node_ports(spec.node(first).spec).items()
                         if role == "input")
        with pytest.raises(ValueError, match="cycle"):
            ApplicationSpec(name="bad", nodes=spec.nodes,
                            edges=spec.edges + (AppEdge(
                                src=last, dst=first, dst_port=back_port),))

    def test_rejects_duplicate_node_names(self):
        spec = seeded_application("chain")
        with pytest.raises(ValueError, match="unique"):
            ApplicationSpec(name="bad", nodes=spec.nodes + (spec.nodes[0],))

    def test_stream_validation(self):
        with pytest.raises(ValueError):
            WindowStream(windows=0)
        with pytest.raises(ValueError):
            WindowStream(window_size=4)
        with pytest.raises(ValueError):
            WindowStream(deadline_us=0.0)
        with pytest.raises(ValueError):
            WindowStream(load_jitter=1.0)

    def test_window_load_varies_within_bounds(self):
        stream = WindowStream(windows=16, window_size=32, load_jitter=0.5)
        loads = [stream.window_load(w) for w in range(stream.windows)]
        assert all(16 <= load <= 32 for load in loads)
        assert len(set(loads)) > 1
        assert loads == [stream.window_load(w) for w in range(stream.windows)]


class TestEngineIdentity:
    """The graph-level differential harness (PR-9 acceptance criterion)."""

    @pytest.mark.parametrize("topology", APP_TOPOLOGIES)
    def test_engines_agree_window_for_window(self, topology, api_session):
        spec = seeded_application(topology)
        reports = {}
        for engine in ENGINES:
            runner = AppRunner(spec, vliw4(), engine=engine,
                               pipeline=api_session.pipeline)
            reports[engine] = runner.run()
        for engine, report in reports.items():
            # every node of every window matched the composed oracle
            assert report.correct, f"{engine} disagreed with the oracle"
            assert report.window_values == reports["interpreter"].window_values
        # the timing reduction is engine-independent too: identical
        # profiles must price to identical cycles.
        latencies = {tuple(r.window_latencies_us) for r in reports.values()}
        assert len(latencies) == 1

    def test_run_application_convenience(self):
        report = run_application(seeded_application("chain"), vliw4())
        assert report.correct
        assert report.windows == 4


class TestRunnerMetrics:
    def test_per_window_latency_energy_and_jitter(self, api_session):
        spec = seeded_application("chain")
        assert spec.stream.load_jitter > 0.0
        report = AppRunner(spec, vliw4(), engine="compiled",
                           pipeline=api_session.pipeline).run()
        assert len(report.window_latencies_us) == spec.stream.windows
        assert all(lat > 0.0 for lat in report.window_latencies_us)
        assert all(e > 0.0 for e in report.window_energies_uj)
        # load variation must show up as real jitter
        assert report.jitter_us > 0.0
        assert report.p50_latency_us <= report.p95_latency_us + 1e-9
        assert report.p95_latency_us <= report.p99_latency_us + 1e-9
        assert report.total_cycles > 0
        assert {s.node for s in report.node_stats} == {
            n.name for n in spec.nodes}
        assert all(s.runs == spec.stream.windows for s in report.node_stats)

    def test_deadline_accounting(self, api_session):
        spec = seeded_application("chain")
        tight = replace(spec, stream=replace(spec.stream, deadline_us=0.001))
        report = AppRunner(tight, vliw4(),
                           pipeline=api_session.pipeline).run()
        assert report.deadline_miss_rate == 1.0
        assert report.deadline_misses == spec.stream.windows
        loose = replace(spec, stream=replace(spec.stream,
                                             deadline_us=1e6,
                                             period_us=1e6))
        report = AppRunner(loose, vliw4(),
                           pipeline=api_session.pipeline).run()
        assert report.deadline_miss_rate == 0.0

    def test_trace_fidelity_bounds_executed_latency(self, api_session):
        spec = seeded_application("chain")
        cycle = AppRunner(spec, vliw4(), fidelity="cycle",
                          pipeline=api_session.pipeline).run()
        trace = AppRunner(spec, vliw4(), fidelity="trace",
                          pipeline=api_session.pipeline).run()
        assert trace.correct
        assert trace.fidelity == "trace"
        # the analytic screen prices the worst-case window once, so it is
        # constant across windows and bounds every executed window.
        assert trace.jitter_us == 0.0
        assert trace.window_latencies_us[0] >= max(cycle.window_latencies_us)

    def test_machines_differ(self, api_session):
        spec = seeded_application("chain")
        wide = AppRunner(spec, vliw4(),
                         pipeline=api_session.pipeline).run()
        narrow = AppRunner(spec, risc_baseline(),
                           pipeline=api_session.pipeline).run()
        assert narrow.total_cycles > wide.total_cycles


class TestAppEvaluator:
    def test_mix_round_trip_and_validation(self):
        mix = ApplicationMix("pair", [(seeded_application("chain"), 2.0),
                                      (seeded_application("fan_in"), 1.0)])
        rebuilt = ApplicationMix.from_json(mix.to_json())
        assert rebuilt.to_json() == mix.to_json()
        assert rebuilt.weights == mix.weights
        with pytest.raises(ValueError):
            ApplicationMix("empty", [])
        with pytest.raises(ValueError):
            ApplicationMix("dup", [(seeded_application("chain"), 1.0),
                                   (seeded_application("chain"), 1.0)])
        with pytest.raises(ValueError):
            ApplicationMix("neg", [(seeded_application("chain"), -1.0)])

    def test_evaluate_produces_real_time_metrics(self, api_session):
        mix = ApplicationMix.single(seeded_application("chain"))
        evaluator = AppEvaluator(mix, fidelity="trace",
                                 pipeline=api_session.pipeline)
        evaluation = evaluator.evaluate(vliw4())
        assert isinstance(evaluation, AppEvaluation)
        assert evaluation.feasible
        assert 0.0 <= evaluation.deadline_miss_rate <= 1.0
        assert evaluation.p99_latency_us > 0.0
        assert evaluation.energy_per_window_uj > 0.0
        row = evaluation.summary_row()
        for key in ("miss_rate", "p50_us", "p99_us", "jitter_us",
                    "energy_per_window_uj"):
            assert key in row

    def test_weights_shift_the_aggregate(self, api_session):
        chain = seeded_application("chain")
        fan_in = seeded_application("fan_in")
        heavy_chain = AppEvaluator(
            ApplicationMix("m", [(chain, 10.0), (fan_in, 1.0)]),
            fidelity="trace", pipeline=api_session.pipeline).evaluate(vliw4())
        heavy_fan = AppEvaluator(
            ApplicationMix("m", [(chain, 1.0), (fan_in, 10.0)]),
            fidelity="trace", pipeline=api_session.pipeline).evaluate(vliw4())
        chain_p99 = next(r["p99_us"] for r in heavy_chain.app_rows
                         if r["application"] == chain.name)
        fan_p99 = next(r["p99_us"] for r in heavy_chain.app_rows
                       if r["application"] == fan_in.name)
        if chain_p99 != fan_p99:
            assert heavy_chain.p99_latency_us != heavy_fan.p99_latency_us

    def test_evaluator_spec_round_trip_rebuilds_app_evaluator(
            self, api_session):
        mix = ApplicationMix.single(seeded_application("chain"))
        evaluator = AppEvaluator(mix, fidelity="trace",
                                 pipeline=api_session.pipeline)
        spec = EvaluatorSpec.from_evaluator(evaluator)
        assert spec.application == mix.to_json()
        # the JSON hop the daemon->worker frames take
        raw = json.loads(json.dumps(asdict(spec)))
        raw["weights"] = tuple((str(k), w) for k, w in raw["weights"])
        rebuilt = EvaluatorSpec(**raw).build(pipeline=api_session.pipeline)
        assert isinstance(rebuilt, AppEvaluator)
        assert rebuilt.application_json == mix.to_json()

    def test_same_name_different_graph_gets_different_cache_key(
            self, api_session):
        point = next(iter(DesignSpace.small().points()))
        mixes = [ApplicationMix("same-name", [(spec, 1.0)]) for spec in (
            seeded_application("chain"),
            sample_application("chain", APP_SEED + 1, windows=4))]
        keys = {BatchEvaluator(AppEvaluator(
            mix, pipeline=api_session.pipeline)).point_key(point)
            for mix in mixes}
        assert len(keys) == 2

    def test_cycle_and_trace_fidelities_key_apart(self, api_session):
        # Fidelity is the one timing axis of the recipe: the two runs
        # price windows differently, so they must not share a memo entry.
        point = next(iter(DesignSpace.small().points()))
        mix = ApplicationMix.single(seeded_application("chain"))
        evaluators = [AppEvaluator(mix, fidelity=fidelity,
                                   pipeline=api_session.pipeline)
                      for fidelity in ("cycle", "trace")]
        keys = {BatchEvaluator(e).point_key(point) for e in evaluators}
        assert len(keys) == 2
        rebuilt = EvaluatorSpec.from_evaluator(evaluators[1]).build(
            pipeline=api_session.pipeline)
        assert rebuilt.fidelity == "trace"


class TestRealTimeObjectives:
    def test_objectives_reject_kernel_evaluations(self):
        evaluation = Evaluation(machine=vliw4())
        for objective in ("deadline_miss_rate", "p99_latency",
                          "energy_per_window"):
            with pytest.raises(ValueError, match="ApplicationMix"):
                OBJECTIVES[objective](evaluation)

    def test_deadline_objective_picks_a_different_machine(self, api_session):
        """The headline acceptance criterion: real-time objectives change
        the design-space answer."""
        mix = ApplicationMix.single(seeded_application("chain"))
        space = DesignSpace(issue_widths=(1, 2, 4),
                            register_counts=(32, 64),
                            cluster_counts=(1,), mul_unit_counts=(1,),
                            mem_unit_counts=(1, 2), custom_budgets=(0.0,))
        winners = {}
        for objective in ("performance", "deadline_miss_rate"):
            # Cycle fidelity: the miss rate needs every window executed
            # (trace fidelity prices one worst-case window for all).
            evaluator = AppEvaluator(mix, pipeline=api_session.pipeline)
            explorer = Explorer(evaluator, objective=objective,
                                batch=api_session.batch_evaluator(evaluator))
            winners[objective] = explorer.exhaustive(space).best.machine.name
        assert winners["performance"] != winners["deadline_miss_rate"]

    def test_p99_and_energy_objectives_score_every_point(self, api_session):
        mix = ApplicationMix.single(seeded_application("chain"))
        evaluator = AppEvaluator(mix, fidelity="trace",
                                 pipeline=api_session.pipeline)
        space = DesignSpace(issue_widths=(1, 4), register_counts=(32,),
                            cluster_counts=(1,), mul_unit_counts=(1,),
                            mem_unit_counts=(1,), custom_budgets=(0.0,))
        for objective in ("p99_latency", "energy_per_window"):
            explorer = Explorer(evaluator, objective=objective,
                                batch=api_session.batch_evaluator(evaluator))
            result = explorer.exhaustive(space)
            assert result.points_evaluated == 2
            assert result.best is not None
