"""Tests for the repro.api service façade.

Covers, per the PR-4 acceptance criteria:

* JSON round-trips (object → JSON → object → JSON, plus golden literals)
  for all six request kinds and for responses;
* request validation errors (the service rejects malformed work at the
  boundary);
* Session isolation (separate artifact stores);
* bit-identical equivalence between ``Session.submit`` execution and the
  direct ``Toolchain`` / ``Explorer`` / ``run_matrix`` /
  ``WorkloadPopulation`` call paths;
* the job layer (status transitions, error capture, mixed batches);
* Toolchain driver error paths (bad source, unknown kernel, infeasible
  budget);
* the engine selector threaded through ``run_matrix`` and the
  ``to_json``/``to_rows`` export helpers;
* the ``python -m repro`` CLI (flags and request-file modes);
* the package importing without NumPy.
"""

from __future__ import annotations

import enum
import json
import os
import subprocess
import sys
from typing import Mapping

import pytest

from repro.api import (
    AppRequest, AppResponse, CompileRequest, CustomizeRequest, ExploreRequest,
    MatrixRequest, PopulationRequest, Provenance, RunRequest, SchemaError,
    Session, default_session, request_from_dict, request_from_json,
    resolve_machine, response_from_json,
)
from repro.api import requests as requests_module
from repro.api.cli import main as cli_main
from repro.api.requests import (
    CompileResponse, CustomizeResponse, ExploreResponse, MatrixResponse,
    PopulationResponse, RunResponse,
)
from repro.arch import dsp_core, risc_baseline, vliw4
from repro.dse import DesignSpace, Evaluator, Explorer
from repro.frontend.c_frontend import CFrontendError
from repro.gen import WorkloadPopulation
from repro.pipeline import CompilePipeline
from repro.toolchain import Toolchain, run_matrix
from repro.workloads import get_kernel, get_mix

from _shared import arg_copies as _copies


ALL_REQUESTS = [
    CompileRequest(kernel="sad16", machine="dsp16", opt_level=3),
    RunRequest(kernel="dot_product", machine="vliw8", size=32, seed=7,
               engine="compiled"),
    CustomizeRequest(kernel="viterbi_acs", machine="vliw4",
                     area_budget_kgates=24.0, max_operations=4, size=48),
    ExploreRequest(mix="video", strategy="annealing", objective="performance",
                   size=24, engine="compiled", iterations=12,
                   space={"issue_widths": [1, 2], "register_counts": [32]}),
    MatrixRequest(machines=["vliw4", {"issue_width": 2, "registers": 32}],
                  kernels=["dot_product", "crc32"], size=16),
    PopulationRequest(count=4, seed=3, families=["reduction", "table_lookup"],
                      budget_kgates=16.0, kernels_per_family=2),
    AppRequest(topology="chain", app_seed=11, machine="dsp16",
               engine="interpreter", windows=4, deadline_us=30.0),
]


class TestRequestRoundTrips:
    @pytest.mark.parametrize("request_obj", ALL_REQUESTS,
                             ids=[r.kind for r in ALL_REQUESTS])
    def test_json_round_trip_identity(self, request_obj):
        text = request_obj.to_json()
        rebuilt = request_from_json(text)
        assert rebuilt == request_obj
        assert rebuilt.to_json() == text          # stable fixed point
        data = json.loads(text)
        assert data["kind"] == request_obj.kind
        assert data["schema_version"] == 1

    def test_golden_matrix_request(self):
        golden = json.dumps({
            "kind": "matrix", "schema_version": 1,
            "machines": ["vliw4", "risc_baseline"],
            "kernels": ["dot_product"], "size": 16, "seed": None,
            "opt_level": None, "engine": None, "fidelity": None,
        }, sort_keys=True)
        request = request_from_json(golden)
        assert request == MatrixRequest(machines=["vliw4", "risc_baseline"],
                                        kernels=["dot_product"], size=16)
        assert request.to_json() == golden

    def test_pre_fidelity_matrix_request_still_parses(self):
        """Messages minted before the fidelity field existed stay valid."""
        legacy = json.dumps({
            "kind": "matrix", "schema_version": 1,
            "machines": ["vliw4"], "kernels": None, "size": 16,
            "seed": None, "opt_level": None, "engine": None,
        }, sort_keys=True)
        request = request_from_json(legacy)
        assert request.fidelity is None
        assert request == MatrixRequest(machines=["vliw4"], size=16)

    def test_golden_explore_request_with_fidelity(self):
        golden = json.dumps({
            "kind": "explore", "schema_version": 1, "mix": "video",
            "strategy": "exhaustive", "objective": "perf_per_area",
            "size": 16, "seed": None, "opt_level": None, "engine": None,
            "fidelity": "trace", "rescore": True, "space": None,
            "search_seed": None, "iterations": 40, "max_rounds": 4,
            "workers": None, "application": None,
        }, sort_keys=True)
        request = request_from_json(golden)
        assert request == ExploreRequest(mix="video", size=16,
                                         fidelity="trace", rescore=True)
        assert request.to_json() == golden

    def test_pre_application_explore_request_still_parses(self):
        """Messages minted before the application field existed stay valid."""
        legacy = json.dumps({
            "kind": "explore", "schema_version": 1, "mix": "video",
            "strategy": "exhaustive", "objective": "perf_per_area",
            "size": 16, "seed": None, "opt_level": None, "engine": None,
            "fidelity": None, "rescore": False, "space": None,
            "search_seed": None, "iterations": 40, "max_rounds": 4,
            "workers": None,
        }, sort_keys=True)
        request = request_from_json(legacy)
        assert request.application is None
        assert request == ExploreRequest(mix="video", size=16)

    def test_golden_app_request(self):
        golden = json.dumps({
            "kind": "app", "schema_version": 1, "application": None,
            "topology": "chain", "app_seed": 11, "machine": "dsp16",
            "engine": "interpreter", "fidelity": "cycle", "opt_level": None,
            "windows": 4, "period_us": None, "deadline_us": 30.0,
        }, sort_keys=True)
        request = request_from_json(golden)
        assert request == AppRequest(topology="chain", app_seed=11,
                                     machine="dsp16", engine="interpreter",
                                     windows=4, deadline_us=30.0)
        assert request.to_json() == golden

    def test_golden_app_response_round_trip(self):
        response = AppResponse(
            application="app_chain_11", fingerprint="abc123",
            machine="vliw4", engine="compiled", fidelity="cycle",
            windows=4, correct=True, deadline_miss_rate=0.25,
            p50_latency_us=10.0, p95_latency_us=20.0, p99_latency_us=22.0,
            jitter_us=3.5, energy_per_window_uj=0.125, period_us=30.0,
            deadline_us=30.0, window_latencies_us=[9.0, 10.0, 22.0, 8.0],
            nodes=[{"node": "n0_src", "cycles_total": 400}],
            provenance=Provenance(session="s", engine="compiled"))
        rebuilt = response_from_json(response.to_json())
        assert rebuilt == response
        assert rebuilt.to_json() == response.to_json()
        data = json.loads(response.to_json())
        assert data["kind"] == "app.response"
        assert data["deadline_miss_rate"] == 0.25

    def test_fidelity_validation(self):
        with pytest.raises(ValueError):
            ExploreRequest(fidelity="clairvoyant")
        with pytest.raises(ValueError):
            MatrixRequest(machines=["vliw4"], fidelity="clairvoyant")

    def test_golden_provenance_round_trip_with_fidelity(self):
        provenance = Provenance(session="s", engine="compiled",
                                fidelity="trace+rescore", elapsed_s=0.5)
        data = provenance.to_dict()
        assert data["fidelity"] == "trace+rescore"
        rebuilt = Provenance.from_dict(json.loads(json.dumps(data)))
        assert rebuilt == provenance

    def test_golden_run_request(self):
        golden = json.dumps({
            "kind": "run", "schema_version": 1, "kernel": "crc32",
            "machine": {"issue_width": 2, "registers": 32},
            "size": 64, "seed": 9, "opt_level": 2, "engine": "interpreter",
            "batch": None,
        }, sort_keys=True)
        request = request_from_json(golden)
        assert request == RunRequest(
            kernel="crc32", machine={"issue_width": 2, "registers": 32},
            size=64, seed=9, opt_level=2, engine="interpreter")
        assert request.to_json() == golden

    def test_pre_batch_run_request_still_parses(self):
        """Messages minted before the batch field existed stay valid."""
        legacy = json.dumps({
            "kind": "run", "schema_version": 1, "kernel": "crc32",
            "machine": "vliw4", "size": 64, "seed": 9, "opt_level": 2,
            "engine": "compiled",
        })
        request = request_from_json(legacy)
        assert request.batch is None
        assert request == RunRequest(kernel="crc32", machine="vliw4",
                                     size=64, seed=9, opt_level=2,
                                     engine="compiled")

    def test_unknown_fields_are_ignored(self):
        data = RunRequest(kernel="crc32").to_dict()
        data["a_future_field"] = True
        assert request_from_dict(data) == RunRequest(kernel="crc32")

    def test_unknown_kind_and_bad_version_rejected(self):
        with pytest.raises(SchemaError):
            request_from_dict({"kind": "teleport"})
        with pytest.raises(SchemaError):
            request_from_dict({"kind": "run", "kernel": "crc32",
                               "schema_version": 99})
        with pytest.raises(SchemaError):
            MatrixRequest.from_dict({"kind": "run", "kernel": "crc32"})


def _reference_plain(value):
    """``requests._plain`` before its exact-type fast paths."""
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, Mapping):
        return {key: _reference_plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_plain(item) for item in value]
    return value


class _Level(enum.IntEnum):
    LOW = 1


class _Mode(str, enum.Enum):
    FAST = "fast"


def _odd_provenance() -> Provenance:
    return Provenance(
        session="s", engine="compiled", elapsed_s=0.25,
        stages=[{"stage": "frontend", "key": "k", "hit": True,
                 "seconds": 0.1}],
        cache={"store": {"hits": 3, "ratio": 0.5, "tags": ("a", "b"),
                         "mode": _Mode.FAST},
               "levels": [_Level.LOW, None, True, 2.5]})


ALL_RESPONSES = [
    CompileResponse(module="m", machine="vliw4", functions=2,
                    provenance=_odd_provenance()),
    RunResponse(kernel="crc32", value=(1, 2), expected=[1, 2],
                values=[(3, _Level.LOW), {"x": (4,)}, None],
                provenance=_odd_provenance()),
    CustomizeResponse(kernel="sad16", selected_ops=("op_a", "op_b"),
                      speedup=1.5, provenance=_odd_provenance()),
    ExploreResponse(best={"point": ("a", 1)}, rows=[{"n": _Mode.FAST}],
                    pareto=["p"], provenance=_odd_provenance()),
    MatrixResponse(machines=["vliw4"], rows=[{"cycles": 10,
                                              "cells": (1, 2)}],
                   provenance=_odd_provenance()),
    PopulationResponse(count=2, report={"families": ("a",),
                                        "nested": {"deep": [(1,)]}},
                       provenance=_odd_provenance()),
    AppResponse(application="app", window_latencies_us=[9.0, 10.0],
                nodes=[{"node": "n0", "cycles_total": 400}],
                provenance=_odd_provenance()),
]


class TestPlainFastPath:
    """``Message.to_dict`` is unchanged by ``_plain``'s fast paths:
    tuples still become lists, enums pass through, nested messages
    serialise through their own ``to_dict``."""

    @pytest.mark.parametrize("message", ALL_REQUESTS + ALL_RESPONSES,
                             ids=[m.kind for m in ALL_REQUESTS
                                  + ALL_RESPONSES])
    def test_to_dict_matches_reference(self, message, monkeypatch):
        fast = message.to_dict()
        monkeypatch.setattr(requests_module, "_plain", _reference_plain)
        reference = message.to_dict()
        # repr tells a tuple from a list and an enum from its value.
        assert repr(fast) == repr(reference)

    def test_leaf_and_container_types(self):
        value = {"t": (1, "a"), "e": _Level.LOW, "m": _Mode.FAST,
                 "l": [None, True, 1.5, {"p": Provenance(session="x")}]}
        assert repr(requests_module._plain(value)) == \
            repr(_reference_plain(value))


class TestRequestValidation:
    def test_compile_needs_exactly_one_source(self):
        with pytest.raises(ValueError):
            CompileRequest()
        with pytest.raises(ValueError):
            CompileRequest(kernel="sad16", source="int f() { return 1; }")

    def test_run_rejects_bad_engine_and_missing_kernel(self):
        with pytest.raises(ValueError):
            RunRequest(kernel="crc32", engine="warp")
        with pytest.raises(ValueError):
            RunRequest()

    @pytest.mark.parametrize("batch", [2.5, "3", True, False, [2]])
    def test_run_rejects_non_integer_batch_at_decode(self, batch):
        with pytest.raises(ValueError, match="batch must be an integer"):
            request_from_dict({"kind": "run", "kernel": "crc32",
                               "engine": "native", "batch": batch})

    def test_customize_rejects_infeasible_budget(self):
        with pytest.raises(ValueError, match="[Ii]nfeasible"):
            CustomizeRequest(kernel="sad16", area_budget_kgates=0.0)
        with pytest.raises(ValueError, match="[Ii]nfeasible"):
            CustomizeRequest(kernel="sad16", area_budget_kgates=-5.0)

    def test_explore_rejects_bad_strategy_objective_axis(self):
        with pytest.raises(ValueError):
            ExploreRequest(strategy="telepathic")
        with pytest.raises(ValueError):
            ExploreRequest(objective="vibes")
        with pytest.raises(ValueError):
            ExploreRequest(space={"warp_factors": [9]})

    def test_app_request_needs_exactly_one_application_source(self):
        with pytest.raises(ValueError):
            AppRequest()
        with pytest.raises(ValueError):
            AppRequest(topology="chain",
                       application={"name": "a", "nodes": []})
        with pytest.raises(ValueError):
            AppRequest(topology="ring")
        with pytest.raises(ValueError):
            AppRequest(topology="chain", engine="cycle")
        with pytest.raises(ValueError):
            AppRequest(topology="chain", windows=0)

    def test_explore_rejects_malformed_application(self):
        with pytest.raises(ValueError):
            ExploreRequest(application={"bogus": True})
        with pytest.raises(ValueError):
            ExploreRequest(application="not-a-mapping")

    def test_matrix_needs_serializable_machines(self):
        with pytest.raises(ValueError):
            MatrixRequest(machines=[])
        with pytest.raises(ValueError):
            MatrixRequest(machines=[vliw4()])

    def test_population_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            PopulationRequest(families=["quantum"])
        with pytest.raises(ValueError):
            PopulationRequest(count=0)

    def test_resolve_machine_aliases_and_points(self):
        assert resolve_machine("risc_baseline").name == "risc32"
        assert resolve_machine("vliw4").issue_width == 4
        point = resolve_machine({"issue_width": 2, "registers": 32})
        assert point.issue_width == 2
        with pytest.raises(KeyError):
            resolve_machine("warp9")
        with pytest.raises(TypeError):
            resolve_machine(42)


class TestSessionIsolation:
    def test_sessions_do_not_share_stores(self):
        with Session() as one, Session() as two:
            assert one.store is not two.store
            assert one.pipeline is not two.pipeline
            one.execute(CompileRequest(kernel="dot_product"))
            assert len(one.store) > 0
            assert len(two.store) == 0

    def test_default_session_backs_uninjected_entry_points(self):
        session = default_session()
        assert default_session() is session
        toolchain = Toolchain(vliw4())
        assert toolchain.pipeline is session.pipeline

    def test_session_rejects_mismatched_store_and_pipeline(self):
        pipeline = CompilePipeline()
        from repro.pipeline import ArtifactStore
        with pytest.raises(ValueError):
            Session(pipeline=pipeline, store=ArtifactStore())
        session = Session(pipeline=pipeline)
        assert session.store is pipeline.store


class TestSubmitEquivalence:
    """Session.submit must be bit-identical to the direct call paths."""

    def test_compile_matches_direct_toolchain(self):
        from repro.backend.asm import render_assembly

        with Session() as session:
            response = session.submit(CompileRequest(
                kernel="sad16", machine="dsp_core", opt_level=2)).result()
        toolchain = Toolchain(dsp_core(), opt_level=2,
                              pipeline=CompilePipeline())
        artifacts = toolchain.build(get_kernel("sad16").source, name="sad16")
        assert response.backend_key == artifacts.backend_key
        assert response.assembly == render_assembly(artifacts.compiled)
        assert response.code_bytes == artifacts.report.code.bytes_effective
        assert response.machine == "dsp16"

    def test_run_matches_direct_toolchain(self):
        kernel = get_kernel("viterbi_acs")
        args = kernel.arguments(24, seed=1234)
        with Session() as session:
            response = session.submit(RunRequest(
                kernel="viterbi_acs", machine="vliw4", size=24,
                opt_level=2)).result()
        toolchain = Toolchain(vliw4(), opt_level=2, pipeline=CompilePipeline())
        artifacts = toolchain.build(kernel.source, name=kernel.name)
        result = toolchain.run(artifacts, kernel.entry, *_copies(args))
        assert response.correct
        assert response.value == result.value
        assert response.cycles == result.cycles
        assert response.energy_uj == result.energy_uj
        assert response.ipc == result.stats.ipc

    def test_run_functional_engines_match_oracle(self):
        with Session() as session:
            interp, compiled = session.run_batch([
                RunRequest(kernel="crc32", size=64, engine="interpreter"),
                RunRequest(kernel="crc32", size=64, engine="compiled"),
            ])
        assert interp.correct and compiled.correct
        assert interp.value == compiled.value
        assert interp.instructions == compiled.instructions

    def test_customize_matches_direct_toolchain(self):
        kernel = get_kernel("viterbi_acs")
        args = kernel.arguments(24, seed=1234)
        # Both paths resolve custom-op semantics through the global
        # extension library (content-named entries, so re-registration by
        # the second customize is an idempotent overwrite).
        toolchain = Toolchain(vliw4(), opt_level=2,
                              pipeline=CompilePipeline())
        module = toolchain.frontend(kernel.source, kernel.name)
        base_artifacts = toolchain.build(module.clone())
        base = toolchain.run(base_artifacts, kernel.entry, *_copies(args))
        custom_toolchain = toolchain.customize(
            module, area_budget_kgates=32.0, max_operations=4,
            profile_entry=kernel.entry, profile_args=_copies(args))
        custom_artifacts = custom_toolchain.build(module)
        custom = custom_toolchain.run(custom_artifacts, kernel.entry,
                                      *_copies(args))

        with Session() as session:
            response = session.submit(CustomizeRequest(
                kernel="viterbi_acs", machine="vliw4",
                area_budget_kgates=32.0, max_operations=4, size=24,
                opt_level=2)).result()
        assert response.correct
        assert response.base_cycles == base.cycles
        assert response.custom_cycles == custom.cycles
        report = custom_toolchain.last_customization.report
        assert response.selected_ops == report.selected_names
        assert response.area_added_kgates == report.area_added_kgates

    def test_explore_matches_direct_explorer(self):
        axes = {"issue_widths": [1, 4], "register_counts": [64],
                "cluster_counts": [1], "mul_unit_counts": [1],
                "mem_unit_counts": [2]}
        with Session() as session:
            response = session.submit(ExploreRequest(
                mix="video", strategy="exhaustive", objective="performance",
                size=24, opt_level=2, seed=1234, engine="cycle",
                space=axes)).result()
        evaluator = Evaluator(get_mix("video"), size=24, opt_level=2,
                              seed=1234, pipeline=CompilePipeline())
        explorer = Explorer(evaluator, objective="performance")
        result = explorer.exhaustive(DesignSpace(
            **{axis: tuple(choices) for axis, choices in axes.items()}))
        assert response.rows == result.to_rows()
        assert response.points_evaluated == result.points_evaluated
        assert response.best == result.best.summary_row()
        assert response.best["machine"] == result.best.machine.name

    def test_matrix_matches_direct_run_matrix(self):
        with Session() as session:
            response = session.submit(MatrixRequest(
                machines=["vliw4", "risc_baseline"],
                kernels=["dot_product", "ip_checksum"], size=16,
                opt_level=2)).result()
        report = run_matrix([vliw4(), risc_baseline()],
                            kernel_names=["dot_product", "ip_checksum"],
                            size=16, opt_level=2,
                            pipeline=CompilePipeline())
        assert response.all_correct and report.all_correct
        assert response.rows == report.to_rows()
        assert response.machines == report.machines
        assert response.kernels == report.kernels

    def test_population_matches_direct_population(self):
        request = PopulationRequest(count=3, seed=11, families=["reduction"],
                                    budget_kgates=16.0, opt_level=2,
                                    kernels_per_family=3)
        with Session() as session:
            response = session.submit(request).result()
        population = WorkloadPopulation.generate(3, seed=11,
                                                 families=["reduction"])
        with population:
            report = population.report(budget=16.0,
                                       opt_level=2, kernels_per_family=3,
                                       pipeline=CompilePipeline())
        assert response.valid == 3
        assert response.report == report
        assert response.families == ["reduction"]


class TestEngineFieldSelectsNothing:
    """``fidelity`` is the one timing axis: the ``engine`` field that
    explore and population requests still carry changes no number."""

    def test_population_engine_changes_no_gain(self):
        responses = {}
        for engine in ("compiled", "cycle"):
            with Session() as session:
                responses[engine] = session.execute(PopulationRequest(
                    count=10, seed=1, engine=engine,
                    validate_population=False))
        assert (responses["compiled"].report["families"]
                == responses["cycle"].report["families"])
        for response in responses.values():
            assert response.provenance.engine == "cycle"

    def test_explore_engine_changes_no_row(self):
        responses = {}
        for engine in ("compiled", "cycle"):
            with Session() as session:
                responses[engine] = session.execute(ExploreRequest(
                    mix="medical", size=8, engine=engine, fidelity="cycle",
                    space={"issue_widths": [1, 4], "register_counts": [32],
                           "cluster_counts": [1], "mul_unit_counts": [1],
                           "mem_unit_counts": [1]}))
        assert responses["compiled"].rows == responses["cycle"].rows
        for response in responses.values():
            assert response.engine == "cycle"


class TestJobs:
    def test_mixed_batch_returns_in_request_order(self):
        with Session() as session:
            responses = session.run_batch([
                RunRequest(kernel="dot_product", size=16),
                MatrixRequest(machines=["vliw4"], kernels=["crc32"], size=16),
            ])
        assert responses[0].kind == "run.response"
        assert responses[1].kind == "matrix.response"
        assert all(job.status == "done" for job in session.jobs)

    def test_job_captures_errors(self):
        with Session() as session:
            job = session.submit(RunRequest(kernel="no_such_kernel"))
            with pytest.raises(KeyError):
                job.result()
            assert job.status == "error"
            assert isinstance(job.exception(), KeyError)

    def test_unsupported_request_type_rejected(self):
        with Session() as session:
            with pytest.raises(TypeError):
                session.execute(object())


class TestResponses:
    def test_response_round_trip_with_provenance(self):
        with Session() as session:
            response = session.execute(RunRequest(kernel="dot_product",
                                                  size=16))
        rebuilt = response_from_json(response.to_json())
        assert rebuilt == response
        provenance = response.provenance
        assert isinstance(provenance, Provenance)
        assert provenance.schema_version == 1
        assert provenance.session == session.name
        assert provenance.engine == "cycle"
        assert provenance.elapsed_s > 0
        assert {record["stage"] for record in provenance.stages} >= {
            "frontend", "optimize", "backend"}
        assert all(isinstance(record["hit"], bool)
                   for record in provenance.stages)
        assert "pipeline" in provenance.cache

    def test_compile_cache_hits_show_in_provenance(self):
        with Session() as session:
            request = CompileRequest(kernel="dot_product")
            cold = session.execute(request)
            warm = session.execute(request)
        assert warm.backend_key == cold.backend_key
        assert all(not record["hit"] for record in cold.provenance.stages)
        assert all(record["hit"] for record in warm.provenance.stages)


class TestDriverErrorPaths:
    def test_bad_source_raises_frontend_error(self):
        toolchain = Toolchain(vliw4(), pipeline=CompilePipeline())
        with pytest.raises(CFrontendError):
            toolchain.build("int broken(int x { return x; }")
        with Session() as session:
            job = session.submit(CompileRequest(
                source="int broken(int x { return x; }"))
            with pytest.raises(CFrontendError):
                job.result()

    def test_unknown_kernel_raises_key_error(self):
        with Session() as session:
            with pytest.raises(KeyError):
                session.execute(CompileRequest(kernel="does_not_exist"))

    def test_unknown_machine_preset_raises_key_error(self):
        with Session() as session:
            with pytest.raises(KeyError):
                session.execute(RunRequest(kernel="crc32", machine="warp9"))

    def test_session_validates_engines_up_front(self):
        with pytest.raises(ValueError):
            Session(engine="bogus")
        with pytest.raises(ValueError):
            Session(evaluation_engine="bogus")


class TestMatrixEngineAndExports:
    def test_matrix_compiled_engine_matches_interpreter(self):
        kwargs = dict(kernel_names=["dot_product", "crc32"], size=16,
                      opt_level=2)
        interp = run_matrix([vliw4()], engine="interpreter",
                            pipeline=CompilePipeline(), **kwargs)
        compiled = run_matrix([vliw4()], engine="compiled",
                              pipeline=CompilePipeline(), **kwargs)
        assert interp.all_correct and compiled.all_correct
        assert interp.to_rows() == compiled.to_rows()
        assert compiled.engine == "compiled"

    def test_run_matrix_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            run_matrix([vliw4()], engine="quantum")

    def test_matrix_report_to_json(self):
        report = run_matrix([vliw4()], kernel_names=["dot_product"], size=16,
                            pipeline=CompilePipeline())
        data = json.loads(report.to_json())
        assert data["kind"] == "matrix_report"
        assert data["schema_version"] == 1
        assert data["all_correct"] is True
        assert data["rows"] == json.loads(json.dumps(report.to_rows()))

    def test_exploration_result_to_json(self):
        evaluator = Evaluator(get_mix("video"), size=16, opt_level=2,
                              pipeline=CompilePipeline())
        explorer = Explorer(evaluator, objective="performance")
        result = explorer.exhaustive(DesignSpace(
            issue_widths=(1, 2), register_counts=(32,), cluster_counts=(1,),
            mul_unit_counts=(1,), mem_unit_counts=(1,)))
        data = json.loads(result.to_json())
        assert data["kind"] == "exploration_result"
        assert data["schema_version"] == 1
        assert data["points_evaluated"] == result.points_evaluated
        assert data["best"]["machine"] == result.best.machine.name
        assert data["rows"] == json.loads(json.dumps(result.to_rows()))


class TestAppExecution:
    def test_session_app_request_runs_and_round_trips(self, api_session):
        response = api_session.execute(AppRequest(
            topology="chain", app_seed=11, windows=4,
            deadline_us=30.0, period_us=30.0, engine="compiled"))
        assert response.kind == "app.response"
        assert response.correct
        assert response.windows == 4
        assert response.fingerprint
        assert len(response.window_latencies_us) == 4
        assert response_from_json(response.to_json()) == response

    def test_serialized_spec_equals_generator_recipe(self, api_session,
                                                     app_spec):
        spec = app_spec("chain")
        by_recipe = api_session.execute(AppRequest(
            topology="chain", app_seed=11, windows=4,
            deadline_us=30.0, period_us=30.0))
        by_spec = api_session.execute(AppRequest(application=spec.to_dict()))
        assert by_spec.fingerprint == by_recipe.fingerprint
        assert by_spec.window_latencies_us == by_recipe.window_latencies_us

    def test_explore_over_application_mix(self, api_session, app_spec):
        spec = app_spec("chain")
        response = api_session.execute(ExploreRequest(
            application=spec.to_dict(), objective="deadline_miss_rate",
            engine="compiled",
            space={"issue_widths": [1, 4], "register_counts": [32],
                   "cluster_counts": [1], "mul_unit_counts": [1],
                   "mem_unit_counts": [1], "custom_budgets": [0.0]}))
        assert response.mix == spec.name
        assert response.points_evaluated == 2
        assert response.best is not None
        assert "miss_rate" in response.best


class TestCli:
    def test_cli_matrix_emits_schema_versioned_json(self, capsys):
        code = cli_main(["matrix", "--machines", "vliw4,risc_baseline",
                         "--kernels", "dot_product", "--size", "16"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "matrix.response"
        assert data["schema_version"] == 1
        assert data["all_correct"] is True
        assert data["machines"] == ["vliw4", "risc32"]

    def test_cli_request_file_mode(self, tmp_path, capsys):
        request_path = tmp_path / "request.json"
        request_path.write_text(RunRequest(kernel="dot_product",
                                           size=16).to_json())
        output_path = tmp_path / "response.json"
        code = cli_main(["run", "--kernel", "ignored", "--request",
                         str(request_path), "--output", str(output_path)])
        assert code == 0
        assert capsys.readouterr().out == ""
        data = json.loads(output_path.read_text())
        assert data["kind"] == "run.response"
        assert data["kernel"] == "dot_product"
        assert data["correct"] is True

    def test_cli_app_runs_a_generated_application(self, capsys):
        code = cli_main(["app", "--topology", "chain", "--app-seed", "11",
                         "--windows", "3", "--deadline-us", "30",
                         "--period-us", "30", "--engine", "compiled"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "app.response"
        assert data["correct"] is True
        assert data["windows"] == 3
        assert len(data["window_latencies_us"]) == 3

    def test_cli_rejects_bad_request(self, capsys):
        code = cli_main(["customize", "--kernel", "sad16",
                         "--budget", "-1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestPackageImports:
    def test_imports_and_econ_run_without_numpy(self):
        """``repro`` and its service/econ layers never need NumPy or
        networkx: importing them adds only standard-library modules,
        ``repro`` modules and the C front end's parser, and a clustered
        compile and an O3 customization still run."""
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        # pycparser is the C front end's parser, the one third-party
        # runtime dependency; multiprocessing aliases __main__ as
        # __mp_main__.  The diff leaves out what site hooks preload.
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "sys.modules['networkx'] = None\n"
            "before = set(sys.modules)\n"
            "import repro, repro.api, repro.service, repro.econ\n"
            "allowed = set(sys.stdlib_module_names) | {\n"
            "    'repro', 'pycparser', '__mp_main__'}\n"
            "foreign = sorted(name for name in set(sys.modules) - before\n"
            "                 if name.partition('.')[0] not in allowed)\n"
            "assert not foreign, foreign\n"
            "premium = repro.econ.analyze_premium()\n"
            "assert premium.price_performance_exponent > 1.0\n"
            "from repro.api import CompileRequest, CustomizeRequest, Session\n"
            "session = Session()\n"
            "compiled = session.execute(CompileRequest(kernel='crc32',\n"
            "                                          machine='vliw4c2'))\n"
            "assert compiled.machine == 'vliw4c2' and compiled.code_bytes > 0\n"
            "custom = session.execute(CustomizeRequest(kernel='crc32',\n"
            "                                          opt_level=3))\n"
            "assert custom.correct and custom.custom_cycles < custom.base_cycles\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        completed = subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True,
                                   timeout=120)
        assert completed.returncode == 0, completed.stderr
