"""Differential harness: the trace-based retiming model vs. the cycle simulator.

The analytic model of :mod:`repro.model` is only usable for design-space
screening if it stays locked to the ground-truth
:class:`~repro.sim.cycle.CycleSimulator`.  This harness sweeps **all
preset machines × the built-in kernel suite × a fixed-seed 25-kernel
generated population** and asserts, per cell:

* cycle estimates within the declared tolerance
  (:data:`repro.model.TRACE_CYCLE_TOLERANCE`) *and* within each
  estimate's self-reported ``error_bound_cycles``;
* **exact** agreement on code size, executed-operation counts (including
  NOP slots and spill/copy/custom breakdowns) and oracle outputs.

The same per-cell checks cover customized family members: every preset
customized at 40 kgates for a few built-in kernels, each running its
rewritten module.  Then come hypothesis property tests that retiming is deterministic and
monotone in issue width, serialization/caching tests for the trace
artifact, and end-to-end checks of the fidelity selector through
``Evaluator``, ``Explorer.screen_then_rescore`` and ``run_matrix``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import Session
from repro.arch.presets import PRESETS, get_preset
from repro.core import customize_isa
from repro.dse import DesignPoint, DesignSpace
from repro.model import (
    TRACE_CYCLE_TOLERANCE, KernelTrace, RetimingModel, capture_trace,
)
from repro.model.retime import REPLAY_STAGE
from repro.sim.cycle import CycleSimulator
from repro.toolchain import run_matrix
from repro.workloads import KERNELS, get_kernel

from _shared import POPULATION_SEED

SIZE = 16
SEED = 1234

PRESET_NAMES = sorted(PRESETS)
BUILTIN_NAMES = sorted(KERNELS)


# ----------------------------------------------------------------------
# Shared sweep plumbing: one session (artifact store) for the module.
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep():
    """(session, retiming model) shared by the whole differential sweep."""
    session = Session(name="trace-model-tests")
    model = RetimingModel(store=session.pipeline.store)
    yield session, model
    session.close()


def _differential_cell(pipeline, model, kernel, machine, copies,
                       module=None):
    """Run one (kernel, machine) cell both ways; return (truth, estimate).

    ``module`` is the kernel's IR to compile (its O2 module when None),
    e.g. one rewritten for a customized ``machine``.
    """
    args = kernel.arguments(SIZE, seed=SEED)
    expected = kernel.expected(args)
    if module is None:
        module, _records = pipeline.front(kernel.source, kernel.name,
                                          opt_level=2)
    compiled, report = pipeline.backend(module, machine)

    truth = CycleSimulator(compiled).run(kernel.entry, *copies(args))
    trace, _record = pipeline.trace(module, kernel.entry, args)
    estimate = model.price(compiled, machine, trace)

    # Oracle outputs: exact, three ways.
    assert trace.value == expected
    assert truth.value == expected
    assert estimate.value == expected

    # Operation counts: exact, including the per-kind breakdown.
    for field in ("operations_executed", "nop_slots", "bundles_executed",
                  "spill_ops_executed", "copy_ops_executed",
                  "custom_ops_executed", "call_overhead_cycles",
                  "branch_stall_cycles"):
        assert getattr(estimate.stats, field) == getattr(truth.stats, field), \
            f"{field} diverged on {kernel.name}@{machine.name}"

    # Code size is a backend artifact: identical object either way.
    assert report.code is not None and report.code.bytes_effective > 0

    # Cycle estimate: within the declared tolerance *and* the estimate's
    # own error bound.
    difference = abs(estimate.cycles - truth.cycles)
    assert difference <= max(TRACE_CYCLE_TOLERANCE * truth.cycles,
                             estimate.error_bound_cycles), (
        f"{kernel.name}@{machine.name}: trace {estimate.cycles} vs "
        f"cycle {truth.cycles} (bound {estimate.error_bound_cycles})")
    return truth, estimate


class TestDifferentialBuiltinSuite:
    """All presets × all built-in kernels."""

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_preset_against_cycle_simulator(self, preset, sweep, copies):
        session, model = sweep
        machine = get_preset(preset)
        for name in BUILTIN_NAMES:
            _differential_cell(session.pipeline, model, get_kernel(name),
                               machine, copies)


class TestDifferentialGeneratedPopulation:
    """All presets × the fixed-seed 25-kernel generated population."""

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_preset_against_cycle_simulator(self, preset, sweep,
                                            seeded_population, copies):
        session, model = sweep
        machine = get_preset(preset)
        with seeded_population:
            for name in seeded_population.names():
                _differential_cell(session.pipeline, model, get_kernel(name),
                                   machine, copies)


class TestDifferentialCustomizedMembers:
    """All presets, each customized at 40 kgates for a few built-in
    kernels: the machines the paper is about, running the rewritten
    module (custom operations included)."""

    KERNELS = ("crc32", "fir_filter", "popcount_buffer", "sad16",
               "viterbi_acs")

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_customized_preset_against_cycle_simulator(self, preset, sweep,
                                                       copies):
        session, model = sweep
        custom_ops = 0
        for name in self.KERNELS:
            kernel = get_kernel(name)
            module, _records = session.pipeline.front(
                kernel.source, kernel.name, opt_level=3)
            result = customize_isa(module, get_preset(preset),
                                   area_budget_kgates=40.0)
            assert result.machine.custom_ops
            truth, _estimate = _differential_cell(
                session.pipeline, model, kernel, result.machine, copies,
                module=module)
            custom_ops += truth.stats.custom_ops_executed
        assert custom_ops > 0


# ----------------------------------------------------------------------
# The trace artifact itself.
# ----------------------------------------------------------------------

class TestKernelTrace:
    def test_capture_is_deterministic_and_fingerprinted(self, kernel_module):
        kernel, module = kernel_module("dot_product")
        args = kernel.arguments(SIZE, seed=SEED)
        first = capture_trace(module, kernel.entry, args)
        second = capture_trace(module, kernel.entry, args)
        assert first.fingerprint and first.fingerprint == second.fingerprint
        assert first.to_dict() == second.to_dict()
        assert first.value == kernel.expected(args)
        assert first.memory_accesses and first.block_counts

    def test_json_round_trip(self, kernel_module):
        kernel, module = kernel_module("crc32")
        trace = capture_trace(module, kernel.entry,
                              kernel.arguments(SIZE, seed=SEED))
        rebuilt = KernelTrace.from_json(trace.to_json())
        assert rebuilt == trace
        assert rebuilt.to_json() == trace.to_json()

    def test_capture_does_not_mutate_arguments(self, kernel_module):
        kernel, module = kernel_module("fir_filter")
        args = kernel.arguments(48, seed=SEED)
        snapshot = tuple(list(a) if isinstance(a, list) else a for a in args)
        capture_trace(module, kernel.entry, args)
        assert tuple(list(a) if isinstance(a, list) else a
                     for a in args) == snapshot

    def test_trace_stage_caches_by_module_and_args(self, api_session):
        kernel = get_kernel("dot_product")
        pipeline = api_session.pipeline
        module, _ = pipeline.front(kernel.source, kernel.name, opt_level=2)
        args = kernel.arguments(SIZE, seed=SEED)
        _trace, record = pipeline.trace(module, kernel.entry, args)
        assert not record.hit
        _trace, record = pipeline.trace(module, kernel.entry, args)
        assert record.hit
        # Different arguments: a different artifact.
        other = kernel.arguments(SIZE, seed=SEED + 1)
        _trace, record = pipeline.trace(module, kernel.entry, other)
        assert not record.hit

    def test_trace_is_machine_independent(self, api_session, kernel_module):
        """One trace serves every machine: keys carry no machine axis."""
        kernel = get_kernel("histogram")
        pipeline = api_session.pipeline
        module, _ = pipeline.front(kernel.source, kernel.name, opt_level=2)
        args = kernel.arguments(SIZE, seed=SEED)
        pipeline.trace(module, kernel.entry, args)
        model = RetimingModel(store=pipeline.store)
        for preset in PRESET_NAMES:
            machine = get_preset(preset)
            compiled, _report = pipeline.backend(module, machine)
            _trace, record = pipeline.trace(module, kernel.entry, args)
            assert record.hit, f"trace rebuilt for {preset}"
            model.price(compiled, machine, _trace)


# ----------------------------------------------------------------------
# Property tests: determinism and monotonicity.
# ----------------------------------------------------------------------

class TestRetimingProperties:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(name=st.sampled_from(BUILTIN_NAMES),
           preset=st.sampled_from(PRESET_NAMES))
    def test_retiming_is_deterministic(self, name, preset, sweep):
        """Two independent model instances agree bit-for-bit."""
        session, _shared = sweep
        kernel = get_kernel(name)
        machine = get_preset(preset)
        pipeline = session.pipeline
        module, _ = pipeline.front(kernel.source, kernel.name, opt_level=2)
        compiled, _report = pipeline.backend(module, machine)
        trace, _record = pipeline.trace(module, kernel.entry,
                                        kernel.arguments(SIZE, seed=SEED))
        first = RetimingModel().price(compiled, machine, trace)
        second = RetimingModel().price(compiled, machine, trace)
        assert first.cycles == second.cycles
        assert first.energy_uj == second.energy_uj
        assert first.stats == second.stats
        assert first.error_bound_cycles == second.error_bound_cycles

    def test_model_without_store_replays_each_geometry_once(
            self, api_session):
        """A store-less model memoizes d-cache replays in its own store."""
        kernel = get_kernel("histogram")
        machine = get_preset("vliw4")
        pipeline = api_session.pipeline
        module, _ = pipeline.front(kernel.source, kernel.name, opt_level=2)
        compiled, _report = pipeline.backend(module, machine)
        trace, _record = pipeline.trace(module, kernel.entry,
                                        kernel.arguments(SIZE, seed=SEED))
        model = RetimingModel()
        first = model.price(compiled, machine, trace)
        second = model.price(compiled, machine, trace)
        stats = model.store.stats(REPLAY_STAGE)
        assert (stats.puts, stats.hits) == (1, 1)
        assert first.cycles == second.cycles
        assert first.stats == second.stats

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(name=st.sampled_from(BUILTIN_NAMES))
    def test_retiming_is_monotone_in_issue_width(self, name, sweep):
        """Wider issue never costs cycles (same caches, compressed code)."""
        session, model = sweep
        kernel = get_kernel(name)
        pipeline = session.pipeline
        module, _ = pipeline.front(kernel.source, kernel.name, opt_level=2)
        trace, _record = pipeline.trace(module, kernel.entry,
                                        kernel.arguments(SIZE, seed=SEED))
        previous = None
        for width in (1, 2, 4, 8):
            machine = DesignPoint(issue_width=width, registers=64).to_machine()
            compiled, _report = pipeline.backend(module, machine)
            estimate = model.price(compiled, machine, trace)
            if previous is not None:
                assert estimate.cycles <= previous, (
                    f"{name}: width {width} costs {estimate.cycles} > "
                    f"{previous}")
            previous = estimate.cycles


# ----------------------------------------------------------------------
# Fidelity selector end to end.
# ----------------------------------------------------------------------

class TestFidelityWiring:
    def test_evaluator_trace_fidelity_tracks_cycle(self, api_session):
        cycle = api_session.evaluator("video", size=SIZE).evaluate(
            get_preset("vliw4"))
        trace = api_session.evaluator("video", size=SIZE,
                                      fidelity="trace").evaluate(
            get_preset("vliw4"))
        assert cycle.fidelity == "cycle" and trace.fidelity == "trace"
        assert trace.feasible == cycle.feasible
        assert trace.total_code_bytes == cycle.total_code_bytes
        assert abs(trace.weighted_cycles - cycle.weighted_cycles) <= max(
            TRACE_CYCLE_TOLERANCE * cycle.weighted_cycles, 1.0)
        assert trace.summary_row()["fidelity"] == "trace"

    def test_batch_keys_distinguish_fidelity(self, api_session):
        trace_eval = api_session.evaluator("video", size=SIZE,
                                           fidelity="trace")
        cycle_eval = trace_eval.with_fidelity("cycle")
        point = DesignPoint(issue_width=2, registers=32)
        trace_batch = api_session.batch_evaluator(trace_eval)
        cycle_batch = api_session.batch_evaluator(cycle_eval)
        assert trace_batch.point_key(point) != cycle_batch.point_key(point)
        evaluation = trace_batch.evaluate(point)
        assert evaluation.point == point      # re-scoring can map back

    def test_screen_then_rescore(self, api_session):
        space = DesignSpace(issue_widths=(1, 2, 4), register_counts=(32, 64),
                            cluster_counts=(1,), mul_unit_counts=(1,),
                            mem_unit_counts=(1,))
        evaluator = api_session.evaluator("video", size=SIZE,
                                          fidelity="trace")
        explorer = api_session.explorer(evaluator)
        result = explorer.screen_then_rescore(space)
        assert result.fidelity == "trace+rescore"
        assert result.best is not None and result.best.fidelity == "cycle"
        fidelities = {row["fidelity"] for row in result.to_rows()}
        assert "cycle" in fidelities          # frontier was re-scored
        assert result.to_dict()["fidelity"] == "trace+rescore"

        # The re-scored winner matches a pure cycle-fidelity exploration.
        reference = api_session.explorer(
            evaluator.with_fidelity("cycle")).exhaustive(space)
        assert result.best.machine.name == reference.best.machine.name
        assert result.best.weighted_cycles == reference.best.weighted_cycles

    def test_screen_then_rescore_off_frontier_objective(self, api_session):
        """perf_per_watt winners may sit off the (time, area) frontier;
        the screening best must still be re-scored at cycle fidelity."""
        space = DesignSpace(issue_widths=(1, 2, 4), register_counts=(32, 64),
                            cluster_counts=(1,), mul_unit_counts=(1,),
                            mem_unit_counts=(1,))
        evaluator = api_session.evaluator("video", size=SIZE,
                                          fidelity="trace")
        explorer = api_session.explorer(evaluator,
                                        objective="perf_per_watt")
        result = explorer.screen_then_rescore(space)
        assert result.best is not None and result.best.fidelity == "cycle"
        assert result.rescore is not None
        assert result.rescore["points"] >= 1
        assert result.rescore["batch"]["requested"] >= 1
        assert result.to_dict()["rescore"] == result.rescore

    def test_run_matrix_trace_fidelity(self, api_session):
        machines = [get_preset("vliw4"), get_preset("risc32")]
        kernels = ["dot_product", "crc32", "histogram"]
        cycle = run_matrix(machines, kernel_names=kernels, size=SIZE,
                           pipeline=api_session.pipeline)
        trace = run_matrix(machines, kernel_names=kernels, size=SIZE,
                           fidelity="trace", pipeline=api_session.pipeline)
        assert trace.fidelity == "trace" and cycle.fidelity == "cycle"
        assert trace.all_correct and cycle.all_correct
        for trace_cell, cycle_cell in zip(trace.cells, cycle.cells):
            assert trace_cell.kernel == cycle_cell.kernel
            assert trace_cell.operations == cycle_cell.operations
            assert trace_cell.code_bytes == cycle_cell.code_bytes
            assert abs(trace_cell.cycles - cycle_cell.cycles) <= max(
                TRACE_CYCLE_TOLERANCE * cycle_cell.cycles, 1.0)
        assert trace.to_dict()["fidelity"] == "trace"

    def test_session_fidelity_default(self):
        with Session(fidelity="trace") as session:
            evaluator = session.evaluator("video", size=SIZE)
            assert evaluator.fidelity == "trace"
        with pytest.raises(ValueError):
            Session(fidelity="clairvoyant")

    def test_generated_population_seed_matches_conftest(self,
                                                       seeded_population):
        assert len(seeded_population) == 25
        assert POPULATION_SEED == 20260730
        assert seeded_population.names()  # deterministic, non-empty
