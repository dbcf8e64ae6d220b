"""Tests for the synthetic workload generation subsystem (repro.gen)."""

from __future__ import annotations

import pytest

from repro.exec import CompiledSimulator
from repro.frontend import compile_c
from repro.gen import (
    FAMILIES, WorkloadPopulation, WorkloadSpec, build_function,
    characterize_kernel, generate_kernel, sample_population_specs,
    sample_spec, static_features,
)
from repro.opt import optimize
from repro.pipeline import CompilePipeline
from repro.sim import FunctionalSimulator
from repro.workloads import (
    BUILTIN_KERNELS, DOMAINS, get_kernel, list_kernels, register_kernel,
    unregister_kernel,
)
from repro.workloads.kernels import KERNELS, Kernel


def run_both_engines(gk, seed=11, size=None):
    """(interpreter value, compiled value, oracle value) for one kernel."""
    module = compile_c(gk.c_source, module_name=gk.name)
    optimize(module, level=2)
    args = gk.kernel.arguments(size, seed=seed)
    expected = gk.kernel.expected(args)
    values = []
    for simulator_cls in (FunctionalSimulator, CompiledSimulator):
        run_args = tuple(list(a) if isinstance(a, list) else a for a in args)
        values.append(simulator_cls(module.clone()).run(gk.kernel.entry,
                                                        *run_args))
    return values[0], values[1], expected


class TestWorkloadSpec:
    def test_round_trips_through_json(self):
        spec = sample_spec("table_lookup", 99)
        clone = WorkloadSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.fingerprint() == spec.fingerprint()

    def test_fingerprint_is_stable_and_content_sensitive(self):
        a = WorkloadSpec(family="reduction", seed=5)
        b = WorkloadSpec(family="reduction", seed=5)
        c = WorkloadSpec(family="reduction", seed=6)
        d = WorkloadSpec(family="streaming_dsp", seed=5)
        assert a.fingerprint() == b.fingerprint()
        assert len({a.fingerprint(), c.fingerprint(), d.fingerprint()}) == 3

    def test_kernel_name_is_a_c_identifier(self):
        name = WorkloadSpec(family="control_heavy", seed=1).kernel_name()
        assert name.isidentifier()

    def test_validation_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            WorkloadSpec(family="nope", seed=1)
        with pytest.raises(ValueError):
            WorkloadSpec(family="reduction", seed=1, size=48)  # not pow2
        with pytest.raises(ValueError):
            WorkloadSpec(family="reduction", seed=1, footprint=128, size=64)
        with pytest.raises(ValueError):
            WorkloadSpec(family="reduction", seed=1, stride=2)  # even
        with pytest.raises(ValueError):
            WorkloadSpec(family="reduction", seed=1, data_bits=24)
        with pytest.raises(ValueError):
            WorkloadSpec(family="reduction", seed=1, depth=3)
        with pytest.raises(ValueError):
            WorkloadSpec(family="reduction", seed=1, footprint=4, taps=4)
        # A mix the generator could not expand (shift-only, or no weight
        # at all) must be rejected up front, not hang generation.
        with pytest.raises(ValueError):
            WorkloadSpec(family="memory_mixed", seed=1, op_mix=(("shift", 1.0),))
        with pytest.raises(ValueError):
            WorkloadSpec(family="memory_mixed", seed=1,
                         op_mix=(("arith", 0.0), ("shift", 1.0)))

    def test_sample_spec_is_deterministic(self):
        assert sample_spec("memory_mixed", 7) == sample_spec("memory_mixed", 7)

    def test_sample_population_rejects_empty_families(self):
        with pytest.raises(ValueError):
            sample_population_specs(4, seed=1, families=())

    def test_sample_population_round_robins_families(self):
        specs = sample_population_specs(10, seed=3)
        assert len(specs) == 10
        assert [s.family for s in specs[:5]] == list(FAMILIES)
        # Deterministic in the seed, distinct content.
        again = sample_population_specs(10, seed=3)
        assert [s.fingerprint() for s in specs] == [s.fingerprint() for s in again]
        assert len({s.fingerprint() for s in specs}) == 10


class TestGenerator:
    def test_generation_is_deterministic(self):
        spec = sample_spec("streaming_dsp", 42)
        one, two = generate_kernel(spec), generate_kernel(spec)
        assert one.c_source == two.c_source
        assert one.python_source == two.python_source
        assert one.kernel.arguments(None, seed=5) == two.kernel.arguments(None, seed=5)

    def test_different_seeds_generate_different_kernels(self):
        a = generate_kernel(sample_spec("reduction", 1))
        b = generate_kernel(sample_spec("reduction", 2))
        assert a.name != b.name
        assert a.c_source != b.c_source

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", [0, 17, 4021])
    def test_every_family_self_checks_on_both_engines(self, family, seed):
        gk = generate_kernel(sample_spec(family, seed))
        interp, compiled, expected = run_both_engines(gk, seed=seed + 1)
        assert interp == expected
        assert compiled == expected

    def test_small_size_is_clamped_to_footprint(self):
        spec = sample_spec("memory_mixed", 5)
        gk = generate_kernel(spec)
        args = gk.kernel.arguments(1, seed=9)     # way below the footprint
        assert args[-1] >= spec.footprint         # n clamped
        interp, compiled, expected = run_both_engines(gk, seed=9, size=1)
        assert interp == compiled == expected

    def test_table_family_gets_a_256_entry_table(self):
        gk = generate_kernel(sample_spec("table_lookup", 8))
        args = gk.kernel.arguments(None, seed=1)
        tables = [a for a in args[:-1] if isinstance(a, list) and len(a) == 256]
        assert tables and all(0 <= v <= 255 for v in tables[0])

    def test_ast_renders_both_languages_from_one_tree(self):
        fn = build_function(sample_spec("control_heavy", 23))
        gk = generate_kernel(sample_spec("control_heavy", 23))
        assert fn.name in gk.c_source and fn.name in gk.python_source
        for array in fn.arrays:
            assert f"*{array.name}" in gk.c_source


class TestKernelRegistry:
    def test_list_kernels_covers_the_builtin_suite(self):
        names = list_kernels()
        assert set(BUILTIN_KERNELS) <= set(names)
        assert names == sorted(names)

    def test_get_kernel_keyerror_names_available_kernels(self):
        with pytest.raises(KeyError) as excinfo:
            get_kernel("definitely_not_a_kernel")
        message = str(excinfo.value)
        assert "definitely_not_a_kernel" in message
        assert "dot_product" in message           # lists what *is* available

    def test_register_and_unregister_round_trip(self):
        gk = generate_kernel(sample_spec("reduction", 77))
        register_kernel(gk.kernel)
        try:
            assert get_kernel(gk.name) is gk.kernel
            assert gk.name in list_kernels()
            assert gk.name in list_kernels(domain=gk.kernel.domain)
            assert gk.name in DOMAINS[gk.kernel.domain]
        finally:
            unregister_kernel(gk.name)
        assert gk.name not in list_kernels()
        assert gk.kernel.domain not in DOMAINS

    def test_duplicate_registration_requires_replace(self):
        gk = generate_kernel(sample_spec("reduction", 78))
        register_kernel(gk.kernel)
        try:
            with pytest.raises(ValueError):
                register_kernel(gk.kernel)
            register_kernel(gk.kernel, replace=True)   # idempotent with flag
            assert list_kernels().count(gk.name) == 1
            assert DOMAINS[gk.kernel.domain].count(gk.name) == 1
        finally:
            unregister_kernel(gk.name)

    def test_builtins_are_protected(self):
        with pytest.raises(ValueError):
            unregister_kernel("dot_product")
        assert "dot_product" in KERNELS

    def test_unregister_unknown_name_is_a_no_op(self):
        unregister_kernel("gen_never_registered")


class TestCharacterization:
    def test_static_features_see_the_structure(self):
        gk = generate_kernel(sample_spec("memory_mixed", 12))
        module = compile_c(gk.c_source, module_name=gk.name)
        optimize(module, level=2)
        features = static_features(module)
        assert features.instructions > 0
        assert features.loads >= 2                # two strided input streams
        assert features.stores >= 1               # the out[] stream
        assert features.largest_block > 0
        assert features.critical_path >= 1
        assert features.ilp_bound >= 1.0
        assert sum(features.opcode_histogram.values()) == features.instructions

    def test_characterize_kernel_end_to_end(self):
        gk = generate_kernel(sample_spec("control_heavy", 31))
        result = characterize_kernel(gk, pipeline=CompilePipeline())
        assert result.name == gk.name
        assert result.family == "control_heavy"
        assert result.dynamic.instructions > 0
        assert result.dynamic.branches > 0
        assert 0.0 <= result.dynamic.branch_taken_ratio <= 1.0
        payload = result.as_dict()
        assert payload["static"]["ilp_bound"] >= 1.0
        assert payload["dynamic"]["memory_fraction"] >= 0.0

    def test_characterization_profile_matches_the_interpreter(
            self, seeded_population):
        """Characterization runs on the compiled engine; its dynamic
        features equal those of a reference-interpreter run."""
        from repro.gen import dynamic_features

        pipeline = CompilePipeline()
        for gk in seeded_population.generated[:10]:
            result = characterize_kernel(gk, pipeline=pipeline)
            kernel = gk.kernel
            module, _records = pipeline.front(kernel.source, kernel.name)
            args = kernel.arguments(None, seed=1234)
            interpreter = FunctionalSimulator(module)
            interpreter.run(kernel.entry, *(list(a) if isinstance(a, list)
                                            else a for a in args))
            assert result.dynamic == dynamic_features(interpreter.profile), \
                gk.name
        assert pipeline.store.stats("exec.code").puts == 10

    def test_characterization_raises_on_oracle_mismatch(self):
        gk = generate_kernel(sample_spec("reduction", 41))
        broken = Kernel(
            name=gk.kernel.name, domain=gk.kernel.domain,
            description=gk.kernel.description, source=gk.kernel.source,
            entry=gk.kernel.entry, make_args=gk.kernel.make_args,
            reference=lambda *args: 123456789,    # wrong oracle
            default_size=gk.kernel.default_size,
        )
        gk.kernel = broken
        with pytest.raises(AssertionError):
            characterize_kernel(gk, pipeline=CompilePipeline())


class TestWorkloadPopulation:
    def test_generate_is_deterministic_and_family_balanced(self):
        population = WorkloadPopulation.generate(15, seed=5)
        again = WorkloadPopulation.generate(15, seed=5)
        assert population.names() == again.names()
        assert population.fingerprints() == again.fingerprints()
        grouped = population.by_family()
        assert set(grouped) == set(FAMILIES)
        assert all(len(members) == 3 for members in grouped.values())

    def test_context_manager_scopes_registration(self):
        population = WorkloadPopulation.generate(6, seed=9)
        before = set(list_kernels())
        with population:
            assert set(population.names()) <= set(list_kernels())
            mix = population.family_mix("table_lookup", limit=1)
            assert get_kernel(mix.names()[0]).domain == "gen:table_lookup"
        assert set(list_kernels()) == before

    def test_registration_cleans_up_after_exceptions(self):
        population = WorkloadPopulation.generate(5, seed=13)
        before = set(list_kernels())
        with pytest.raises(RuntimeError):
            with population:
                raise RuntimeError("boom")
        assert set(list_kernels()) == before

    def test_validate_is_bit_identical_across_engines(self):
        population = WorkloadPopulation.generate(10, seed=21)
        results = population.validate(pipeline=CompilePipeline())
        assert len(results) == 10
        assert all(results.values())

    def test_family_mix_requires_known_family(self):
        population = WorkloadPopulation.generate(2, seed=1,
                                                 families=("reduction",))
        with pytest.raises(KeyError):
            population.family_mix("streaming_dsp")

    def test_customization_gain_reports_a_plausible_record(self):
        population = WorkloadPopulation.generate(4, seed=31,
                                                 families=("streaming_dsp",))
        with population:
            gain = population.customization_gain(
                "streaming_dsp", budget=24.0, kernels_per_family=2)
        assert gain.feasible
        assert gain.gain >= 0.99                  # customization never hurts
        assert gain.custom_area_kgates >= gain.base_area_kgates
        assert set(gain.as_dict()) >= {"family", "gain", "custom_ops"}
