"""Static and dynamic characterization of (generated) workloads.

Characterization is what turns a population of kernels into *evidence*:
instead of "this kernel got 1.7x from customization", a characterized
population supports "kernels with high ILP bounds and low branch
fractions got 1.7x" — the per-family, per-feature view the paper's
custom-fit argument needs.

Static features come from the optimized IR (:mod:`repro.ir.dataflow`
dependence graphs): opcode histograms, memory/branch densities and a
critical-path ILP bound per block.  Dynamic features come from an
:class:`~repro.sim.functional.ExecutionProfile` of one functional run:
instruction counts, load/store fractions and branch-taken behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..ir import Module, Opcode, build_dataflow_graph
from ..sim.functional import ExecutionProfile
from ..workloads.kernels import copy_run_args

_BRANCH_OPS = (Opcode.BRANCH.value, Opcode.JUMP.value)


@dataclass
class StaticFeatures:
    """Machine-independent structure of one optimized module."""

    instructions: int = 0
    blocks: int = 0
    opcode_histogram: Dict[str, int] = field(default_factory=dict)
    loads: int = 0
    stores: int = 0
    branches: int = 0
    #: size of the largest basic block (straight-line window).
    largest_block: int = 0
    #: unit-latency critical path of the largest block's dependence graph.
    critical_path: int = 0
    #: largest_block / critical_path — an upper bound on exploitable ILP.
    ilp_bound: float = 1.0

    @property
    def memory_fraction(self) -> float:
        if self.instructions == 0:
            return 0.0
        return (self.loads + self.stores) / self.instructions

    def as_dict(self) -> Dict[str, object]:
        return {
            "instructions": self.instructions,
            "blocks": self.blocks,
            "loads": self.loads,
            "stores": self.stores,
            "branches": self.branches,
            "memory_fraction": round(self.memory_fraction, 4),
            "largest_block": self.largest_block,
            "critical_path": self.critical_path,
            "ilp_bound": round(self.ilp_bound, 3),
            "opcode_histogram": dict(sorted(self.opcode_histogram.items())),
        }


@dataclass
class DynamicFeatures:
    """Measured behaviour of one functional run."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    taken_branches: int = 0
    opcode_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def memory_fraction(self) -> float:
        if self.instructions == 0:
            return 0.0
        return (self.loads + self.stores) / self.instructions

    @property
    def branch_fraction(self) -> float:
        if self.instructions == 0:
            return 0.0
        return self.branches / self.instructions

    @property
    def branch_taken_ratio(self) -> float:
        if self.branches == 0:
            return 0.0
        return self.taken_branches / self.branches

    def as_dict(self) -> Dict[str, object]:
        return {
            "instructions": self.instructions,
            "loads": self.loads,
            "stores": self.stores,
            "branches": self.branches,
            "taken_branches": self.taken_branches,
            "memory_fraction": round(self.memory_fraction, 4),
            "branch_fraction": round(self.branch_fraction, 4),
            "branch_taken_ratio": round(self.branch_taken_ratio, 4),
        }


@dataclass
class WorkloadCharacterization:
    """Everything measured about one kernel."""

    name: str
    family: str
    static: StaticFeatures
    dynamic: DynamicFeatures

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "family": self.family,
            "static": self.static.as_dict(),
            "dynamic": self.dynamic.as_dict(),
        }


def static_features(module: Module) -> StaticFeatures:
    """Analyze an (optimized) IR module's structure."""
    features = StaticFeatures()
    largest = None
    for function in module.functions.values():
        for block in function.blocks:
            features.blocks += 1
            size = len(block.instructions)
            if largest is None or size > len(largest.instructions):
                largest = block
            for inst in block.instructions:
                features.instructions += 1
                key = inst.opcode.value
                features.opcode_histogram[key] = (
                    features.opcode_histogram.get(key, 0) + 1)
                if inst.opcode is Opcode.LOAD:
                    features.loads += 1
                elif inst.opcode is Opcode.STORE:
                    features.stores += 1
                elif key in _BRANCH_OPS:
                    features.branches += 1
    if largest is not None and largest.instructions:
        dfg = build_dataflow_graph(largest, include_terminator=False)
        features.largest_block = len(dfg.nodes)
        features.critical_path = max(
            1, dfg.critical_path_length(lambda _inst: 1))
        features.ilp_bound = features.largest_block / features.critical_path
    return features


def dynamic_features(profile: ExecutionProfile) -> DynamicFeatures:
    """Reduce an execution profile to characterization features."""
    return DynamicFeatures(
        instructions=profile.instructions_executed,
        loads=profile.loads,
        stores=profile.stores,
        branches=profile.branches,
        taken_branches=profile.taken_branches,
        opcode_counts=dict(profile.opcode_counts),
    )


def characterize_kernel(generated, size: Optional[int] = None, seed: int = 1234,
                        opt_level: int = 2,
                        pipeline=None) -> WorkloadCharacterization:
    """Compile, run and characterize one :class:`GeneratedKernel`.

    The module is compiled through the staged pipeline (the default
    session's unless ``pipeline`` is passed), run once against the
    kernel's oracle (a mismatch raises), and reduced to one
    :class:`WorkloadCharacterization`.  The run uses the compiled
    (threaded-code) engine with its translations in the pipeline's
    store; its profile is bit-identical to the reference interpreter's,
    which :meth:`WorkloadPopulation.validate` cross-checks.
    """
    from ..api.session import default_pipeline
    from ..exec.engine import make_functional_simulator

    pipeline = pipeline if pipeline is not None else default_pipeline()
    kernel = generated.kernel
    module, _records = pipeline.front(kernel.source, kernel.name,
                                      opt_level=opt_level)
    args = kernel.arguments(size, seed=seed)
    expected = kernel.expected(args)
    simulator = make_functional_simulator(module, engine="compiled",
                                          store=pipeline.store)
    value = simulator.run(kernel.entry, *copy_run_args(args))
    if value != expected:
        raise AssertionError(
            f"generated kernel {kernel.name} disagrees with its oracle: "
            f"{value} != {expected}"
        )
    return WorkloadCharacterization(
        name=kernel.name,
        family=getattr(generated, "family", kernel.domain),
        static=static_features(module),
        dynamic=dynamic_features(simulator.profile),
    )
