"""Helpers for compiling and running the kernel suite.

Kernel execution helpers (:func:`run_kernel`, :func:`validate_suite`)
accept an ``engine`` argument — ``"interpreter"`` for the reference
:class:`~repro.sim.FunctionalSimulator` or ``"compiled"`` for the
threaded-code :class:`~repro.exec.CompiledSimulator` — and check results
against each kernel's pure-Python oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..ir import Module
from .kernels import DOMAINS, KERNELS, Kernel, copy_run_args, get_kernel


def compile_kernel(name: str, pipeline=None) -> Module:
    """Compile one kernel's C source to an IR module named after it.

    Served from the staged compile pipeline's content-addressed frontend
    stage (the default session's pipeline unless one is passed), so repeated
    compiles of the same kernel parse its C source exactly once.  The
    returned module is a private clone the caller may freely optimize or
    rewrite.
    """
    from ..api.session import default_pipeline

    kernel = get_kernel(name)
    pipeline = pipeline if pipeline is not None else default_pipeline()
    module, _record = pipeline.frontend(kernel.source, kernel.name)
    return module


def compile_suite(names: Optional[Iterable[str]] = None) -> Dict[str, Module]:
    """Compile several kernels (all of them by default)."""
    selected = list(names) if names is not None else sorted(KERNELS)
    return {name: compile_kernel(name) for name in selected}


@dataclass
class KernelRun:
    """Result of one functional kernel execution."""

    kernel: str
    engine: str
    value: object
    expected: object
    instructions: int

    @property
    def correct(self) -> bool:
        return self.value == self.expected


def run_kernel(name: str, size: Optional[int] = None, seed: int = 1234,
               opt_level: int = 2, engine: str = "interpreter") -> KernelRun:
    """Compile, optimize and functionally execute one kernel.

    The optimized module comes from the default pipeline's ``front``
    stages, the one path from C to optimized IR.  The result is checked
    against the kernel's pure-Python oracle; ``engine`` selects the
    interpreter or the compiled engine.
    """
    from ..api.session import default_pipeline
    from ..exec.engine import make_functional_simulator

    kernel = get_kernel(name)
    module, _records = default_pipeline().front(kernel.source, kernel.name,
                                                opt_level=opt_level)
    args = kernel.arguments(size, seed=seed)
    expected = kernel.expected(args)
    simulator = make_functional_simulator(module, engine=engine)
    value = simulator.run(kernel.entry, *copy_run_args(args))
    return KernelRun(kernel=name, engine=engine, value=value,
                     expected=expected,
                     instructions=simulator.profile.instructions_executed)


def validate_suite(names: Optional[Iterable[str]] = None,
                   engine: str = "interpreter", size: Optional[int] = None,
                   seed: int = 1234) -> Dict[str, bool]:
    """Run every selected kernel on ``engine``; map name -> oracle match."""
    selected = list(names) if names is not None else sorted(KERNELS)
    return {name: run_kernel(name, size=size, seed=seed, engine=engine).correct
            for name in selected}


@dataclass
class WorkloadMix:
    """A weighted set of kernels standing in for a product's software.

    Used by the application-area experiments (§6.1): the processor is
    customized for the mix, then evaluated both on the mix and on held-out
    kernels from the same domain.
    """

    name: str
    weights: Dict[str, float]

    def kernels(self) -> List[Tuple[Kernel, float]]:
        return [(get_kernel(k), w) for k, w in self.weights.items()]

    def names(self) -> List[str]:
        return list(self.weights)


#: Product-style mixes referenced by the examples and experiments.
MIXES: Dict[str, WorkloadMix] = {
    "cellphone": WorkloadMix("cellphone", {
        "viterbi_acs": 3.0, "fir_filter": 2.0, "saturated_add": 1.5,
        "dot_product": 1.0,
    }),
    "video": WorkloadMix("video", {
        "sad16": 3.0, "dct_stage": 2.0, "alpha_blend": 1.0,
    }),
    "imaging": WorkloadMix("imaging", {
        "rgb_to_gray": 2.0, "histogram": 1.0, "alpha_blend": 1.0,
    }),
    "network": WorkloadMix("network", {
        "crc32": 2.0, "ip_checksum": 2.0, "popcount_buffer": 1.0,
    }),
    "medical": WorkloadMix("medical", {
        "iir_biquad": 2.0, "matmul4": 1.0,
    }),
}


def get_mix(name: str) -> WorkloadMix:
    try:
        return MIXES[name]
    except KeyError:
        raise KeyError(
            f"unknown mix '{name}'; available: {', '.join(sorted(MIXES))}"
        ) from None
