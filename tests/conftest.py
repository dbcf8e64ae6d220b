"""Shared fixtures for the repro test suite.

Expensive setup that used to be repeated per test file lives here:

* ``kernel_module`` — a session-scoped compile cache: each (kernel,
  opt_level) pair is compiled to optimized IR exactly once per test run,
  and every caller gets a private clone (tests customize/rewrite modules
  in place);
* ``api_session`` — a fresh, isolated :class:`repro.api.Session`,
  closed on teardown;
* ``seeded_population`` — the fixed-seed 25-kernel generated workload
  population shared by the differential harnesses (generation only;
  tests that need registry names use it as a context manager);
* ``copies`` — the per-run argument-copy helper every differential test
  needs (simulators write back into list arguments).
"""

from __future__ import annotations

import pytest

from repro.arch import risc_baseline, vliw2, vliw4
from repro.core import reset_global_library
from repro.frontend import compile_c
from repro.opt import optimize
from repro.workloads import get_kernel

from _shared import (
    APP_SEED, POPULATION_COUNT, POPULATION_SEED, arg_copies,
    build_kernel_module, seeded_application,
)

@pytest.fixture(autouse=True)
def _clean_extension_library():
    """Keep the process-wide extension library isolated between tests."""
    reset_global_library()
    yield
    reset_global_library()


@pytest.fixture(scope="session")
def kernel_module():
    """Fixture form of :func:`build_kernel_module` (shared compile cache)."""
    return build_kernel_module


@pytest.fixture
def medical_evaluator():
    """Factory for the small trace-fidelity evaluator the batch-layer
    tests share: the "medical" mix at size 8."""
    from repro.dse import Evaluator
    from repro.workloads import get_mix

    def build(**kwargs):
        return Evaluator(get_mix("medical"), size=8, fidelity="trace",
                         **kwargs)

    return build


@pytest.fixture
def api_session():
    """A fresh, isolated service session (own artifact store)."""
    from repro.api import Session

    with Session() as session:
        yield session


@pytest.fixture(scope="session")
def seeded_population():
    """The fixed-seed generated workload population (25 kernels)."""
    from repro.gen import WorkloadPopulation

    return WorkloadPopulation.generate(POPULATION_COUNT, seed=POPULATION_SEED)


@pytest.fixture(scope="session")
def app_spec():
    """Factory form of :func:`seeded_application` (shared spec cache)."""
    return seeded_application


@pytest.fixture
def copies():
    """Fixture form of :func:`arg_copies`."""
    return arg_copies


@pytest.fixture
def risc_machine():
    return risc_baseline()


@pytest.fixture
def vliw4_machine():
    return vliw4()


@pytest.fixture
def vliw2_machine():
    return vliw2()


@pytest.fixture
def dot_module():
    """The dot-product kernel compiled to optimized IR."""
    kernel = get_kernel("dot_product")
    module = compile_c(kernel.source, module_name=kernel.name)
    optimize(module, level=2)
    return module


@pytest.fixture
def sad_module():
    """The SAD kernel compiled to optimized IR (rich in ISE candidates)."""
    kernel = get_kernel("sad16")
    module = compile_c(kernel.source, module_name=kernel.name)
    optimize(module, level=2)
    return module


def make_simple_loop_source(body_expression: str = "acc = acc + a[i] * b[i];") -> str:
    """A templated counted-loop kernel used by several structural tests."""
    return (
        "int kernel(int *a, int *b, int n) {\n"
        "    int acc = 0;\n"
        "    for (int i = 0; i < n; i++) {\n"
        f"        {body_expression}\n"
        "    }\n"
        "    return acc;\n"
        "}\n"
    )
