"""repro: customized instruction-sets for embedded processors.

A reproduction of the system envisioned by J. A. Fisher, "Customized
Instruction-Sets for Embedded Processors", DAC 1999: a mass-customizable
VLIW toolchain (C front end, optimizer, table-driven retargetable back
end, functional and cycle-level simulators), automated instruction-set
extension (identification, selection, rewriting), design-space
exploration, ISA-drift/binary-translation machinery, and the economic
models behind the paper's five barriers.

Typical use — the session-scoped service façade::

    from repro import CustomizeRequest, Session

    with Session(opt_level=3) as session:
        job = session.submit(CustomizeRequest(kernel="sad16",
                                              machine="vliw4",
                                              area_budget_kgates=30.0))
        response = job.result()
        print(response.custom_machine, response.speedup)
        print(response.to_json())          # schema-versioned, with provenance

or the classic objects, bound to a session::

    from repro import Session, vliw4
    from repro.workloads import get_kernel

    kernel = get_kernel("sad16")
    toolchain = Session().toolchain(vliw4())
    module = toolchain.frontend(kernel.source, kernel.name)
    custom = toolchain.customize(module, area_budget_kgates=30.0)
    artifacts = custom.build(module)
    result = custom.run(artifacts, kernel.entry, *kernel.arguments())
    print(result.cycles, result.energy_uj)

The same six request kinds drive the CLI: ``python -m repro
{compile,run,customize,explore,matrix,gen}``.
"""

from .arch import (
    MachineDescription, clustered_vliw4, dsp_core, get_preset,
    mass_market_superscalar, risc_baseline, vliw, vliw2, vliw4, vliw8,
)
from .core import IsaCustomizer, customize_isa
from .exec import BatchEvaluator, CompiledSimulator, make_functional_simulator
from .frontend import compile_c
from .gen import WorkloadPopulation, WorkloadSpec, generate_kernel, sample_spec
from .ir import IRBuilder, Module
from .model import KernelTrace, RetimingModel, TraceEstimate, capture_trace
from .obs import (
    MetricsRegistry, ObsJournal, Tracer, global_tracer, obs_mode,
    obs_override, render_prometheus, set_obs_mode,
)
from .opt import optimize
from .pipeline import ArtifactStore, CompilePipeline
from .sim import CycleSimulator, FunctionalSimulator
from .toolchain import Toolchain, run_matrix
from .api import (
    CompileRequest, CustomizeRequest, ExploreRequest, Job, MatrixRequest,
    PopulationRequest, RunRequest, Session, default_session,
    reset_default_session,
)

__version__ = "1.1.0"

__all__ = [
    "MachineDescription", "clustered_vliw4", "dsp_core", "get_preset",
    "mass_market_superscalar", "risc_baseline", "vliw", "vliw2", "vliw4",
    "vliw8",
    "IsaCustomizer", "customize_isa",
    "BatchEvaluator", "CompiledSimulator", "make_functional_simulator",
    "compile_c",
    "WorkloadPopulation", "WorkloadSpec", "generate_kernel", "sample_spec",
    "IRBuilder", "Module",
    "KernelTrace", "RetimingModel", "TraceEstimate", "capture_trace",
    "MetricsRegistry", "ObsJournal", "Tracer", "global_tracer", "obs_mode",
    "obs_override", "render_prometheus", "set_obs_mode",
    "optimize",
    "ArtifactStore", "CompilePipeline",
    "CycleSimulator", "FunctionalSimulator",
    "Toolchain", "run_matrix",
    "CompileRequest", "CustomizeRequest", "ExploreRequest", "Job",
    "MatrixRequest", "PopulationRequest", "RunRequest", "Session",
    "default_session", "reset_default_session",
    "__version__",
]
