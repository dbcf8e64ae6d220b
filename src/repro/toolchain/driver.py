"""The mass-customized toolchain facade.

:class:`Toolchain` is the one object a product team interacts with: it is
constructed from an architecture description table, and from then on
"software development is relative to the toolchain, not the hardware"
(§3.1) — the same ``compile``/``run``/``customize`` calls work for every
member of the architecture family, and deriving a new family member is a
table edit, not a new toolchain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..arch.area import AreaReport, estimate_area
from ..arch.encoding import CodeSizeReport
from ..arch.machine import MachineDescription
from ..backend.codegen import CompileReport
from ..backend.mcode import CompiledModule
from ..backend.asm import BinaryImage, encode_module, render_assembly
from ..core.customizer import CustomizationResult, IsaCustomizer
from ..core.selection import SelectionConfig
from ..exec.registry import validate_engine
from ..ir import Module
from ..pipeline import CompilePipeline
from ..sim.cycle import CycleSimulator, SimulationResult
from ..sim.functional import FunctionalSimulator


@dataclass
class BuildArtifacts:
    """Everything produced by one compile-for-machine invocation."""

    module: Module
    compiled: CompiledModule
    report: CompileReport
    machine: MachineDescription
    #: the pipeline that produced this build and its backend content key;
    #: set by :meth:`Toolchain.build` so derived artifacts (the binary
    #: encoding) are served from the same artifact store.
    pipeline: Optional[CompilePipeline] = None
    backend_key: Optional[str] = None

    @property
    def assembly(self) -> str:
        return render_assembly(self.compiled)

    @property
    def binary(self) -> BinaryImage:
        if self.pipeline is not None and self.backend_key is not None:
            image = self.pipeline.encode(self.compiled, self.backend_key)
            if self._image_matches(image):
                return image
        # ``compiled`` was restructured after the build (functions added,
        # dropped or rescheduled): encode the live object instead of the
        # cached image.
        return encode_module(self.compiled)

    def _image_matches(self, image: BinaryImage) -> bool:
        """Cheap structural check that a cached image still describes
        ``compiled`` (same functions, same bundle counts)."""
        if set(image.words) != set(self.compiled.functions):
            return False
        for function in self.compiled:
            bundles = sum(len(block.bundles) for block in function.blocks)
            if len(image.bundle_table.get(function.name, ())) != bundles:
                return False
        return True

    @property
    def area(self) -> AreaReport:
        return estimate_area(self.machine)

    @property
    def code_size(self) -> Optional[CodeSizeReport]:
        return self.report.code


class Toolchain:
    """A complete compiler + simulator stack for one machine description."""

    def __init__(self, machine: MachineDescription, opt_level: int = 2,
                 unroll_factor: int = 4,
                 engine: str = "interpreter",
                 pipeline: Optional[CompilePipeline] = None) -> None:
        validate_engine(engine, "functional")
        self.machine = machine
        self.opt_level = opt_level
        self.unroll_factor = unroll_factor
        #: functional-execution engine used by run_reference:
        #: "interpreter" (reference oracle), "compiled" (threaded code)
        #: or "native" (generated C, degrading to compiled without a CC).
        self.engine = engine
        #: staged compile pipeline; the default service session's by
        #: default, so toolchains for different family members share the
        #: machine-independent half of every compile.
        if pipeline is not None:
            self.pipeline = pipeline
        else:
            from ..api.session import default_pipeline

            self.pipeline = default_pipeline()

    # ------------------------------------------------------------------
    # Front end + optimizer.
    # ------------------------------------------------------------------
    def frontend(self, source: str, name: str = "module") -> Module:
        """Compile C source to optimized IR (no machine dependence yet)."""
        module, _records = self.pipeline.front(
            source, name, opt_level=self.opt_level,
            unroll_factor=self.unroll_factor)
        return module

    # ------------------------------------------------------------------
    # Machine-dependent back end.
    # ------------------------------------------------------------------
    def build(self, module_or_source, name: str = "module") -> BuildArtifacts:
        """Compile IR (or C source) for this toolchain's machine.

        Every stage is served from the pipeline's content-addressed
        artifact store when its inputs are unchanged;
        ``report.stages`` records what was reused vs. rebuilt.
        """
        module, compiled, report, backend_key = self.pipeline.build(
            module_or_source, self.machine, name=name,
            opt_level=self.opt_level, unroll_factor=self.unroll_factor)
        return BuildArtifacts(module=module, compiled=compiled, report=report,
                              machine=self.machine, pipeline=self.pipeline,
                              backend_key=backend_key)

    # ------------------------------------------------------------------
    # Simulation.
    # ------------------------------------------------------------------
    def run(self, artifacts: BuildArtifacts, entry: str, *args) -> SimulationResult:
        """Cycle-accurately simulate a built program."""
        simulator = CycleSimulator(artifacts.compiled)
        return simulator.run(entry, *args)

    def run_reference(self, module: Module, entry: str, *args):
        """Run the functional simulator (machine independent).

        Uses this toolchain's ``engine`` selection: the interpreter, the
        compiled (threaded-code) engine or the generated-C native engine —
        all produce identical results.  Native ``.so`` artifacts are
        shared through the pipeline's artifact store.
        """
        from ..exec.engine import make_functional_simulator

        simulator = make_functional_simulator(module.clone(), engine=self.engine,
                                              store=self.pipeline.store)
        return simulator.run(entry, *args)

    def compile_and_run(self, source: str, entry: str, *args,
                        name: str = "module") -> Tuple[BuildArtifacts, SimulationResult]:
        """One call from C source to cycle-level results."""
        artifacts = self.build(source, name)
        return artifacts, self.run(artifacts, entry, *args)

    # ------------------------------------------------------------------
    # Customization.
    # ------------------------------------------------------------------
    def customize(self, module: Module, *, area_budget_kgates: float = 40.0,
                  max_operations: int = 8, name: Optional[str] = None,
                  profile_entry: Optional[str] = None,
                  profile_args: Tuple = ()) -> "Toolchain":
        """Derive a new toolchain whose machine is customized for ``module``.

        The module is rewritten in place to use the new operations, which
        are registered in the process-wide extension library; the returned
        toolchain targets the extended family member.
        """
        customizer = IsaCustomizer(
            self.machine,
            selection_config=SelectionConfig(
                area_budget_kgates=area_budget_kgates,
                max_operations=max_operations,
            ),
        )
        result = customizer.customize(module, name=name,
                                      profile_entry=profile_entry,
                                      profile_args=profile_args)
        derived = self.retarget(result.machine)
        derived.last_customization = result  # type: ignore[attr-defined]
        return derived

    # ------------------------------------------------------------------
    # Retargeting.
    # ------------------------------------------------------------------
    def retarget(self, machine: MachineDescription) -> "Toolchain":
        """The same toolchain pointed at a different family member."""
        return Toolchain(machine, opt_level=self.opt_level,
                         unroll_factor=self.unroll_factor,
                         engine=self.engine, pipeline=self.pipeline)

    def describe(self) -> str:
        return f"Toolchain for {self.machine.describe()} (O{self.opt_level})"
