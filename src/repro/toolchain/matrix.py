"""The N×M validation matrix (architectures × programs).

Section 3.1 item 2: "Testing methodology uses architectures as if they
were test programs (thus NxM tests)".  Every kernel is compiled for every
machine in the list, timed through the pipeline's one kernel measurement
(:meth:`~repro.pipeline.CompilePipeline.measure`: the cycle simulator,
or the retimed trace at trace fidelity), and checked against both the
kernel's pure-Python oracle and the machine-independent functional
simulation.  The matrix is simultaneously the toolchain's regression
suite and the raw data for experiment E5.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..arch.machine import MachineDescription
from ..exec.registry import TRACE_ENGINE, validate_engine
from ..workloads.kernels import KERNELS, Kernel, copy_run_args, get_kernel

#: version of MatrixReport's exported dict/JSON form.
REPORT_SCHEMA_VERSION = 1


@dataclass
class MatrixCell:
    """The result of one (machine, kernel) combination."""

    machine: str
    kernel: str
    correct: bool
    cycles: int = 0
    operations: int = 0
    ipc: float = 0.0
    code_bytes: int = 0
    error: Optional[str] = None


@dataclass
class MatrixReport:
    """All cells of one N×M run plus summary helpers."""

    cells: List[MatrixCell] = field(default_factory=list)
    #: functional cross-check engine the run used.
    engine: str = "interpreter"
    #: timing-model fidelity: "cycle" (simulated) or "trace" (retimed).
    fidelity: str = "cycle"

    def cell(self, machine: str, kernel: str) -> MatrixCell:
        for cell in self.cells:
            if cell.machine == machine and cell.kernel == kernel:
                return cell
        raise KeyError(f"no cell for ({machine}, {kernel})")

    @property
    def machines(self) -> List[str]:
        seen: List[str] = []
        for cell in self.cells:
            if cell.machine not in seen:
                seen.append(cell.machine)
        return seen

    @property
    def kernels(self) -> List[str]:
        seen: List[str] = []
        for cell in self.cells:
            if cell.kernel not in seen:
                seen.append(cell.kernel)
        return seen

    @property
    def all_correct(self) -> bool:
        return all(cell.correct for cell in self.cells)

    @property
    def failures(self) -> List[MatrixCell]:
        return [cell for cell in self.cells if not cell.correct]

    def pass_rate(self) -> float:
        if not self.cells:
            return 0.0
        return sum(cell.correct for cell in self.cells) / len(self.cells)

    def to_rows(self) -> List[Dict[str, object]]:
        """Rows suitable for printing as the E5 table."""
        return [
            {
                "machine": cell.machine,
                "kernel": cell.kernel,
                "ok": "pass" if cell.correct else "FAIL",
                "cycles": cell.cycles,
                "ipc": round(cell.ipc, 2),
                "code_bytes": cell.code_bytes,
            }
            for cell in self.cells
        ]

    def to_dict(self) -> Dict[str, object]:
        """Schema-versioned, JSON-representable form of the whole run."""
        return {
            "kind": "matrix_report",
            "schema_version": REPORT_SCHEMA_VERSION,
            "engine": self.engine,
            "fidelity": self.fidelity,
            "machines": self.machines,
            "kernels": self.kernels,
            "cells": len(self.cells),
            "pass_rate": round(self.pass_rate(), 4),
            "all_correct": self.all_correct,
            "rows": self.to_rows(),
            "failures": [
                {"machine": cell.machine, "kernel": cell.kernel,
                 "error": cell.error}
                for cell in self.failures
            ],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)


def run_matrix(machines: Sequence[MachineDescription],
               kernel_names: Optional[Iterable[str]] = None,
               size: Optional[int] = None,
               opt_level: int = 2,
               seed: int = 1234,
               engine: str = "interpreter",
               fidelity: str = "cycle",
               pipeline=None) -> MatrixReport:
    """Compile and validate every kernel on every machine.

    ``engine`` selects the functional cross-check engine through the
    unified registry ("interpreter", "compiled" or "native"); ``pipeline``
    injects a staged compile pipeline (the default session's when None),
    so a matrix sweep shares artifacts — including native ``.so``s — with
    whatever warmed the session.

    ``fidelity`` selects the timing model of ``pipeline.measure``:
    ``"cycle"`` executes every cell on the cycle simulator; ``"trace"``
    profiles each kernel once (the pipeline's machine-independent trace
    stage — the profiled run, on :data:`~repro.exec.registry.TRACE_ENGINE`,
    doubles as the functional oracle check) and prices every machine
    analytically with the :class:`repro.model.RetimingModel`.

    Correctness semantics differ by fidelity: at ``"cycle"`` each cell's
    ``correct`` certifies the *scheduled code executed on that machine*
    against the oracle; at ``"trace"`` nothing machine-specific executes,
    so ``correct`` certifies only the machine-independent kernel
    semantics (once per kernel) — it cannot catch a per-machine
    miscompile.  Use trace fidelity to screen timing, cycle fidelity to
    validate the toolchain (the differential harness in
    ``tests/test_trace_model.py`` keeps the two locked together).
    """
    validate_engine(engine, "functional")
    validate_engine(fidelity, "fidelity")
    from ..exec.engine import make_functional_simulator

    names = sorted(kernel_names) if kernel_names is not None else sorted(KERNELS)
    if fidelity == "trace":
        # Record the engine that actually ran rather than a cross-check
        # engine that never did.
        engine = TRACE_ENGINE
    report = MatrixReport(engine=engine, fidelity=fidelity)
    if pipeline is None:
        from ..api.session import default_pipeline

        pipeline = default_pipeline()

    # The cycle-fidelity functional reference runs the machine-independent
    # module from ``pipeline.front``, so it runs once per kernel; its value,
    # or the exception it raised, is shared by that kernel's cells.
    references: Dict[str, object] = {}

    def reference_value(kernel: Kernel, module, args):
        if kernel.name not in references:
            try:
                reference = make_functional_simulator(
                    module, engine=engine, store=pipeline.store)
                references[kernel.name] = reference.run(
                    kernel.entry, *copy_run_args(args))
            except Exception as exc:  # noqa: BLE001 - re-raised per cell
                references[kernel.name] = exc
        outcome = references[kernel.name]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    # Per-kernel work is the same on every machine, so it is done once:
    # the arguments, the oracle's answer and the optimized module (or the
    # exception compiling it raised, reported by each of its cells).
    # Nothing below rewrites the module: the backend stage compiles a
    # snapshot and the functional reference runs a clone.
    prepared = {}
    for name in names:
        kernel = get_kernel(name)
        args = kernel.arguments(size, seed=seed)
        expected = kernel.expected(args)
        try:
            front, _records = pipeline.front(kernel.source, kernel.name,
                                             opt_level=opt_level)
        except Exception as exc:  # noqa: BLE001 - reported per cell
            front = exc
        prepared[name] = (kernel, args, expected, front)

    for machine in machines:
        for name in names:
            kernel, args, expected, module = prepared[name]
            cell = MatrixCell(machine=machine.name, kernel=name, correct=False)
            try:
                if isinstance(module, Exception):
                    raise module
                compiled, compile_report = pipeline.backend(module, machine)
                if fidelity == "cycle":
                    # Cross-check 1: functional simulation vs. the oracle.
                    ref_value = reference_value(kernel, module, args)
                # Cross-check 2: the kernel timed on this machine.
                result = pipeline.measure(module, compiled, kernel.entry,
                                          args, fidelity)
                run_value = result.value
                if fidelity == "trace":
                    # The profiled run is the only functional execution:
                    # its recorded value is the functional output.
                    ref_value = run_value
                cell.cycles = result.cycles
                cell.operations = result.stats.operations_executed
                cell.ipc = result.stats.ipc
                if compile_report.code is not None:
                    cell.code_bytes = compile_report.code.bytes_effective
                cell.correct = (run_value == expected and ref_value == expected)
                if not cell.correct:
                    cell.error = (
                        f"expected {expected}, functional {ref_value}, "
                        f"{fidelity}-level {run_value}"
                    )
            except Exception as exc:  # noqa: BLE001 - matrix reports, never raises
                cell.error = f"{type(exc).__name__}: {exc}"
            report.cells.append(cell)
    return report
