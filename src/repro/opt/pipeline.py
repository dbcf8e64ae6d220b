"""The optimization pipeline and pass manager.

The pass manager runs each pass, optionally re-verifying the IR after
every pass (the default in tests), and iterates the cheap cleanup passes
to a fixed point.  Optimization levels follow the usual convention:

* ``O0`` — verification only,
* ``O1`` — local cleanups (copy propagation, folding, CSE, DCE, CFG
  simplification),
* ``O2`` — O1 plus inlining and if-conversion,
* ``O3`` — O2 plus loop unrolling (the ILP-exposing configuration the
  VLIW experiments use).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..ir import Function, Module, assert_valid
from . import passes


@dataclass
class FixpointRun:
    """One cleanup-to-fixpoint loop: per-iteration change counts.

    ``iterations[i]`` is the total number of changes all cleanup passes
    made in iteration ``i``; a converged run ends with a ``0`` entry (the
    iteration that proved the fixpoint).  ``converged`` is False when the
    loop hit its iteration cap while still making changes — the case the
    old single-counter reporting silently swallowed.
    """

    label: str
    iterations: List[int] = field(default_factory=list)
    converged: bool = True

    @property
    def rounds(self) -> int:
        return len(self.iterations)

    @property
    def total_changes(self) -> int:
        return sum(self.iterations)


@dataclass
class PassStatistics:
    """Per-pass change counts accumulated over a pipeline run."""

    changes: Dict[str, int] = field(default_factory=dict)
    #: one record per cleanup-to-fixpoint loop, in execution order.
    fixpoint_runs: List[FixpointRun] = field(default_factory=list)

    def record(self, name: str, count: int) -> None:
        self.changes[name] = self.changes.get(name, 0) + count

    def total(self) -> int:
        return sum(self.changes.values())

    @property
    def cap_hits(self) -> List[FixpointRun]:
        """Fixpoint loops that were stopped by the iteration cap."""
        return [run for run in self.fixpoint_runs if not run.converged]


#: the cheap cleanup passes iterated to a fixed point between the
#: structural phases of the pipeline.
CLEANUP_PASSES = (
    ("copy_propagate", passes.copy_propagate),
    ("constant_fold", passes.constant_fold),
    ("algebraic_simplify", passes.algebraic_simplify),
    ("local_cse", passes.local_cse),
    ("dead_code_elimination", passes.dead_code_elimination),
    ("simplify_cfg", passes.simplify_cfg),
)


class PassManager:
    """Runs function- and module-level passes with optional verification."""

    def __init__(self, verify: bool = True) -> None:
        self.verify = verify
        self.stats = PassStatistics()

    def run_function_pass(self, name: str, pass_fn: Callable[[Function], int],
                          module: Module) -> int:
        total = 0
        for function in module.functions.values():
            total += pass_fn(function)
        self.stats.record(name, total)
        if self.verify:
            assert_valid(module)
        return total

    def run_module_pass(self, name: str, pass_fn: Callable[[Module], int],
                        module: Module) -> int:
        count = pass_fn(module)
        self.stats.record(name, count)
        if self.verify:
            assert_valid(module)
        return count

    def run_to_fixpoint(self, label: str, module: Module,
                        max_iterations: int = 10) -> FixpointRun:
        """Iterate the cleanup passes until no pass changes anything.

        Each iteration's change count is recorded separately in the
        returned :class:`FixpointRun` (also appended to
        ``stats.fixpoint_runs``); hitting ``max_iterations`` with changes
        still occurring marks the run unconverged and emits a
        :class:`RuntimeWarning`.
        """
        run = FixpointRun(label=label)
        for _ in range(max_iterations):
            changed = 0
            for name, pass_fn in CLEANUP_PASSES:
                changed += self.run_function_pass(name, pass_fn, module)
            run.iterations.append(changed)
            if changed == 0:
                break
        else:
            run.converged = False
            last = run.iterations[-1] if run.iterations else 0
            warnings.warn(
                f"cleanup fixpoint '{label}' hit its {max_iterations}-"
                f"iteration cap with {last} changes still occurring "
                f"(module {module.name})",
                RuntimeWarning, stacklevel=2)
        self.stats.fixpoint_runs.append(run)
        return run


def optimize(module: Module, level: int = 2, *, unroll_factor: int = 4,
             verify: bool = True) -> PassStatistics:
    """Run the standard optimization pipeline on ``module`` in place."""
    from ..exec.cache import forget_fingerprint

    forget_fingerprint(module)
    manager = PassManager(verify=verify)
    if level <= 0:
        if verify:
            assert_valid(module)
        return manager.stats

    manager.run_to_fixpoint("initial", module)

    if level >= 2:
        manager.run_module_pass(
            "inline_small_functions", passes.inline_small_functions, module
        )
        manager.run_to_fixpoint("post-inline", module)
        manager.run_function_pass("if_convert", passes.if_convert, module)
        manager.run_to_fixpoint("post-if-convert", module)

    if level >= 3 and unroll_factor >= 2:
        def unroll(function: Function) -> int:
            return passes.unroll_loops(function, factor=unroll_factor)

        # Repeated invocations unroll one loop at a time.
        for _ in range(8):
            if manager.run_function_pass("unroll_loops", unroll, module) == 0:
                break
        manager.run_to_fixpoint("post-unroll", module)

    return manager.stats
