"""End-to-end ISA customization drivers.

:class:`IsaCustomizer` turns a compiled program (or a weighted set of
programs — an application *area*) plus a base machine description into a
customized family member: it profiles, enumerates candidate fused
operations, selects under area/encoding budgets, registers the winners in
the process-wide extension library, rewrites the program(s) to use them
and returns the extended machine description.

This is the paper's headline flow — "CPUs that are customized to their
use" produced automatically by the toolchain rather than by a hand-built
ASIC design effort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..arch.machine import MachineDescription
from ..ir import Module
from .identification import SINGLE_OUTPUT_CONFIG, Candidate, identify_candidates
from .library import global_extension_library
from .rewrite import apply_selection, custom_op_usage, rewrite_with_library
from .selection import SelectionConfig, SelectionResult, select


@dataclass
class CustomizationReport:
    """What the customizer did and what it expects to gain."""

    base_machine: str
    custom_machine: str
    candidates_considered: int = 0
    operations_selected: int = 0
    selected_names: List[str] = field(default_factory=list)
    area_added_kgates: float = 0.0
    opcode_points_used: int = 0
    estimated_cycles_saved: float = 0.0
    sites_rewritten: Dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        ops = ", ".join(self.selected_names) or "(none)"
        return (
            f"{self.base_machine} -> {self.custom_machine}: "
            f"{self.operations_selected} custom ops [{ops}], "
            f"+{self.area_added_kgates:.1f} kgates, "
            f"~{self.estimated_cycles_saved:.0f} cycles saved (estimate)"
        )


@dataclass
class CustomizationResult:
    """The customized machine plus the rewritten program(s)."""

    machine: MachineDescription
    modules: List[Module]
    report: CustomizationReport
    selection: SelectionResult

    @property
    def module(self) -> Module:
        """The first (or only) rewritten module."""
        return self.modules[0]


class IsaCustomizer:
    """Automated instruction-set customization for one machine family."""

    def __init__(self, base_machine: MachineDescription,
                 selection_config: Optional[SelectionConfig] = None) -> None:
        self.base_machine = base_machine
        self.selection_config = selection_config or SelectionConfig()

    # ------------------------------------------------------------------
    # Profiling.
    # ------------------------------------------------------------------
    @staticmethod
    def profile(module: Module, entry: str, *args) -> None:
        """Run the functional simulator to attach a measured profile."""
        from ..sim.functional import FunctionalSimulator

        simulator = FunctionalSimulator(module.clone())
        simulator.run(entry, *args)
        simulator.profile.apply_to_module(module)

    # ------------------------------------------------------------------
    # Single-application customization.
    # ------------------------------------------------------------------
    def customize(self, module: Module, name: Optional[str] = None,
                  profile_entry: Optional[str] = None,
                  profile_args: Tuple = ()) -> CustomizationResult:
        """Customize the ISA for one program (rewrites ``module`` in place)."""
        return self.customize_for_area(
            [(module, 1.0)], name=name,
            profiles={module.name: (profile_entry, profile_args)} if profile_entry else None,
        )

    # ------------------------------------------------------------------
    # Application-area customization (§6.1).
    # ------------------------------------------------------------------
    def customize_for_area(self, weighted_modules: Sequence[Tuple[Module, float]],
                           name: Optional[str] = None,
                           profiles: Optional[Dict[str, Tuple[str, Tuple]]] = None
                           ) -> CustomizationResult:
        """Customize for a weighted set of programs sharing one processor.

        ``weighted_modules`` is a list of ``(module, weight)`` pairs; the
        weight models how much of the product's compute time the program is
        expected to represent.  ``profiles`` optionally maps module names to
        ``(entry_function, args)`` so measured frequencies replace static
        estimates.
        """
        modules = [m for m, _ in weighted_modules]
        if profiles:
            for module in modules:
                spec = profiles.get(module.name)
                if spec and spec[0]:
                    self.profile(module, spec[0], *spec[1])

        # Identify per module, then merge by signature with area weights.
        merged: Dict[str, Candidate] = {}
        for module, weight in weighted_modules:
            for candidate in identify_candidates(module, SINGLE_OUTPUT_CONFIG):
                for occurrence in candidate.occurrences:
                    occurrence.frequency *= weight
                existing = merged.get(candidate.signature)
                if existing is None:
                    merged[candidate.signature] = candidate
                else:
                    existing.occurrences.extend(candidate.occurrences)
        candidates = sorted(merged.values(),
                            key=lambda c: -c.dynamic_count * max(1, c.pattern.size))

        selection = select(candidates, self.base_machine, self.selection_config)

        # Register winners and extend the machine description.
        machine_name = name or f"{self.base_machine.name}+custom"
        machine = self.base_machine.clone(machine_name)
        library = global_extension_library()
        for candidate in selection.selected:
            entry = library.find_by_signature(candidate.signature)
            if entry is None:
                entry = library.register(candidate.pattern)
            if not machine.has_custom_op(entry.name):
                machine.add_custom_op(entry.operation)
        machine.notes = (machine.notes + " " if machine.notes else "") + (
            f"customized from {self.base_machine.name} with "
            f"{len(selection.selected)} fused ops"
        )

        # Rewrite every module in the area.
        sites: Dict[str, int] = {}
        for module in modules:
            counts = apply_selection(module, selection.selected)
            for op_name, count in counts.items():
                sites[op_name] = sites.get(op_name, 0) + count

        report = CustomizationReport(
            base_machine=self.base_machine.name,
            custom_machine=machine.name,
            candidates_considered=len(candidates),
            operations_selected=len(selection.selected),
            selected_names=selection.names(),
            area_added_kgates=selection.area_used_kgates,
            opcode_points_used=selection.opcode_points_used,
            estimated_cycles_saved=selection.estimated_cycles_saved,
            sites_rewritten=sites,
        )
        return CustomizationResult(
            machine=machine, modules=list(modules), report=report,
            selection=selection,
        )

    # ------------------------------------------------------------------
    # Applying an existing customization to new code.
    # ------------------------------------------------------------------
    @staticmethod
    def apply_to(module: Module, machine: MachineDescription) -> Dict[str, int]:
        """Rewrite ``module`` to use ``machine``'s registered extensions.

        Only extensions present on ``machine`` are used, so a module can be
        retargeted to any member of the customized family.
        """
        return rewrite_with_library(module, machine)


def customize_isa(module: Module, base_machine: MachineDescription,
                  area_budget_kgates: float = 40.0,
                  max_operations: int = 8,
                  name: Optional[str] = None) -> CustomizationResult:
    """One-call convenience wrapper around :class:`IsaCustomizer`."""
    customizer = IsaCustomizer(
        base_machine,
        selection_config=SelectionConfig(
            area_budget_kgates=area_budget_kgates, max_operations=max_operations
        ),
    )
    return customizer.customize(module, name=name)
