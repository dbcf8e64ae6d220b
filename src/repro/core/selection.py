"""Selection of ISA extensions under area and opcode-space budgets.

Given the candidate list produced by identification, selection decides
which fused operations actually become part of the customized ISA.
:func:`select` is the classic benefit-per-kgate greedy heuristic with
overlap resolution: candidates are taken by descending estimated benefit
per kgate while the area budget, the encoding budget (opcode points,
:mod:`repro.arch.encoding`) and the operation count allow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..arch.encoding import DEFAULT_OPCODE_BUDGET, opcode_points_required
from ..arch.machine import MachineDescription
from .identification import Candidate, filter_overlapping_occurrences


@dataclass
class SelectionConfig:
    """Budgets and knobs for the selection stage."""

    #: total custom-datapath area allowed, in kgates.
    area_budget_kgates: float = 40.0
    #: opcode points available for new operations.
    opcode_budget: int = DEFAULT_OPCODE_BUDGET
    #: maximum number of distinct custom operations.
    max_operations: int = 8
    #: candidates whose estimated benefit is below this are never selected.
    min_benefit: float = 1.0


@dataclass
class SelectionResult:
    """The outcome of a selection run."""

    selected: List[Candidate] = field(default_factory=list)
    rejected: List[Candidate] = field(default_factory=list)
    area_used_kgates: float = 0.0
    opcode_points_used: int = 0
    estimated_cycles_saved: float = 0.0

    def names(self) -> List[str]:
        return [c.pattern.name for c in self.selected]


def _candidate_cost(candidate: Candidate) -> Tuple[float, int]:
    area = candidate.area_cost()
    points = opcode_points_required(candidate.pattern.num_inputs,
                                    candidate.pattern.num_outputs)
    return area, points


def select(candidates: Sequence[Candidate], machine: MachineDescription,
           config: Optional[SelectionConfig] = None) -> SelectionResult:
    """Pick candidates by descending benefit density until budgets run out."""
    config = config or SelectionConfig()
    result = SelectionResult()

    scored = []
    for candidate in candidates:
        benefit = candidate.estimated_benefit(machine)
        if benefit < config.min_benefit or not candidate.occurrences:
            result.rejected.append(candidate)
            continue
        area, points = _candidate_cost(candidate)
        density = benefit / max(area, 0.1)
        scored.append((density, benefit, area, points, candidate))
    scored.sort(key=lambda item: -item[0])

    for density, benefit, area, points, candidate in scored:
        if len(result.selected) >= config.max_operations:
            result.rejected.append(candidate)
            continue
        if result.area_used_kgates + area > config.area_budget_kgates:
            result.rejected.append(candidate)
            continue
        if result.opcode_points_used + points > config.opcode_budget:
            result.rejected.append(candidate)
            continue
        result.selected.append(candidate)
        result.area_used_kgates += area
        result.opcode_points_used += points
        result.estimated_cycles_saved += benefit

    filter_overlapping_occurrences(result.selected)
    # Recompute the benefit after overlap filtering.
    result.estimated_cycles_saved = sum(
        c.estimated_benefit(machine) for c in result.selected
    )
    return result
