"""Product-development-cycle risk model (Barrier 5, §6).

Processor choices are bound ½–1½ years before first shipment, and the
software keeps changing in that window.  Customizing for the exact
application therefore risks customizing for the wrong thing; the paper's
answer (§6.1) is to tailor to an application *area* — keep the
customizations that the whole area shares, and keep enough general
horsepower for the parts that may change.

This module models that trade-off: given a probability that each kernel
of today's workload mix is still representative at shipment, it computes
the expected speedup of (a) a processor customized to the exact mix and
(b) a processor customized to the broader area, relative to the generic
baseline.  The crossover probability — below which area-tailoring wins —
is the quantitative form of §6.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class KernelOutcome:
    """Speedups one customization achieves on one kernel."""

    kernel: str
    #: speedup when the kernel is part of the customization target.
    speedup_if_targeted: float
    #: speedup when the kernel was *not* part of the target (generalization).
    speedup_if_untargeted: float = 1.0


@dataclass
class DevelopmentCycleModel:
    """Expected performance under workload uncertainty."""

    #: months between processor freeze and first shipment.
    freeze_to_ship_months: float = 12.0
    #: per-month probability that a given compute kernel is replaced.
    monthly_change_rate: float = 0.04

    def survival_probability(self) -> float:
        """Probability one kernel is unchanged at shipment."""
        return (1.0 - self.monthly_change_rate) ** self.freeze_to_ship_months

    def expected_speedup(self, outcomes: Sequence[KernelOutcome],
                         weights: Optional[Sequence[float]] = None,
                         survival: Optional[float] = None) -> float:
        """Expected weighted speedup across kernels under churn.

        A kernel that survives gets the targeted speedup; one that is
        replaced by a same-area variant gets the untargeted speedup (the
        customization generalizes only as far as the variant still matches
        the fused operations).
        """
        if not outcomes:
            return 1.0
        weights = list(weights) if weights is not None else [1.0] * len(outcomes)
        survival = self.survival_probability() if survival is None else survival
        total_weight = sum(weights)
        expected = 0.0
        for outcome, weight in zip(outcomes, weights):
            value = (survival * outcome.speedup_if_targeted
                     + (1.0 - survival) * outcome.speedup_if_untargeted)
            expected += weight * value
        return expected / total_weight

    def crossover_survival(self, exact: Sequence[KernelOutcome],
                           area: Sequence[KernelOutcome],
                           weights: Optional[Sequence[float]] = None,
                           resolution: int = 200) -> Optional[float]:
        """Survival probability below which area-tailoring beats exact-tailoring."""
        for step in range(resolution + 1):
            survival = step / resolution
            exact_speedup = self.expected_speedup(exact, weights, survival)
            area_speedup = self.expected_speedup(area, weights, survival)
            if area_speedup >= exact_speedup:
                # Area tailoring wins at and below this survival level; walk
                # up to find where exact tailoring takes over.
                continue
            return max(0.0, (step - 1) / resolution)
        return 1.0
