"""Automated instruction-set customization (the paper's core contribution).

The flow is: profile -> enumerate convex dataflow cuts -> merge by
canonical pattern signature -> select fused operations under area and
opcode-space budgets -> register them in the process-wide extension
library -> rewrite the program(s) -> extend the machine description.
"""

from .patterns import (
    DELAYS_PER_STAGE, HW_AREA_KGATES, HW_DELAY, Pattern, PatternError,
    PatternNode, expand_pattern, pattern_from_cut,
)
from .library import (
    ExtensionEntry, ExtensionLibrary, global_extension_library,
    reset_global_library,
)
from .identification import (
    Candidate, EnumerationConfig, Occurrence, enumerate_block_cuts,
    filter_overlapping_occurrences, identify_candidates,
)
from .selection import (
    SelectionConfig, SelectionResult, select, select_greedy, select_knapsack,
)
from .rewrite import (
    RewriteError, apply_selection, custom_op_usage, rewrite_with_library,
)
from .customizer import (
    CustomizationReport, CustomizationResult, IsaCustomizer, customize_isa,
)

__all__ = [
    "DELAYS_PER_STAGE", "HW_AREA_KGATES", "HW_DELAY", "Pattern",
    "PatternError", "PatternNode", "expand_pattern", "pattern_from_cut",
    "ExtensionEntry", "ExtensionLibrary", "global_extension_library",
    "reset_global_library",
    "Candidate", "EnumerationConfig", "Occurrence", "enumerate_block_cuts",
    "filter_overlapping_occurrences", "identify_candidates",
    "SelectionConfig", "SelectionResult", "select", "select_greedy",
    "select_knapsack",
    "RewriteError", "apply_selection", "custom_op_usage",
    "rewrite_with_library",
    "CustomizationReport", "CustomizationResult", "IsaCustomizer",
    "customize_isa",
]
