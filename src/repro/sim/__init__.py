"""Simulators: functional reference execution and cycle-level VLIW timing."""

from .memory import Memory, MemoryError_, ProgramImage
from .cache import Cache, CacheStatistics, make_cache
from .functional import (
    MAX_CALL_DEPTH, ExecutionProfile, FunctionalSimulator, SimulationError,
)
from .cycle import CycleSimulator, CycleStatistics, SimulationResult

__all__ = [
    "Memory", "MemoryError_", "ProgramImage",
    "Cache", "CacheStatistics", "make_cache",
    "MAX_CALL_DEPTH", "ExecutionProfile", "FunctionalSimulator",
    "SimulationError",
    "CycleSimulator", "CycleStatistics", "SimulationResult",
]
