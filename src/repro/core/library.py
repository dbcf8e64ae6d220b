"""The extension library: named custom operations and their semantics.

The library is the hand-off point between the customizer (which invents
operations), the machine description (which records their cost), the
compiler back end (which schedules them), and the simulators (which need
their semantics to execute them).  A process-wide library instance is used
so that simulators can resolve custom-op names without threading the
library through every call; tests reset it between cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from ..arch.machine import CustomOperation
from .patterns import Pattern


@dataclass
class ExtensionEntry:
    """One registered ISA extension: the pattern plus its machine-level cost."""

    pattern: Pattern
    operation: CustomOperation

    @property
    def name(self) -> str:
        return self.operation.name


class ExtensionLibrary:
    """A registry of custom operations keyed by name and by signature."""

    def __init__(self) -> None:
        self._by_name: Dict[str, ExtensionEntry] = {}
        self._by_signature: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Registration.
    # ------------------------------------------------------------------
    def register(self, pattern: Pattern,
                 operation: Optional[CustomOperation] = None) -> ExtensionEntry:
        """Register a pattern, deriving its machine-level cost if not given.

        Re-registering a name with the same signature replaces the entry;
        binding a name that is taken to a different signature raises
        :class:`ValueError`, since simulators resolve custom ops by name.
        """
        name = operation.name if operation is not None else pattern.name
        existing = self._by_name.get(name)
        if (existing is not None
                and existing.pattern.signature() != pattern.signature()):
            raise ValueError(
                f"custom op {name} is already bound to "
                f"{existing.pattern.signature()}, not {pattern.signature()}")
        if operation is None:
            operation = CustomOperation(
                name=pattern.name,
                num_inputs=pattern.num_inputs,
                num_outputs=pattern.num_outputs,
                latency=pattern.hardware_latency(),
                area_kgates=pattern.hardware_area_kgates(),
                fused_ops=pattern.size,
            )
        entry = ExtensionEntry(pattern=pattern, operation=operation)
        self._by_name[operation.name] = entry
        self._by_signature[pattern.signature()] = operation.name
        return entry

    def register_all(self, patterns: List[Pattern]) -> List[ExtensionEntry]:
        return [self.register(p) for p in patterns]

    def remove(self, name: str) -> None:
        entry = self._by_name.pop(name, None)
        if entry is not None:
            self._by_signature.pop(entry.pattern.signature(), None)

    def clear(self) -> None:
        self._by_name.clear()
        self._by_signature.clear()

    # ------------------------------------------------------------------
    # Lookup.
    # ------------------------------------------------------------------
    def lookup(self, name: str) -> Optional[Pattern]:
        entry = self._by_name.get(name)
        return entry.pattern if entry is not None else None

    def entry(self, name: str) -> Optional[ExtensionEntry]:
        return self._by_name.get(name)

    def find_by_signature(self, signature: str) -> Optional[ExtensionEntry]:
        name = self._by_signature.get(signature)
        return self._by_name.get(name) if name is not None else None

    def names(self) -> List[str]:
        return sorted(self._by_name)

    def __len__(self) -> int:
        return len(self._by_name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[ExtensionEntry]:
        return iter(self._by_name.values())

    def total_area_kgates(self) -> float:
        return sum(entry.operation.area_kgates for entry in self)


#: Process-wide library used by the simulators to resolve custom-op names.
_GLOBAL_LIBRARY = ExtensionLibrary()


def global_extension_library() -> ExtensionLibrary:
    """Return the process-wide extension library."""
    return _GLOBAL_LIBRARY


def reset_global_library() -> None:
    """Clear the process-wide library (used by tests and the explorer)."""
    _GLOBAL_LIBRARY.clear()
