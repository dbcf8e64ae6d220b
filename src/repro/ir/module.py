"""Modules: the IR compilation unit (functions plus global variables)."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from .function import Function
from .types import Type
from .values import GlobalVariable


class Module:
    """A compilation unit: a set of functions and global variables.

    The module is the unit handed to the optimizer, the customizer and the
    back end, and the unit loaded by the simulators.
    """

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVariable] = {}

    # ------------------------------------------------------------------
    # Functions.
    # ------------------------------------------------------------------
    def add_function(self, function: Function) -> Function:
        """Register ``function`` in this module."""
        if function.name in self.functions:
            raise ValueError(f"duplicate function {function.name}")
        function.module = self
        self.functions[function.name] = function
        return function

    def get_function(self, name: str) -> Function:
        """Look a function up by name."""
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"no function named {name} in module {self.name}") from None

    def has_function(self, name: str) -> bool:
        return name in self.functions

    # ------------------------------------------------------------------
    # Globals.
    # ------------------------------------------------------------------
    def add_global(self, name: str, type_: Type, initializer=None) -> GlobalVariable:
        """Declare a global variable and return the value naming it."""
        if name in self.globals:
            raise ValueError(f"duplicate global {name}")
        gvar = GlobalVariable(name, type_, initializer)
        self.globals[name] = gvar
        return gvar

    def get_global(self, name: str) -> GlobalVariable:
        try:
            return self.globals[name]
        except KeyError:
            raise KeyError(f"no global named {name} in module {self.name}") from None

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def instruction_count(self) -> int:
        """Total static instruction count over all functions."""
        return sum(f.instruction_count() for f in self.functions.values())

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())

    def __contains__(self, name: str) -> bool:
        return name in self.functions

    def __str__(self) -> str:
        lines = [f"; module {self.name}"]
        for gvar in self.globals.values():
            lines.append(f"global {gvar.value_type} @{gvar.name}")
        for function in self.functions.values():
            lines.append("")
            lines.append(str(function))
        return "\n".join(lines)

    def clone(self) -> "Module":
        """Deep-copy this module.

        Cloning is used by the design-space explorer and the N×M test matrix
        so that per-architecture transformations (custom-op rewriting,
        unrolling decisions) never contaminate the pristine input IR.
        """
        from .clone import clone_module

        return clone_module(self)
