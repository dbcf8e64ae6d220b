"""Static binary translation between ISA-family members ("ISA drift").

Paper §2 argues that post-distribution techniques — object-code
translation, code caching, dynamic optimization — will make families of
mutually incompatible ISAs acceptable in practice.  This module implements
the static half of that machinery: a binary built for family member A is
re-targeted to member B by

1. recovering the operation stream (our binaries keep the operation-level
   structure, as real translators recover it by decoding),
2. *expanding* custom operations that B does not implement back into the
   primitive sequences recorded in the extension library,
3. optionally *re-optimizing* for B — re-matching B's own custom
   operations over the recovered code (the dynamic-optimizer path), and
4. re-scheduling and re-encoding for B's resource tables.

The translated program is real, runnable code for B (it executes on the
cycle simulator); the translation overhead model charges the one-time cost
of performing the translation itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set, Tuple

from ..arch.machine import MachineDescription
from ..backend.codegen import compile_module
from ..backend.mcode import CompiledModule
from ..core.identification import EnumerationConfig
from ..core.library import ExtensionLibrary, global_extension_library
from ..core.patterns import expand_pattern
from ..core.rewrite import rewrite_with_library
from ..ir import Module, Opcode


class TranslationError(Exception):
    """Raised when a binary cannot be re-targeted."""


@dataclass
class TranslationReport:
    """What the translator had to do to move a binary between members."""

    source_machine: str
    target_machine: str
    custom_ops_expanded: int = 0
    custom_ops_rematched: int = 0
    instructions_translated: int = 0
    #: modelled one-time cost of running the translator itself, in cycles
    #: on the target machine (decode + rebuild + re-schedule per operation).
    translation_overhead_cycles: int = 0
    reoptimized: bool = False


#: modelled translator cost per static operation (decode, dependence
#: rebuild, re-schedule, re-encode).  The value is deliberately coarse —
#: what matters for E4 is that static translation is a one-time cost that
#: amortises across runs (see :mod:`repro.drift.dynamic`).
TRANSLATION_CYCLES_PER_OP = 60
REOPTIMIZATION_CYCLES_PER_OP = 220


def expand_custom_ops(module: Module, library: ExtensionLibrary,
                      supported: Optional[Set[str]] = None) -> int:
    """Expand CUSTOM instructions not in ``supported`` back to primitives.

    Returns the number of custom-op sites expanded.  The expansion uses the
    pattern recorded in the library, so the result is semantically
    identical to the fused operation.
    """
    supported = supported or set()
    expanded = 0
    for function in module.functions.values():
        for block in function.blocks:
            changed = True
            while changed:
                changed = False
                for inst in block.instructions:
                    if inst.opcode is not Opcode.CUSTOM:
                        continue
                    if inst.custom_op in supported:
                        continue
                    pattern = library.lookup(inst.custom_op)
                    if pattern is None:
                        raise TranslationError(
                            f"no semantics registered for custom op {inst.custom_op}"
                        )
                    replacement = expand_pattern(pattern, inst.operands,
                                                 inst.dest)
                    block.replace(inst, replacement)
                    expanded += 1
                    changed = True
                    break
    return expanded


class BinaryTranslator:
    """Re-targets compiled programs between family members."""

    def __init__(self, library: Optional[ExtensionLibrary] = None) -> None:
        self.library = library if library is not None else global_extension_library()

    def translate(self, compiled: CompiledModule, target: MachineDescription,
                  reoptimize: bool = False,
                  enumeration: Optional[EnumerationConfig] = None
                  ) -> Tuple[CompiledModule, TranslationReport]:
        """Translate ``compiled`` (built for machine A) to run on ``target``.

        ``reoptimize`` enables the dynamic-optimizer path: after expansion,
        the translator re-matches the *target's* custom operations over the
        recovered code, recovering most of the customization benefit at a
        higher one-time cost.
        """
        if compiled.source is None:
            raise TranslationError("compiled module carries no recoverable code")
        source_machine = compiled.machine
        report = TranslationReport(source_machine=source_machine.name,
                                   target_machine=target.name,
                                   reoptimized=reoptimize)

        recovered = compiled.source.clone()
        report.instructions_translated = recovered.instruction_count()

        # Expand fused operations the target does not implement.
        supported = set(target.custom_ops)
        report.custom_ops_expanded = expand_custom_ops(
            recovered, self.library, supported
        )

        per_op_cost = TRANSLATION_CYCLES_PER_OP
        if reoptimize:
            per_op_cost = REOPTIMIZATION_CYCLES_PER_OP
            rematched = rewrite_with_library(
                recovered,
                self._library_for(target),
                enumeration or EnumerationConfig(max_outputs=1),
            )
            report.custom_ops_rematched = sum(rematched.values())

        report.translation_overhead_cycles = (
            per_op_cost * report.instructions_translated
        )

        translated, _compile_report = compile_module(recovered, target)
        return translated, report

    def _library_for(self, machine: MachineDescription) -> ExtensionLibrary:
        """A view of the library restricted to the machine's operations."""
        restricted = ExtensionLibrary()
        for name in machine.custom_ops:
            entry = self.library.entry(name)
            if entry is not None:
                restricted.register(entry.pattern, entry.operation)
        return restricted
