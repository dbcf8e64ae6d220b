"""Threaded-code translations as a stage of the artifact store.

Design-space exploration re-compiles and re-simulates structurally
identical IR over and over (every candidate machine starts from a clone of
the same optimized kernel module).  Fingerprinting the module *structure*
— rather than keying on object identity — lets every clone share one
threaded-code translation: the second and later evaluations of an
identical module skip translation entirely.

The fingerprint is a SHA-256 over a canonical rendering of the module:
functions, blocks and instructions in order, with virtual-register ids
normalized to per-function sequence numbers (clones allocate fresh global
ids, so raw ids would never match).  CUSTOM operations additionally hash
the *signature* of the pattern currently bound to their name, so the same
IR under different registered semantics maps to different cache entries.

:class:`TranslationStage` stores translations under :data:`CODE_STAGE`
in the store a simulator is given (a session's store), or in one
process-wide store when it is given none; its hit, miss and eviction
counters are that store's ``exec.code`` stage stats.
"""

from __future__ import annotations

import hashlib
from typing import Dict

from ..ir import (
    Argument, Constant, GlobalVariable, Module, UndefValue, VirtualRegister,
)
from ..pipeline.stage import Stage
from ..pipeline.store import ArtifactStore
from .translator import TranslatedProgram, translate_module


def module_fingerprint(module: Module) -> str:
    """A structural content hash of ``module``.

    Two modules have equal fingerprints iff they are clones of each other
    (same functions, blocks, instructions, operands, globals) with the same
    custom-op semantics visible in the process-wide extension library.
    """
    from ..core.library import global_extension_library

    library = global_extension_library()

    parts = []

    for name, gvar in module.globals.items():
        init = gvar.initializer
        if isinstance(init, (list, tuple)):
            init_text = ",".join(str(v) for v in init)
        else:
            init_text = str(init)
        parts.append(f"g {name} {gvar.value_type} [{init_text}]")

    for function in module.functions.values():
        normalized: Dict[int, int] = {}

        def norm(register) -> int:
            # Per-function sequence number, assigned on first encounter.
            return normalized.setdefault(register.id, len(normalized))

        params = ",".join(str(a.type) for a in function.arguments)
        for argument in function.arguments:
            norm(argument)
        parts.append(f"f {function.name} {function.return_type} ({params})")

        for block in function.blocks:
            parts.append(f"b {block.name}")
            for inst in block.instructions:
                tokens = [inst.opcode.value]
                if inst.dest is not None:
                    tokens.append(f"d{norm(inst.dest)}:{inst.dest.type}")
                for operand in inst.operands:
                    if isinstance(operand, Constant):
                        tokens.append(f"c{operand.value!r}:{operand.type}")
                    elif isinstance(operand, GlobalVariable):
                        tokens.append(f"g{operand.name}")
                    elif isinstance(operand, UndefValue):
                        tokens.append("u")
                    elif isinstance(operand, (VirtualRegister, Argument)):
                        tokens.append(f"r{norm(operand)}")
                    else:  # pragma: no cover - defensive
                        tokens.append(repr(operand))
                if inst.targets:
                    tokens.append("->" + ",".join(t.name for t in inst.targets))
                if inst.callee:
                    tokens.append(f"@{inst.callee}")
                if inst.custom_op:
                    pattern = library.lookup(inst.custom_op)
                    signature = pattern.signature() if pattern is not None else "?"
                    tokens.append(f"x{inst.custom_op}={signature}")
                if inst.alloc_type is not None:
                    tokens.append(f"a{inst.alloc_type}")
                parts.append(" ".join(tokens))

    digest = hashlib.sha256("\n".join(parts).encode("utf-8"))
    return digest.hexdigest()


#: artifact-store stage name of threaded-code translations.
CODE_STAGE = "exec.code"


class TranslationStage(Stage):
    """IR module → threaded-code translation.

    Keyed by :func:`module_fingerprint`, so every clone of a module
    shares one translation.  The payload is immutable and handed out as
    is; its closures do not pickle, so the stage is memory-only and a
    :class:`~repro.service.DiskArtifactStore` never touches the disk for it.
    """

    name = CODE_STAGE
    memory_only = True

    def key(self, module: Module) -> str:
        return module_fingerprint(module)

    def build(self, module: Module) -> TranslatedProgram:
        return translate_module(module)


_TRANSLATION = TranslationStage()

#: translations of simulators built without a store.
_GLOBAL_CODE_STORE = ArtifactStore(capacity=256)


def translate(module: Module, store=None) -> TranslatedProgram:
    """The translation of ``module``, built on a miss in ``store``
    (default: the process-wide translation store)."""
    if store is None:
        store = _GLOBAL_CODE_STORE
    program, _record = _TRANSLATION.run(store, module)
    return program


def reset_global_code_cache() -> None:
    """Empty the process-wide translation store and zero its counters
    (tests and benchmarks start cold passes with it)."""
    _GLOBAL_CODE_STORE.clear()
