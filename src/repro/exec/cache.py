"""Content-addressed code cache for translated modules.

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
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, Optional

from ..ir import (
    Argument, Constant, GlobalVariable, Module, Opcode, UndefValue,
    VirtualRegister,
)
from ..obs import global_tracer
from ..obs.metrics import StageStats
from .translator import TranslatedProgram, translate_module


def module_fingerprint(module: Module, library=None) -> str:
    """A structural content hash of ``module``.

    Two modules have equal fingerprints iff they are clones of each other
    (same functions, blocks, instructions, operands, globals) with the same
    custom-op semantics visible in ``library`` (the process-wide extension
    library by default).
    """
    if library is None:
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


#: artifact-store stage name under which a bound CodeCache keeps its
#: counters (so ``pipeline.stats()`` shows threaded-code cache pressure
#: next to the staged-compilation stages).
CODE_STAGE = "exec.code"


class CodeCacheStats:
    """Hit/miss counters of one :class:`CodeCache`.

    A view over a :class:`~repro.obs.metrics.StageStats` (itself a view
    over registry counters): an unbound cache counts into a private
    registry, a store-bound cache counts *directly* into the store's
    ``exec.code`` stage — one counter, no mirror to drift.
    """

    _FIELDS = ("hits", "misses", "evictions")

    __slots__ = ("_backing",)

    def __init__(self, backing: Optional[StageStats] = None) -> None:
        object.__setattr__(self, "_backing",
                           backing if backing is not None
                           else StageStats(stage=CODE_STAGE))

    def __getattr__(self, name: str):
        if name in CodeCacheStats._FIELDS:
            return getattr(object.__getattribute__(self, "_backing"), name)
        raise AttributeError(name)

    def __setattr__(self, name: str, value) -> None:
        if name in CodeCacheStats._FIELDS:
            setattr(object.__getattribute__(self, "_backing"), name, value)
            return
        object.__setattr__(self, name, value)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return 0.0 if self.lookups == 0 else self.hits / self.lookups

    def as_dict(self) -> Dict[str, object]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": round(self.hit_rate, 4)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CodeCacheStats({self.as_dict()!r})"


class CodeCache:
    """An LRU cache mapping module fingerprints to translated programs.

    When bound to an artifact store (``store=`` or :meth:`bind_store`),
    counters live on the owning store's ``exec.code`` stage stats — one
    source of truth shared by ``cache.stats`` and ``store.stats_dict()``,
    so the eviction counts that used to be mirrored (and could drift)
    are now literally the same number.
    """

    def __init__(self, capacity: Optional[int] = 256, store=None) -> None:
        self.capacity = capacity
        self.stats = CodeCacheStats()
        self.store = None
        self._entries: "OrderedDict[str, TranslatedProgram]" = OrderedDict()
        self._lock = threading.Lock()
        if store is not None:
            self.bind_store(store)

    def bind_store(self, store) -> None:
        """Count into ``store``'s ``exec.code`` stage stats from now on.

        Counts accumulated while unbound migrate into the store's stage
        so nothing is lost; the existing ``stats`` view object is
        rebound in place, keeping held references valid.
        """
        self.store = store
        if store is None:
            return
        target = store.stats(CODE_STAGE)
        old = object.__getattribute__(self.stats, "_backing")
        if old is target:
            return
        with self._lock:
            for name in CodeCacheStats._FIELDS:
                count = getattr(old, name)
                if count:
                    setattr(target, name, getattr(target, name) + count)
            object.__setattr__(self.stats, "_backing", target)

    def get_or_translate(self, module: Module, library=None) -> TranslatedProgram:
        """Return the cached translation of ``module``, translating on miss."""
        fingerprint = module_fingerprint(module, library=library)
        with self._lock:
            program = self._entries.get(fingerprint)
            if program is not None:
                self.stats.hits += 1
                self._entries.move_to_end(fingerprint)
                return program
            self.stats.misses += 1
        # Translate outside the lock: translation is pure and an occasional
        # duplicate translation is cheaper than serializing translators.
        with global_tracer().span("engine.translate",
                                  fingerprint=fingerprint[:16]):
            program = translate_module(module, library=library)
        program.fingerprint = fingerprint
        with self._lock:
            self._entries[fingerprint] = program
            self._entries.move_to_end(fingerprint)
            if self.capacity is not None and len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return program

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def clear(self) -> None:
        """Drop entries and zero the counters (in place — views survive)."""
        with self._lock:
            self._entries.clear()
            for name in CodeCacheStats._FIELDS:
                setattr(self.stats, name, 0)


#: process-wide cache used by CompiledSimulator unless one is supplied.
_GLOBAL_CODE_CACHE = CodeCache()


def global_code_cache() -> CodeCache:
    """Return the process-wide code cache."""
    return _GLOBAL_CODE_CACHE


def reset_global_code_cache() -> None:
    """Clear the process-wide code cache (used by tests and benchmarks)."""
    _GLOBAL_CODE_CACHE.clear()
