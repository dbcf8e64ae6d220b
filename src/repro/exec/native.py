"""Native execution engine: generated C compiled on the fly via ctypes.

The third functional engine (``engine="native"``).  Each module is
rendered to C by :mod:`repro.exec.nativegen`, compiled into a shared
object by a codepy-style :class:`NativeToolchain` (compiler probed once,
cache keys derived from the compiler ABI and the module's structural
fingerprint), loaded with :mod:`ctypes`, and driven by
:class:`NativeSimulator` — a drop-in for :class:`CompiledSimulator` that
produces bit-identical return values, memory write-backs and execution
profiles on successful runs.  CUSTOM ops are compiled into the unit as
their pattern's base operations, so a run of a customized module never
leaves C; the module fingerprint hashes every op's registered pattern,
so a ``.so`` is keyed by the semantics it was rendered with.

Build artifacts flow through the content-addressed
:class:`~repro.pipeline.ArtifactStore` under the ``"native"``
stage, so a service's shared :class:`DiskArtifactStore` lets every worker
reuse one compile.  Failures are *quarantined* by cache key: a module
whose render or compile fails once is never retried in this process, and
a stored ``.so`` that fails to load is recompiled from source exactly
once (replacing the bad artifact) before the key is quarantined.

When no C compiler is available — or a module is unsupported —
:func:`repro.exec.make_functional_simulator` falls back to the
threaded-code engine with a single process-wide :class:`RuntimeWarning`.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..ir import Module
from ..pipeline.fingerprints import NATIVE_SCHEMA, native_fingerprint
from ..sim.functional import (
    CALL_DEPTH_MESSAGE, MAX_CALL_DEPTH, SimulationError,
)
from ..sim.memory import MemoryError_
from .cache import module_fingerprint
from .engine import CompiledSimulator
from .nativegen import (
    RENDER_SCHEMA, RenderedProgram, TRAP_BAD_CALL, TRAP_DEPTH, TRAP_DIV0,
    TRAP_FDIV0, TRAP_FELL_OFF, TRAP_OOB, TRAP_OOM, TRAP_REM0, TRAP_STEPS,
    UnsupportedNativeModule, render_c_program,
)

#: artifact-store stage name of shared-object bytes.
NATIVE_STAGE = "native"

#: environment override for the compiler ("none"/"off"/"0"/"disabled"
#: force the no-compiler fallback path; anything else is the command).
CC_ENV = "REPRO_NATIVE_CC"

_CC_DISABLED = {"", "none", "off", "0", "disabled"}

# -O0: served inputs are short, so compile time dominates.  A unit costs
# about 23 ms to build at -O0 against 42 ms at -O2, close to the 17 ms an
# empty unit costs (cc1 start-up, as, ld); the run itself is a fraction
# of a millisecond at every level.
_BASE_FLAGS = ("-O0", "-fPIC", "-shared", "-nostdlib", "-fwrapv",
               "-fno-strict-aliasing")


class NativeCompileError(Exception):
    """The C compiler rejected generated source (or died)."""


class NativeUnavailableError(Exception):
    """Native execution cannot serve this module; fall back to compiled."""


# ----------------------------------------------------------------------
# ctypes ABI mirrored from nativegen's _PRELUDE.
# ----------------------------------------------------------------------

class _Ctx(ctypes.Structure):
    _fields_ = [
        ("mem", ctypes.POINTER(ctypes.c_uint8)),
        ("mem_size", ctypes.c_int64),
        ("next_free", ctypes.c_int64),
        ("steps", ctypes.c_int64),
        ("max_steps", ctypes.c_int64),
        ("taken", ctypes.c_int64),
        ("visits", ctypes.POINTER(ctypes.c_int64)),
        ("fault_a", ctypes.c_int64),
        ("fault_b", ctypes.c_int64),
        ("depth", ctypes.c_int64),
        ("max_depth", ctypes.c_int64),
        ("status", ctypes.c_int32),
        ("ret_flag", ctypes.c_int32),
    ]


# ----------------------------------------------------------------------
# Toolchain.
# ----------------------------------------------------------------------

class NativeToolchain:
    """Probes for a C compiler and builds shared objects from source.

    codepy-style contract: :meth:`get_version` identifies the compiler,
    :meth:`abi_id` is a stable digest of everything that affects binary
    compatibility (compiler, version, flags, platform, renderer schema),
    and :meth:`compile` turns C source into ``.so`` bytes, raising
    :class:`NativeCompileError` on failure.

    The default flags build at ``-O0``: a served request compiles its
    unit cold and runs it on short inputs, so the compile dominates its
    latency and the optimizer's start-up is not repaid by faster code.
    """

    def __init__(self, cc: Optional[str] = None,
                 flags: Tuple[str, ...] = _BASE_FLAGS) -> None:
        self.flags = tuple(flags)
        self.cc: Optional[str] = None
        self._version: Optional[str] = None
        if cc is None:
            cc = os.environ.get(CC_ENV)
        if cc is not None and cc.strip().lower() in _CC_DISABLED:
            return  # explicitly disabled: stay unavailable
        candidates = [cc] if cc else ["cc", "gcc", "clang"]
        for candidate in candidates:
            resolved = shutil.which(candidate)
            if resolved is None:
                continue
            version = self._probe(resolved)
            if version is not None:
                self.cc = resolved
                self._version = version
                break

    @staticmethod
    def _probe(cc: str) -> Optional[str]:
        try:
            proc = subprocess.run([cc, "--version"], capture_output=True,
                                  text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        if proc.returncode != 0 or not proc.stdout:
            return None
        return proc.stdout.splitlines()[0].strip()

    @property
    def available(self) -> bool:
        return self.cc is not None

    def get_version(self) -> str:
        """First line of ``cc --version`` (raises if unavailable)."""
        if self._version is None:
            raise NativeCompileError("no C compiler available")
        return self._version

    def abi_id(self) -> str:
        """Stable digest of everything affecting binary compatibility."""
        import hashlib

        parts = (self.cc or "none", self._version or "none",
                 " ".join(self.flags), sys.platform,
                 f"py{sys.version_info[0]}.{sys.version_info[1]}",
                 f"render{RENDER_SCHEMA}", f"native{NATIVE_SCHEMA}")
        return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()[:16]

    def compile(self, source: str) -> bytes:
        """Compile C ``source`` to shared-object bytes."""
        if not self.available:
            raise NativeCompileError("no C compiler available")
        with tempfile.TemporaryDirectory(prefix="repro-native-") as tmp:
            src = os.path.join(tmp, "module.c")
            out = os.path.join(tmp, "module.so")
            with open(src, "w") as handle:
                handle.write(source)
            cmd = [self.cc, *self.flags, "-o", out, src]
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=120)
            except (OSError, subprocess.SubprocessError) as exc:
                raise NativeCompileError(f"compiler invocation failed: {exc}")
            if proc.returncode != 0:
                raise NativeCompileError(
                    f"cc exited {proc.returncode}:\n{proc.stderr[-2000:]}")
            with open(out, "rb") as handle:
                return handle.read()


_TOOLCHAIN: Optional[NativeToolchain] = None
_TOOLCHAIN_LOCK = threading.Lock()


def global_native_toolchain() -> NativeToolchain:
    """The process-wide toolchain (probed on first use / at engine import)."""
    global _TOOLCHAIN
    with _TOOLCHAIN_LOCK:
        if _TOOLCHAIN is None:
            _TOOLCHAIN = NativeToolchain()
        return _TOOLCHAIN


def reset_native_toolchain() -> None:
    """Drop the probed toolchain so the next use re-probes (tests)."""
    global _TOOLCHAIN
    with _TOOLCHAIN_LOCK:
        _TOOLCHAIN = None


def native_available() -> bool:
    """True when a working C compiler was found."""
    return global_native_toolchain().available


# ----------------------------------------------------------------------
# Compiled-library cache.
# ----------------------------------------------------------------------

@dataclass
class NativeCacheStats:
    """Counters of one :class:`NativeCodeCache`."""

    hits: int = 0
    misses: int = 0
    builds: int = 0
    store_hits: int = 0
    compile_errors: int = 0
    unsupported: int = 0
    quarantined: int = 0
    evictions: int = 0
    unloads: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "builds": self.builds, "store_hits": self.store_hits,
                "compile_errors": self.compile_errors,
                "unsupported": self.unsupported,
                "quarantined": self.quarantined,
                "evictions": self.evictions, "unloads": self.unloads}


class NativeProgram:
    """One loaded shared object plus its render metadata."""

    __slots__ = ("key", "path", "lib", "rendered", "_runners")

    def __init__(self, key: str, path: str, lib: ctypes.CDLL,
                 rendered: RenderedProgram) -> None:
        self.key = key
        self.path = path
        self.lib = lib
        self.rendered = rendered
        self._runners: Dict[int, object] = {}

    def runner(self, index: int):
        """The ``repro_run_<index>`` entry point, argtypes configured."""
        runner = self._runners.get(index)
        if runner is None:
            runner = getattr(self.lib, f"repro_run_{index}")
            runner.restype = ctypes.c_int64
            runner.argtypes = [ctypes.POINTER(_Ctx),
                               ctypes.POINTER(ctypes.c_int64),
                               ctypes.POINTER(ctypes.c_double),
                               ctypes.POINTER(ctypes.c_double)]
            self._runners[index] = runner
        return runner


def _dlclose(lib: ctypes.CDLL) -> None:
    import _ctypes

    try:
        _ctypes.dlclose(lib._handle)
    except OSError:  # pragma: no cover - platform quirk, never fatal
        pass


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


class NativeCodeCache:
    """LRU of loaded native programs, with store-backed ``.so`` sharing.

    Keys are :func:`~repro.pipeline.fingerprints.native_fingerprint`
    digests (module structure × toolchain ABI).  Keys whose render,
    compile or load failed are *quarantined*: subsequent requests return
    ``None`` immediately (the engine falls back to threaded code) and the
    bad artifact is never re-loaded.

    The ``.so`` bytes live in the artifact store (stage ``"native"``),
    but the loaded programs keep their own LRU: they own ``dlopen``
    handles and files, which a store eviction could not unload.
    ``clear()`` / eviction ``dlclose`` the shared objects and delete
    their files, so callers must not clear while :class:`NativeSimulator`
    instances built from the evicted programs are still in use (a
    cleared translation store has no such hazard: live simulators keep
    their translation objects).  A ``lib_dir``
    the cache made itself is removed by ``clear()`` (and when the cache
    is collected or the process exits); a caller-supplied one is left in
    place, emptied of the cache's files.
    """

    def __init__(self, capacity: Optional[int] = 64,
                 toolchain: Optional[NativeToolchain] = None,
                 lib_dir: Optional[str] = None) -> None:
        self.capacity = capacity
        self._toolchain = toolchain
        self.stats = NativeCacheStats()
        self.last_record = None  # StageRecord of the latest store round-trip
        self._entries: "OrderedDict[str, NativeProgram]" = OrderedDict()
        self._quarantine: Dict[str, str] = {}
        self._lib_dir = lib_dir
        #: removes the lib_dir this cache made itself (None: caller's dir).
        self._lib_dir_finalizer: Optional[weakref.finalize] = None
        self._lock = threading.RLock()

    @property
    def toolchain(self) -> NativeToolchain:
        return (self._toolchain if self._toolchain is not None
                else global_native_toolchain())

    @property
    def lib_dir(self) -> str:
        if self._lib_dir is None:
            self._lib_dir = tempfile.mkdtemp(prefix="repro-native-libs-")
            self._lib_dir_finalizer = weakref.finalize(
                self, shutil.rmtree, self._lib_dir, ignore_errors=True)
        return self._lib_dir

    # ------------------------------------------------------------------
    def key_for(self, module: Module) -> str:
        return native_fingerprint(module_fingerprint(module),
                                  self.toolchain.abi_id())

    def quarantine_reason(self, key: str) -> Optional[str]:
        return self._quarantine.get(key)

    def _quarantine_key(self, key: str, reason: str) -> None:
        self._quarantine[key] = reason
        self.stats.quarantined += 1

    # ------------------------------------------------------------------
    def get_or_compile(self, module: Module,
                       store=None) -> Optional[NativeProgram]:
        """The loaded native program for ``module``, or ``None``.

        ``None`` means "use the fallback": no compiler, unsupported
        module, or a quarantined key.  ``store`` (any
        :class:`SupportsArtifactStore`) shares ``.so`` bytes across
        processes under the ``"native"`` stage.
        """
        if not self.toolchain.available:
            return None
        with self._lock:
            self.last_record = None
            key = self.key_for(module)
            if key in self._quarantine:
                return None
            program = self._entries.get(key)
            if program is not None:
                self.stats.hits += 1
                self._entries.move_to_end(key)
                return program
            self.stats.misses += 1

            try:
                rendered = render_c_program(module)
            except UnsupportedNativeModule as exc:
                self.stats.unsupported += 1
                self._quarantine_key(key, f"unsupported: {exc}")
                return None

            try:
                so_bytes, from_store = self._obtain_bytes(
                    module, rendered, key, store)
            except NativeCompileError as exc:
                self.stats.compile_errors += 1
                self._quarantine_key(key, f"compile error: {exc}")
                return None

            program = self._load(key, rendered, so_bytes, from_store,
                                 store)
            if program is None:
                return None
            self._entries[key] = program
            if (self.capacity is not None
                    and len(self._entries) > self.capacity):
                _evicted_key, evicted = self._entries.popitem(last=False)
                self._unload(evicted)
                self.stats.evictions += 1
            return program

    def _obtain_bytes(self, module: Module, rendered: RenderedProgram,
                      key: str, store) -> Tuple[bytes, bool]:
        """(so_bytes, came_from_store) — compiling through the store stage."""
        if store is not None:
            from ..pipeline.compile import NativeStage

            stage = NativeStage(toolchain=self.toolchain,
                                rendered=rendered, key=key)
            payload, record = stage.run(store, module)
            self.last_record = record
            if record.hit:
                self.stats.store_hits += 1
            else:
                self.stats.builds += 1
            return payload, record.hit
        self.stats.builds += 1
        from ..obs import global_tracer

        with global_tracer().span("engine.compile", key=key[:16]):
            return self.toolchain.compile(rendered.source), False

    def _load(self, key: str, rendered: RenderedProgram, so_bytes: bytes,
              from_store: bool, store) -> Optional[NativeProgram]:
        path = os.path.join(self.lib_dir, f"{key}.so")
        try:
            lib = self._materialize(path, so_bytes)
        except OSError as exc:
            if from_store:
                # A corrupt stored artifact: rebuild from source exactly
                # once, replacing the bad store entry, then give up.
                try:
                    so_bytes = self.toolchain.compile(rendered.source)
                    self.stats.builds += 1
                    if store is not None:
                        store.put(NATIVE_STAGE, key, so_bytes)
                    lib = self._materialize(path, so_bytes)
                except (NativeCompileError, OSError) as exc2:
                    self._quarantine_key(key, f"load failed: {exc2}")
                    return None
            else:
                self._quarantine_key(key, f"load failed: {exc}")
                return None
        return NativeProgram(key, path, lib, rendered)

    @staticmethod
    def _materialize(path: str, so_bytes: bytes) -> ctypes.CDLL:
        """Write and load ``path``; the file exists only while loaded."""
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as handle:
                handle.write(so_bytes)
            os.replace(tmp, path)
            return ctypes.CDLL(path)
        except OSError:
            _unlink(tmp)
            _unlink(path)
            raise

    def _unload(self, program: NativeProgram) -> None:
        _dlclose(program.lib)
        _unlink(program.path)
        self.stats.unloads += 1

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def clear(self, forget_quarantine: bool = False) -> None:
        """Unload every library and delete its file (see the class
        docstring's caveat); remove the lib_dir if the cache made it."""
        with self._lock:
            for program in self._entries.values():
                self._unload(program)
            self._entries.clear()
            if self._lib_dir_finalizer is not None:
                self._lib_dir_finalizer()
                self._lib_dir_finalizer = None
                self._lib_dir = None
            if forget_quarantine:
                self._quarantine.clear()


_GLOBAL_NATIVE_CACHE = NativeCodeCache()


def global_native_cache() -> NativeCodeCache:
    """The process-wide native code cache."""
    return _GLOBAL_NATIVE_CACHE


def reset_global_native_cache() -> None:
    """Unload and forget every native program (tests and benchmarks)."""
    _GLOBAL_NATIVE_CACHE.clear(forget_quarantine=True)
    _GLOBAL_NATIVE_CACHE.stats = NativeCacheStats()


# ----------------------------------------------------------------------
# The simulator.
# ----------------------------------------------------------------------

_U64_MASK = (1 << 64) - 1


def _to_i64(value: int) -> int:
    """Two's-complement int64 view of an arbitrary Python int."""
    value &= _U64_MASK
    return value - (1 << 64) if value >= (1 << 63) else value


class NativeSimulator(CompiledSimulator):
    """Drop-in :class:`CompiledSimulator` that runs generated C.

    Inherits the argument lowering, memory image, and profile-flush
    machinery; only the execution core (:meth:`_call`) changes — one
    ctypes call into ``repro_run_<fn>`` replaces the threaded-code loop,
    after which visit counters, the allocator cursor, steps and taken
    branches are synced back so profiles stay bit-identical.

    Raises :class:`NativeUnavailableError` from the constructor when no
    native program can be produced (no compiler, unsupported module,
    quarantined key); :func:`make_functional_simulator` turns that into
    the documented fallback.
    """

    def __init__(self, module: Module, memory_size: int = 1 << 20,
                 max_steps: int = 50_000_000,
                 native_cache: Optional[NativeCodeCache] = None,
                 store=None,
                 program: Optional[NativeProgram] = None) -> None:
        super().__init__(module, memory_size=memory_size,
                         max_steps=max_steps, store=store)
        self.native_cache = (native_cache if native_cache is not None
                             else global_native_cache())
        if program is None:
            if not self.native_cache.toolchain.available:
                raise NativeUnavailableError("no C compiler found")
            program = self.native_cache.get_or_compile(module, store=store)
            if program is None:
                reason = self.native_cache.quarantine_reason(
                    self.native_cache.key_for(module))
                raise NativeUnavailableError(
                    reason or "module not available natively")
        self.native = program
        # Sanity: the renderer and the translator must agree on layout.
        for name, translated in self.program.functions.items():
            meta = program.rendered.functions.get(name)
            if meta is None or meta.n_blocks != len(translated.blocks):
                raise NativeUnavailableError(
                    f"native/translated layout mismatch in {name}")

    # ------------------------------------------------------------------
    def _call(self, function, args):
        rendered = self.native.rendered
        meta = rendered.functions[function.name]
        n = len(args)
        iargs = (ctypes.c_int64 * max(1, n))()
        fargs = (ctypes.c_double * max(1, n))()
        for j, (klass, value) in enumerate(zip(meta.arg_classes, args)):
            if klass == "f":
                fargs[j] = float(value)
            else:
                iargs[j] = _to_i64(int(value))

        visits = (ctypes.c_int64 * max(1, rendered.total_blocks))()
        membuf = (ctypes.c_uint8 * self.memory.size).from_buffer(
            self.memory.data)
        ctx = _Ctx()
        # Cast bare addresses: casting a ctypes array itself stores it in
        # a dict it shares with the result, a reference cycle that would
        # keep the bytearray export alive until the next GC pass.
        ctx.mem = ctypes.cast(ctypes.addressof(membuf),
                              ctypes.POINTER(ctypes.c_uint8))
        ctx.mem_size = self.memory.size
        ctx.next_free = self.memory._next_free
        ctx.steps = self._steps
        ctx.max_steps = self.max_steps
        ctx.taken = 0
        ctx.visits = ctypes.cast(ctypes.addressof(visits),
                                 ctypes.POINTER(ctypes.c_int64))
        ctx.fault_a = 0
        ctx.fault_b = 0
        ctx.depth = 1  # the entry function's own activation
        ctx.max_depth = MAX_CALL_DEPTH
        ctx.status = 0
        ctx.ret_flag = 0

        runner = self.native.runner(meta.index)
        fret = ctypes.c_double(0.0)
        try:
            rv = runner(ctypes.byref(ctx), iargs, fargs, ctypes.byref(fret))
        finally:
            # Release the buffer export before anything can resize/replace
            # the backing bytearray.
            del membuf
            self.memory._next_free = ctx.next_free
            self._steps = ctx.steps
            self.profile.taken_branches += ctx.taken
            self._flush_all(visits)

        if ctx.status != 0:
            self._raise_trap(ctx)
        if ctx.ret_flag == 0:
            return None
        return fret.value if meta.return_class == "f" else int(rv)

    def _flush_all(self, visits) -> None:
        """Fold the flat C visit counters through the translator deltas."""
        rendered = self.native.rendered
        for name, translated in self.program.functions.items():
            meta = rendered.functions[name]
            counts = visits[meta.block_base:meta.block_base + meta.n_blocks]
            if any(counts):
                self._flush(translated, counts)

    def _raise_trap(self, ctx: _Ctx) -> None:
        status = ctx.status
        if status == TRAP_STEPS:
            raise SimulationError("maximum step count exceeded")
        if status == TRAP_DIV0:
            raise SimulationError("integer division by zero")
        if status == TRAP_REM0:
            raise SimulationError("integer remainder by zero")
        if status == TRAP_FDIV0:
            raise SimulationError("floating division by zero")
        if status == TRAP_OOB:
            raise MemoryError_(
                f"access of {ctx.fault_a} bytes at {ctx.fault_b} "
                "is out of range")
        if status == TRAP_OOM:
            raise MemoryError_(
                f"out of simulated memory: need {ctx.fault_a} bytes "
                f"at {ctx.fault_b}")
        if status == TRAP_FELL_OFF:
            fn, block = self.native.rendered.flat_blocks[ctx.fault_a]
            raise SimulationError(
                f"fell off the end of block {block} in {fn}")
        if status == TRAP_DEPTH:
            raise SimulationError(CALL_DEPTH_MESSAGE)
        if status == TRAP_BAD_CALL:
            name = self.native.rendered.bad_calls[ctx.fault_a]
            raise SimulationError(
                f"no function named {name} in module {self.module.name}")
        raise SimulationError(f"native engine trap {status}")
