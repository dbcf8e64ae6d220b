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

The ``.so`` bytes are the ``"native"`` stage of the content-addressed
:class:`~repro.pipeline.ArtifactStore`, so a service's shared
:class:`DiskArtifactStore` lets every worker reuse one compile.  The
loaded program is the store's memory-only ``"exec.native"`` stage
(:func:`load_native`), in the caller's store or in the process-wide one
translations use.  A program owns its ``dlopen`` handle and file and
releases them when it is collected, so a store eviction or ``clear()``
never unloads code that a live simulator runs.  Failures are
*quarantined* by key: a module whose render, compile or load fails once
is never retried in this process; a stored ``.so`` that fails to load
is first recompiled from source exactly once (replacing the bad
artifact).

When no C compiler is available — or a module is unsupported —
:func:`repro.exec.make_functional_simulator` falls back to the
threaded-code engine with a single process-wide :class:`RuntimeWarning`.
"""

from __future__ import annotations

import atexit
import ctypes
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import weakref
from typing import Dict, Optional, Tuple

from ..ir import Module
from ..pipeline.fingerprints import NATIVE_SCHEMA, native_fingerprint
from ..pipeline.stage import Stage
from ..sim.functional import (
    CALL_DEPTH_MESSAGE, MAX_CALL_DEPTH, SimulationError,
)
from ..sim.memory import MemoryError_
from .cache import _GLOBAL_CODE_STORE, module_fingerprint
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
# Loaded programs: the ``exec.native`` stage of the artifact store.
# ----------------------------------------------------------------------

#: artifact-store stage name of loaded native programs.
PROGRAM_STAGE = "exec.native"

_LIB_DIR: Optional[str] = None


def _lib_dir() -> str:
    """The process-wide directory of loaded ``.so`` files (removed at exit)."""
    global _LIB_DIR
    if _LIB_DIR is None:
        _LIB_DIR = tempfile.mkdtemp(prefix="repro-native-libs-")
        atexit.register(shutil.rmtree, _LIB_DIR, ignore_errors=True)
    return _LIB_DIR


def _unload(lib: ctypes.CDLL, path: str) -> None:
    import _ctypes

    try:
        _ctypes.dlclose(lib._handle)
    except OSError:  # pragma: no cover - platform quirk, never fatal
        pass
    _unlink(path)


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


class NativeProgram:
    """One loaded shared object plus its render metadata.

    Loading writes ``so_bytes`` to a fresh file of the process-wide lib
    dir, so two loads never share a path.  The program owns its
    ``dlopen`` handle and that file and releases both when it is
    collected (or at exit), never earlier: a simulator holding the
    program runs whatever the store that served it evicts or clears.
    """

    __slots__ = ("key", "path", "lib", "rendered", "_runners", "__weakref__")

    def __init__(self, key: str, so_bytes: bytes,
                 rendered: RenderedProgram) -> None:
        fd, path = tempfile.mkstemp(suffix=".so", dir=_lib_dir())
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(so_bytes)
            lib = ctypes.CDLL(path)
        except OSError:
            _unlink(path)
            raise
        self.key = key
        self.path = path
        self.lib = lib
        self.rendered = rendered
        self._runners: Dict[int, object] = {}
        weakref.finalize(self, _unload, lib, path)

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


class ProgramStage(Stage):
    """IR module → loaded :class:`NativeProgram`.

    Keyed like the ``native`` stage it builds through, in the same
    store (module structure × toolchain ABI), so a
    :class:`~repro.service.DiskArtifactStore` still shares the ``.so``
    bytes across processes.  A loaded program cannot leave the process,
    so the stage is memory-only.  A failure raises
    :class:`NativeUnavailableError` with the reason; a stored ``.so``
    that fails to load is recompiled from source once, replacing the
    bad entry.
    """

    name = PROGRAM_STAGE
    memory_only = True

    def key(self, module: Module, key: str, store, toolchain) -> str:
        return key

    def build(self, module: Module, key: str, store,
              toolchain: NativeToolchain) -> NativeProgram:
        from ..pipeline.compile import NativeStage

        try:
            rendered = render_c_program(module)
        except UnsupportedNativeModule as exc:
            raise NativeUnavailableError(f"unsupported: {exc}") from exc
        try:
            so_bytes, record = NativeStage().run(store, key, rendered.source,
                                                 toolchain)
        except NativeCompileError as exc:
            raise NativeUnavailableError(f"compile error: {exc}") from exc
        try:
            return NativeProgram(key, so_bytes, rendered)
        except OSError as exc:
            if not record.hit:
                raise NativeUnavailableError(f"load failed: {exc}") from exc
        # A corrupt stored artifact: rebuild from source exactly once,
        # replacing the bad store entry, then give up.
        try:
            so_bytes = toolchain.compile(rendered.source)
            store.put(NATIVE_STAGE, key, so_bytes)
            return NativeProgram(key, so_bytes, rendered)
        except (NativeCompileError, OSError) as exc:
            raise NativeUnavailableError(f"load failed: {exc}") from exc


_PROGRAMS = ProgramStage()
#: reason of every key whose render, compile or load failed; never retried.
_QUARANTINE: Dict[str, str] = {}
#: serializes native builds (and quarantine updates) in this process.
_BUILD_LOCK = threading.Lock()


def load_native(module: Module, store=None) -> NativeProgram:
    """The loaded native program of ``module``.

    Served by the ``exec.native`` stage of ``store`` (default: the
    process-wide store of :func:`repro.exec.translate`).  Raises
    :class:`NativeUnavailableError` when there is no compiler or the
    module's key is quarantined, which it is from its first failure on.
    """
    toolchain = global_native_toolchain()
    if not toolchain.available:
        raise NativeUnavailableError("no C compiler found")
    key = native_fingerprint(module_fingerprint(module), toolchain.abi_id())
    if store is None:
        store = _GLOBAL_CODE_STORE
    with _BUILD_LOCK:
        reason = _QUARANTINE.get(key)
        if reason is not None:
            raise NativeUnavailableError(reason)
        try:
            program, _record = _PROGRAMS.run(store, module, key, store,
                                             toolchain)
        except NativeUnavailableError as exc:
            _QUARANTINE[key] = str(exc)
            raise
    return program


def reset_global_native_cache() -> None:
    """Forget the quarantine and empty the process-wide store (tests and
    benchmarks start cold passes with it).  Programs that simulators
    still hold stay loaded until those are released."""
    with _BUILD_LOCK:
        _QUARANTINE.clear()
    _GLOBAL_CODE_STORE.clear()


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

    The program comes from the ``exec.native`` stage of ``store`` (see
    :func:`load_native`) and stays loaded while the simulator lives.
    Raises :class:`NativeUnavailableError` from the constructor when no
    native program can be produced (no compiler, unsupported module,
    quarantined key); :func:`make_functional_simulator` turns that into
    the documented fallback.
    """

    def __init__(self, module: Module, memory_size: int = 1 << 20,
                 max_steps: int = 50_000_000, store=None) -> None:
        super().__init__(module, memory_size=memory_size,
                         max_steps=max_steps, store=store)
        program = self.native = load_native(module, store)
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
