"""The benchmark's own span tracer and the probes it installs.

Tracing here is separate from ``repro.obs``: the benchmark wraps the
public entry point of each layer at the import site its caller uses
(``repro.core.customizer.identify_candidates``, ``CycleSimulator.run``,
...), records one span per call, and folds the spans into per-layer
self time (span duration minus the time its child spans on the same
thread cover).  Probes are installed only for a traced pass and removed
afterwards, so timed passes run unwrapped code.

Spans are held in memory with parent links and a request id, then
written out as JSON lines when the run ends.  The wrappers are
thread-safe: each thread keeps its own span stack, so the thread-mode
service workers record their own (parentless) span trees.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional


@contextlib.contextmanager
def patched(owner, attribute: str, make: Callable):
    """Replace ``owner.attribute`` by ``make(original)`` inside the block.

    ``original`` is the plain function even for a staticmethod, and the
    replacement is re-wrapped as one.  The original is restored on exit.
    """
    raw = owner.__dict__[attribute]
    if isinstance(raw, staticmethod):
        setattr(owner, attribute, staticmethod(make(raw.__func__)))
    else:
        setattr(owner, attribute, make(raw))
    try:
        yield
    finally:
        setattr(owner, attribute, raw)


def observe(owner, attribute: str, note: Callable):
    """Call ``note(result)`` after each call of ``owner.attribute`` inside
    the block (a context manager)."""
    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            note(result)
            return result
        return wrapper

    return patched(owner, attribute, make)


class SpanTracer:
    """In-memory span recorder with per-thread stacks."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self.spans: List[Dict[str, object]] = []
        #: per-layer counters recorded at the same boundaries as spans.
        self.counts: Dict[str, float] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, layer: str, fn: Callable, args, kwargs):
        """Run ``fn`` inside a span named ``layer``; returns its result."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = next(self._ids)
        request = parent["request"] if parent else f"t{span_id}"
        frame = {"id": span_id, "parent": parent["id"] if parent else None,
                 "request": request, "layer": layer,
                 "thread": threading.current_thread().name, "child_s": 0.0}
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent["child_s"] += duration
            frame.update(start=start, end=end,
                         self_s=max(0.0, duration - frame["child_s"]))
            with self._lock:
                self.spans.append(frame)

    def request(self, execute: Callable, request):
        """``execute(request)`` under a fresh request id: every span it
        opens on this thread carries that id."""
        with self._lock:
            request_id = f"r{next(self._requests)}"
        stack = self._stack()
        stack.append({"id": None, "request": request_id, "child_s": 0.0})
        try:
            return execute(request)
        finally:
            stack.pop()

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per layer."""
        totals: Dict[str, float] = {}
        with self._lock:
            for span in self.spans:
                totals[span["layer"]] = (totals.get(span["layer"], 0.0)
                                         + span["self_s"])
        return totals

    def calls(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        with self._lock:
            for span in self.spans:
                totals[span["layer"]] = totals.get(span["layer"], 0) + 1
        return totals

    def self_seconds_on(self, threads) -> float:
        """Self time of every span recorded on the named threads."""
        with self._lock:
            return sum(span["self_s"] for span in self.spans
                       if span["thread"] in threads)

    def write(self, path: str) -> None:
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(spans, key=lambda s: s["start"]):
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def _note_selection(tracer: SpanTracer, result, args, kwargs) -> None:
    tracer.count("core.select_considered", len(args[0]))
    tracer.count("core.selected", len(result.selected))


def _note_cycle_ops(tracer: SpanTracer, result, args, kwargs) -> None:
    tracer.count("sim.cycle_ops", result.stats.operations_executed)


def _note_code_bytes(tracer: SpanTracer, result, args, kwargs) -> None:
    report = result[1]
    if report.code is not None:
        tracer.count("backend.code_bytes", report.code.bytes_effective)


def _note_cells(tracer: SpanTracer, result, args, kwargs) -> None:
    tracer.count("toolchain.cells", len(result.cells))


#: (layer, owner "module" or "module:Class", attribute, result note).
#: Owners are the modules whose callers look the name up at call time,
#: so patching the attribute reaches every caller.
PROBES = [
    ("core.identify", "repro.core.customizer", "identify_candidates", None),
    ("core.select", "repro.core.customizer", "select", _note_selection),
    ("core.rewrite", "repro.core.customizer", "apply_selection", None),
    ("core.profile", "repro.core.customizer:IsaCustomizer", "profile", None),
    ("frontend.compile_c", "repro.pipeline.compile", "compile_c", None),
    ("opt.optimize", "repro.pipeline.compile", "optimize", None),
    ("backend.compile_module", "repro.pipeline.compile", "compile_module",
     _note_code_bytes),
    ("sim.cycle", "repro.sim.cycle:CycleSimulator", "run", _note_cycle_ops),
    ("sim.functional", "repro.sim.functional:FunctionalSimulator", "run",
     None),
    ("exec.translate", "repro.exec.cache", "translate_module", None),
    ("exec.compiled_run", "repro.exec.engine:CompiledSimulator", "run", None),
    ("exec.native_compile", "repro.exec.native:NativeToolchain", "compile",
     None),
    ("model.capture", "repro.model.trace", "capture_trace", None),
    ("model.price", "repro.model.retime:RetimingModel", "price", None),
    ("toolchain.matrix", "repro.toolchain.matrix", "run_matrix", _note_cells),
    ("dse.explore", "repro.dse.explorer:Explorer", "exhaustive", None),
    ("gen.population", "repro.gen.population:WorkloadPopulation", "validate",
     None),
    ("gen.population", "repro.gen.population:WorkloadPopulation", "report",
     None),
    ("app.run", "repro.app.runner:AppRunner", "run", None),
    ("api.execute", "repro.api.session:Session", "execute", None),
    ("service.submit", "repro.service.client:ServiceClient", "submit", None),
    ("service.result_wait", "repro.service.client:ServiceClient", "result",
     None),
]


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


def _span_wrapper(tracer: SpanTracer, layer: str,
                  note: Optional[Callable]) -> Callable:
    """``make`` for :func:`patched`: run the original inside a span."""
    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = tracer.call(layer, original, args, kwargs)
            if note is not None:
                note(tracer, result, args, kwargs)
            return result
        return wrapper

    return make


def _poll_counter(tracer: SpanTracer) -> Callable:
    """``make`` for :func:`patched`: count the client's result polls (one
    wire call each)."""
    def make(original):
        @functools.wraps(original)
        def call(client, message):
            if message.get("op") == "result":
                tracer.count("service.result_polls")
            return original(client, message)
        return call

    return make


@contextlib.contextmanager
def probes(tracer: SpanTracer):
    """Install the PROBES wrappers for one traced pass."""
    from repro.service.client import ServiceClient

    with contextlib.ExitStack() as stack:
        for layer, owner_name, attribute, note in PROBES:
            stack.enter_context(patched(_resolve(owner_name), attribute,
                                        _span_wrapper(tracer, layer, note)))
        stack.enter_context(patched(ServiceClient, "_call",
                                    _poll_counter(tracer)))
        yield
