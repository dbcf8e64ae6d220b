"""The single registry of execution-engine names.

Engine strings appear at several API surfaces (``Toolchain(engine=...)``,
``Evaluator(fidelity=...)``, ``run_kernel(engine=...)``); each used to
validate them against its own private tuple.  This module is the one
authoritative list, grouped by *kind*:

* ``"functional"`` — engines that execute IR for values and profiles:
  the reference ``"interpreter"``, the threaded-code ``"compiled"`` and
  the generated-C ``"native"`` (which degrades to ``"compiled"`` with a
  warning when no C compiler is available);
* ``"fidelity"`` — timing-model fidelity levels, the one timing axis of
  design-space evaluation: ``"cycle"`` (simulate every design point) and
  ``"trace"`` (profile once, retime analytically per point via
  :mod:`repro.model`); :data:`TRACE_ENGINE` names the functional engine
  the trace fidelity runs.

Kept import-light on purpose so every layer (toolchain, dse, workloads)
can import it without cycles.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: functional-execution engines (value/profile producers).
FUNCTIONAL_ENGINES: Tuple[str, ...] = ("interpreter", "compiled", "native")

#: timing-model fidelity levels (simulate vs. analytic retiming).
FIDELITY_LEVELS: Tuple[str, ...] = ("cycle", "trace")

#: the functional engine that runs at ``"trace"`` fidelity: the trace
#: stage profiles each kernel once on the threaded-code engine, so that
#: one run is also the fidelity's only functional execution.
TRACE_ENGINE = "compiled"

ENGINE_KINDS: Dict[str, Tuple[str, ...]] = {
    "functional": FUNCTIONAL_ENGINES,
    "fidelity": FIDELITY_LEVELS,
}


def validate_engine(engine: str, kind: str = "functional") -> str:
    """Return ``engine`` if it names an engine of ``kind``; raise otherwise."""
    try:
        options = ENGINE_KINDS[kind]
    except KeyError:
        raise KeyError(
            f"unknown engine kind '{kind}'; kinds: "
            f"{', '.join(sorted(ENGINE_KINDS))}") from None
    if engine not in options:
        raise ValueError(
            f"unknown engine '{engine}'; options: {', '.join(options)}")
    return engine
