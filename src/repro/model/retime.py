"""Trace-based analytic retiming: price any machine from one profile.

:class:`RetimingModel` reduces a machine-independent
:class:`~repro.model.trace.KernelTrace` over the static per-block
schedules of a compiled module, reproducing the cycle simulator's
accounting term by term:

* base cycles — block schedule lengths weighted by measured visit
  counts, plus the fixed call overhead per activation and the branch
  penalty per taken control transfer (*exact*, identical arithmetic to
  :class:`~repro.sim.cycle.CycleSimulator`);
* operation counts, NOP slots, spill/copy/custom counts — reduced from
  the schedule × visit counts (*exact*);
* d-cache stalls — the trace's recorded address stream replayed through
  the machine's cache model (memoized per cache geometry in an artifact
  store, so a sweep replays once per distinct d-cache, not once per
  design point), plus an analytic term for spill traffic
  (*approximate*: scheduled access order may differ from trace order);
* i-cache stalls — cold-miss analysis over the exact code layout the
  cycle simulator uses, with a first-order conflict surcharge when the
  executed footprint exceeds cache capacity (*approximate*);
* energy — per-operation dynamic energy exactly as the cycle simulator
  charges it, plus static energy per modeled cycle and cache energy per
  modeled access/miss.

The approximate terms are summed into ``error_bound_cycles`` on the
returned :class:`TraceEstimate`, and the differential harness in
``tests/test_trace_model.py`` locks the estimate to the cycle simulator
within :data:`TRACE_CYCLE_TOLERANCE` across presets × kernels, customized
family members included.

Kernels are priced through :meth:`repro.pipeline.CompilePipeline.measure`
at ``"trace"`` fidelity, which builds the model over the pipeline's store
so d-cache replays are shared by every caller of that pipeline.  The one
other pricing, the application runner's cycle fidelity, prices
functional-engine profiles with ``model_caches=False``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..arch.machine import CacheConfig, MachineDescription
from ..arch.operations import OperationClass
from ..arch.power import EnergyModel, custom_pj, operation_pj
from ..backend.mcode import CompiledModule
from ..ir import Opcode
from ..obs import global_tracer
from ..pipeline.store import ArtifactStore
from ..sim.cache import Cache, CacheStatistics
from ..sim.cycle import CycleStatistics, SimulationResult, code_layout

#: declared relative tolerance of trace-fidelity cycle estimates against
#: the cycle simulator (the differential harness asserts it).
TRACE_CYCLE_TOLERANCE = 0.02

#: artifact-store stage name under which d-cache replays are memoized.
REPLAY_STAGE = "retime-dcache"


@dataclass
class TraceEstimate(SimulationResult):
    """A :class:`SimulationResult`-compatible analytic estimate.

    ``error_bound_cycles`` budgets the model's approximate terms — a
    worst-case allowance for i-cache set conflicts and capacity
    overflow, and a heuristic allowance for d-cache access-order
    effects (the replayed stream is exact in content but scheduled
    order can perturb LRU decisions).  The schedule-derived terms are
    exact and carry no uncertainty.
    """

    error_bound_cycles: int = 0
    fidelity: str = "trace"
    trace_fingerprint: str = ""


def _cache_geometry_key(config: CacheConfig) -> str:
    text = (f"{config.size_bytes}:{config.line_bytes}:"
            f"{config.associativity}:{config.hit_latency}:"
            f"{config.miss_penalty}")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _replay_dcache(accesses, config: CacheConfig) -> Tuple[int, int]:
    """Replay an address stream through a fresh cache; (accesses, misses)."""
    cache = Cache(config)
    access = cache.access
    for address in accesses:
        access(address)
    return cache.stats.accesses, cache.stats.misses


class RetimingModel:
    """Prices (compiled module, machine) pairs against kernel traces.

    One model instance can serve an entire design-space sweep: d-cache
    replays are memoized per (trace, cache geometry) in ``store`` (so
    sweeps sharing a session store share replays), or in an unbounded
    store of the model's own when none is given.
    """

    def __init__(self, store=None, model_caches: bool = True) -> None:
        self.store = store if store is not None else ArtifactStore(
            capacity=None)
        self.model_caches = model_caches

    # ------------------------------------------------------------------
    # D-cache replay memo.
    # ------------------------------------------------------------------
    def _dcache_counts(self, trace, config: CacheConfig) -> Tuple[int, int]:
        fingerprint = getattr(trace, "fingerprint", "") or ""
        if not fingerprint:
            return _replay_dcache(trace.memory_accesses, config)
        key = f"{fingerprint}|{_cache_geometry_key(config)}"
        artifact = self.store.get(REPLAY_STAGE, key)
        if artifact is not None:
            return artifact.payload
        counts = _replay_dcache(trace.memory_accesses, config)
        self.store.put(REPLAY_STAGE, key, counts)
        return counts

    # ------------------------------------------------------------------
    # Pricing.
    # ------------------------------------------------------------------
    def price(self, compiled: CompiledModule, machine: MachineDescription,
              trace) -> TraceEstimate:
        """Estimate one run of ``trace`` on ``machine``'s schedule.

        ``trace`` is a :class:`~repro.model.trace.KernelTrace` (or any
        object with the same profile attributes, e.g. an
        :class:`~repro.sim.functional.ExecutionProfile` when cache
        modelling is off).
        """
        with global_tracer().span("model.price",
                                  machine=machine.name) as span:
            estimate = self._price(compiled, machine, trace)
            span.note(cycles=estimate.cycles,
                      error_bound=estimate.error_bound_cycles)
            return estimate

    def _price(self, compiled: CompiledModule,
               machine: MachineDescription, trace) -> TraceEstimate:
        from ..core.library import global_extension_library
        from ..sim.cycle import CycleSimulator

        stats = CycleStatistics()
        energy = EnergyModel(machine)
        library = global_extension_library()

        opcode_counts = trace.opcode_counts
        activations = 1 + sum(trace.call_counts.values())
        stats.call_overhead_cycles = CycleSimulator.CALL_OVERHEAD * activations
        taken = (trace.taken_branches
                 + opcode_counts.get(Opcode.JUMP.value, 0)
                 + opcode_counts.get(Opcode.CALL.value, 0)
                 + opcode_counts.get(Opcode.RETURN.value, 0))
        stats.branch_stall_cycles = machine.branch_penalty * taken

        # One pass over the static schedule: exact cycle/op/energy terms
        # plus the executed i-cache line set over the exact code layout.
        schedule_cycles = 0
        dynamic_pj = 0.0
        dynamic_spills = 0
        icache_fetches = 0
        icache_lines = set()
        line_fetches: Dict[int, int] = {}
        track_icache = machine.icache is not None and self.model_caches
        line_bits = ((machine.icache.line_bytes - 1).bit_length()
                     if track_icache else 0)
        layout = code_layout(compiled, machine) if track_icache else None
        for function in compiled:
            visit_counts = trace.block_counts.get(function.name) or {}
            for block in function.blocks:
                visits = visit_counts.get(block.name, 0)
                if not visits:
                    continue
                schedule_cycles += visits * block.cycles
                stats.bundles_executed += visits * block.cycles
                if track_icache:
                    for address in layout[function.name][block.name]:
                        icache_fetches += visits
                        line = address >> line_bits
                        icache_lines.add(line)
                        line_fetches[line] = (
                            line_fetches.get(line, 0) + visits)
                for bundle in block.bundles:
                    stats.nop_slots += visits * (
                        machine.issue_width - len(bundle.ops))
                    for op in bundle.ops:
                        stats.operations_executed += visits
                        if op.is_spill:
                            stats.spill_ops_executed += visits
                            dynamic_spills += visits
                            pj = operation_pj(OperationClass.MEM)
                        elif op.is_copy:
                            stats.copy_ops_executed += visits
                            pj = operation_pj(OperationClass.IALU)
                        elif op.inst.opcode is Opcode.CUSTOM:
                            stats.custom_ops_executed += visits
                            entry = library.entry(op.inst.custom_op)
                            fused = (entry.operation.fused_ops
                                     if entry else 1)
                            pj = custom_pj(fused, len(op.inst.operands))
                        else:
                            pj = operation_pj(op.op_class,
                                             len(op.inst.operands))
                        dynamic_pj += visits * pj

        error_bound = 0

        # I-cache: exact cold misses over the executed line set; a
        # first-order conflict surcharge when the footprint exceeds
        # capacity, plus a worst-case widening of the error bound for
        # any set holding more executed lines than it has ways (the
        # model cannot see the inter-line access order that decides how
        # often such a set actually thrashes).
        icache_stats: Optional[CacheStatistics] = None
        if track_icache:
            config = machine.icache
            cold = len(icache_lines)
            capacity_lines = config.size_bytes // config.line_bytes
            misses = cold
            if cold > capacity_lines and icache_fetches:
                overflow = 1.0 - capacity_lines / cold
                extra = int((icache_fetches - cold) * overflow)
                misses += extra
                error_bound += extra + cold * config.miss_penalty
            lines_per_set: Dict[int, int] = {}
            for line in icache_lines:
                index = line % config.num_sets
                lines_per_set[index] = lines_per_set.get(index, 0) + 1
            for index, count in lines_per_set.items():
                if count > config.associativity:
                    contested = sum(
                        fetches for line, fetches in line_fetches.items()
                        if line % config.num_sets == index)
                    error_bound += (contested - count) * config.miss_penalty
            stats.icache_stall_cycles = (
                icache_fetches * config.hit_latency
                + misses * config.miss_penalty)
            icache_stats = CacheStatistics(accesses=icache_fetches,
                                           misses=misses)
            energy.charge_cache(icache_fetches - misses, misses)

        # D-cache: replay the recorded stream (memoized per geometry),
        # then add the spill traffic the schedule implies — all spill
        # accesses hit one line, so they cost one miss plus hits.
        dcache_stats: Optional[CacheStatistics] = None
        if (machine.dcache is not None and self.model_caches
                and getattr(trace, "memory_accesses", None) is not None):
            config = machine.dcache
            accesses, misses = self._dcache_counts(trace, config)
            spill_misses = 1 if dynamic_spills else 0
            accesses += dynamic_spills
            misses += spill_misses
            stats.dcache_stall_cycles = (
                accesses * config.hit_latency + misses * config.miss_penalty)
            dcache_stats = CacheStatistics(accesses=accesses, misses=misses)
            energy.charge_cache(accesses - misses, misses)
            # Scheduled access order and spill interleaving can perturb
            # LRU decisions; bound that by a fraction of the modeled
            # miss traffic plus the spill line's worst case.
            error_bound += (misses * config.miss_penalty + 3) // 4
            if dynamic_spills:
                error_bound += config.miss_penalty

        stats.cycles = (stats.call_overhead_cycles
                        + stats.branch_stall_cycles
                        + schedule_cycles
                        + stats.icache_stall_cycles
                        + stats.dcache_stall_cycles)
        energy.report.dynamic_pj += dynamic_pj
        energy.charge_cycles(stats.cycles)

        return TraceEstimate(
            value=getattr(trace, "value", None),
            stats=stats,
            energy=energy.report,
            icache=icache_stats,
            dcache=dcache_stats,
            machine_name=machine.name,
            clock_ns=machine.clock_ns,
            error_bound_cycles=error_bound,
            fidelity="trace",
            trace_fingerprint=getattr(trace, "fingerprint", "") or "",
        )
