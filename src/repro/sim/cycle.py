"""Cycle-level simulation of compiled (scheduled) VLIW code.

The simulator executes the bundles produced by the back end in order,
charging one cycle per bundle plus dynamic penalties for data/instruction
cache misses, taken branches and calls, and accumulating per-operation
energy.  Architectural values are tracked by virtual-register name (the
schedule respects all dependences, so executing operations in bundle
order is semantically exact); spill and inter-cluster copy operations are
timing/energy events only.

Execution is direct, in the compiled-simulation style of Shade and of
Reshadi/Mishra/Dutt: on first use each scheduled block is translated
once into a :class:`_TimedBlock`.  That holds the block's constant
per-visit costs (bundles, NOP slots, operation/spill/copy/custom counts,
always-taken transfers, the dynamic energy of its non-custom operations),
its i-cache fetch addresses, and a tuple of closures in bundle order.
The closures are the threaded code of :mod:`repro.exec.translator`, so
the cycle simulator shares its opcode semantics with the compiled
engine.  They are wrapped only where timing depends on data: d-cache
probes at run-time addresses and at the spill slot, taken branches,
calls, and custom-op energy.  A visit charges the block's costs and
runs its closures; no operation is interpreted.  Counts are folded in
per visit at the end of a run; energy is a float and is charged in
program order (see :meth:`CycleSimulator._charge`), so results are
bit-identical to charging operation by operation.

The combination of a semantically exact execution with a statically
scheduled timing model is what the paper calls *direct-execution
simulation* (§3.1 item 4): results can always be cross-checked against
the functional reference simulator, and timing comes from the same
machine tables the compiler used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..arch.machine import MachineDescription
from ..arch.operations import OperationClass
from ..arch.power import EnergyModel, EnergyReport, custom_pj, operation_pj
from ..backend.mcode import CompiledModule, MachineOp, ScheduledBlock
from ..ir import Module, Opcode
from .cache import Cache, CacheStatistics, make_cache
from .functional import CALL_DEPTH_MESSAGE, MAX_CALL_DEPTH, SimulationError
from .memory import Memory, ProgramImage

#: base address of the code image the i-cache model fetches from.
CODE_BASE = 0x1000


def code_layout(compiled: CompiledModule,
                machine: Optional[MachineDescription] = None
                ) -> Dict[str, Dict[str, Tuple[int, ...]]]:
    """Fetch address of every bundle: function -> block -> addresses.

    Blocks are laid out back to back from :data:`CODE_BASE` in compiled
    order; an empty block still takes one byte.  The compressed
    (stop-bit) encoding stores only real operations plus a template
    byte; the uncompressed encoding stores a full issue-width worth of
    syllables including NOP slots.  ``machine`` defaults to the one
    ``compiled`` was built for.
    """
    machine = machine if machine is not None else compiled.machine
    syllable_bytes = machine.syllable_bits // 8
    full_bundle = machine.issue_width * syllable_bytes
    layout: Dict[str, Dict[str, Tuple[int, ...]]] = {}
    cursor = CODE_BASE
    for function in compiled:
        per_block: Dict[str, Tuple[int, ...]] = {}
        for block in function.blocks:
            addresses = []
            address = cursor
            for bundle in block.bundles:
                addresses.append(address)
                address += (len(bundle.ops) * syllable_bytes + 1
                            if machine.compressed_encoding else full_bundle)
            per_block[block.name] = tuple(addresses)
            cursor += max(1, address - cursor)
        layout[function.name] = per_block
    return layout


@dataclass
class CycleStatistics:
    """Timing breakdown of one cycle-level run."""

    cycles: int = 0
    bundles_executed: int = 0
    operations_executed: int = 0
    nop_slots: int = 0
    branch_stall_cycles: int = 0
    icache_stall_cycles: int = 0
    dcache_stall_cycles: int = 0
    call_overhead_cycles: int = 0
    custom_ops_executed: int = 0
    spill_ops_executed: int = 0
    copy_ops_executed: int = 0

    @property
    def useful_operations(self) -> int:
        return (self.operations_executed - self.spill_ops_executed
                - self.copy_ops_executed)

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.useful_operations / self.cycles


@dataclass
class SimulationResult:
    """Everything a benchmark needs from one run."""

    value: object
    stats: CycleStatistics
    energy: EnergyReport
    icache: Optional[CacheStatistics]
    dcache: Optional[CacheStatistics]
    machine_name: str
    clock_ns: float

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def time_us(self) -> float:
        return self.stats.cycles * self.clock_ns / 1000.0

    @property
    def energy_uj(self) -> float:
        return self.energy.total_uj


class _TakenBranches:
    """The profile slot the translator's branch closures update."""

    __slots__ = ("taken_branches",)

    def __init__(self) -> None:
        self.taken_branches = 0


class _TimedBlock:
    """One scheduled block translated for timed execution."""

    __slots__ = ("visits", "operations", "bundles", "nop_slots", "spills",
                 "copies", "customs", "transfers", "free_fetches",
                 "pj", "pj_ops", "fetches", "ops", "terminator", "tail")

    def __init__(self) -> None:
        #: visits since the last fold into the statistics.
        self.visits = 0
        # Constant per-visit costs of the static schedule.  ``transfers``
        # counts JUMP/CALL/RETURN, each a taken transfer; ``free_fetches``
        # counts i-cache fetches of the line fetched just before, hits that
        # leave the LRU state unchanged and so are only counted.
        self.operations = self.bundles = self.nop_slots = 0
        self.spills = self.copies = self.customs = 0
        self.transfers = self.free_fetches = 0
        #: non-custom energy charged on entry, and its per-op terms.
        self.pj = 0.0
        self.pj_ops: Tuple[float, ...] = ()
        #: i-cache lines, as (set index, tag), fetched on entry (up to the
        #: bundle of the first custom op or call).
        self.fetches: Tuple[Tuple[int, int], ...] = ()
        #: closures before the terminator, the terminator (returns the
        #: next block index, or None on return), closures after it.
        self.ops: Tuple[Callable, ...] = ()
        self.terminator: Callable = None  # type: ignore[assignment]
        self.tail: Tuple[Callable, ...] = ()


class CycleSimulator:
    """Executes a :class:`CompiledModule` with cycle accounting.

    ``max_steps`` bounds the operations executed over the simulator's
    life; it is checked once per block and raises
    :class:`SimulationError` when exceeded.
    """

    #: fixed overhead charged per call/return pair (save/restore, pipeline refill).
    CALL_OVERHEAD = 4

    def __init__(self, compiled: CompiledModule,
                 memory_size: int = 1 << 20,
                 max_steps: int = 50_000_000) -> None:
        if compiled.source is None:
            raise ValueError("compiled module has no source IR attached")
        from ..exec.translator import ModuleTranslator

        self.compiled = compiled
        self.machine: MachineDescription = compiled.machine
        self.module: Module = compiled.source
        # The translator bakes the image's global addresses into its
        # closures; spill traffic probes the d-cache at its spill area.
        self.image = ProgramImage(self.module, Memory(memory_size))
        self.memory: Memory = self.image.memory
        self.max_steps = max_steps
        self.stats = CycleStatistics()
        self.energy = EnergyModel(self.machine)
        self.icache: Optional[Cache] = make_cache(self.machine.icache)
        self.dcache: Optional[Cache] = make_cache(self.machine.dcache)
        self._translator = ModuleTranslator(self.module)
        self._layout = code_layout(compiled)
        #: function name -> (timed blocks in compiled order, entry index).
        self._timed: Dict[str, Tuple[List[_TimedBlock], int]] = {}
        #: run state shared with the closures (``ctx`` is the simulator).
        self.profile = _TakenBranches()
        self._retval = None
        self._pj = 0.0
        self._steps = 0
        self._depth = 0
        self._activations = 0

    # ------------------------------------------------------------------
    # Public API (mirrors the functional simulator).
    # ------------------------------------------------------------------
    def run(self, function_name: str, *args, copy_back: bool = True) -> SimulationResult:
        """Execute ``function_name`` and return timing, energy and the result."""
        compiled_function = self.compiled.get(function_name)
        source = compiled_function.source
        if source is None:
            raise SimulationError(f"compiled function {function_name} has no source IR")
        if len(args) != len(source.arguments):
            raise SimulationError(
                f"{function_name} expects {len(source.arguments)} arguments, "
                f"got {len(args)}"
            )

        lowered, writebacks = self.image.lower(
            [formal.type for formal in source.arguments], args, copy_back)
        icache_mark = self._cache_mark(self.icache)
        dcache_mark = self._cache_mark(self.dcache)
        self._pj = self.energy.report.dynamic_pj
        try:
            value = self._call(self._translator.program.functions[function_name],
                               lowered)
        finally:
            self._fold(icache_mark, dcache_mark)

        self.image.write_back(writebacks)

        self.energy.charge_cycles(self.stats.cycles)
        if self.icache is not None:
            self.energy.charge_cache(self.icache.stats.hits, self.icache.stats.misses)
        if self.dcache is not None:
            self.energy.charge_cache(self.dcache.stats.hits, self.dcache.stats.misses)

        return SimulationResult(
            value=value,
            stats=self.stats,
            energy=self.energy.report,
            icache=self.icache.stats if self.icache is not None else None,
            dcache=self.dcache.stats if self.dcache is not None else None,
            machine_name=self.machine.name,
            clock_ns=self.machine.clock_ns,
        )

    # ------------------------------------------------------------------
    # Execution core.
    # ------------------------------------------------------------------
    def _call(self, function, args):
        """Run one activation of a translated function (the translator's
        CALL closures re-enter here)."""
        depth = self._depth
        if depth >= MAX_CALL_DEPTH:
            raise SimulationError(CALL_DEPTH_MESSAGE)
        timed = self._timed.get(function.name)
        if timed is None:
            timed = self._translate(function.name)
        blocks, index = timed
        self._activations += 1
        regs = dict(zip(function.arg_ids, args))
        fetch = self.icache.access_lines if self.icache is not None else None
        max_steps = self.max_steps
        self._depth = depth + 1
        try:
            while index is not None:
                block = blocks[index]
                block.visits += 1
                self._steps += block.operations
                if self._steps > max_steps:
                    raise SimulationError("maximum step count exceeded")
                self._charge(block.pj, block.pj_ops)
                if block.fetches:
                    fetch(block.fetches)
                for op in block.ops:
                    op(regs, self)
                index = block.terminator(regs, self)
                for op in block.tail:
                    op(regs, self)
        except KeyError:
            raise SimulationError(
                f"read of undefined register in {function.name}") from None
        finally:
            self._depth = depth
        result = self._retval
        self._retval = None
        return result

    def _charge(self, pj: float, pj_ops: Tuple[float, ...]) -> None:
        """Charge ``pj``, the sum of the non-custom energies ``pj_ops``.

        Every non-custom energy is a multiple of 0.5 pJ, so a running total
        that is one too is exact and one addition of the sum equals adding
        the terms one by one.  After a custom op the total carries rounding;
        adding a sum smaller than the total still rounds at most once, at
        the same place, so the shortcut stays exact.  Otherwise the terms
        are added in program order.
        """
        if pj < self._pj:
            self._pj += pj
        else:
            for term in pj_ops:
                self._pj += term

    def _fold(self, icache_mark, dcache_mark) -> None:
        """Fold per-visit costs and counters into the statistics."""
        stats = self.stats
        schedule_cycles = transfers = free_fetches = 0
        for blocks, _entry in self._timed.values():
            for block in blocks:
                visits = block.visits
                if not visits:
                    continue
                block.visits = 0
                schedule_cycles += visits * block.bundles
                stats.operations_executed += visits * block.operations
                stats.nop_slots += visits * block.nop_slots
                stats.spill_ops_executed += visits * block.spills
                stats.copy_ops_executed += visits * block.copies
                stats.custom_ops_executed += visits * block.customs
                transfers += visits * block.transfers
                free_fetches += visits * block.free_fetches
        stats.bundles_executed += schedule_cycles

        taken = transfers + self.profile.taken_branches
        self.profile.taken_branches = 0
        branch_stalls = taken * self.machine.branch_penalty
        stats.branch_stall_cycles += branch_stalls
        call_overhead = self._activations * self.CALL_OVERHEAD
        self._activations = 0
        stats.call_overhead_cycles += call_overhead
        if self.icache is not None:
            self.icache.stats.accesses += free_fetches
        icache_stalls = self._cache_stalls(self.icache, icache_mark)
        dcache_stalls = self._cache_stalls(self.dcache, dcache_mark)
        stats.icache_stall_cycles += icache_stalls
        stats.dcache_stall_cycles += dcache_stalls
        stats.cycles += (schedule_cycles + branch_stalls + call_overhead
                         + icache_stalls + dcache_stalls)
        self.energy.report.dynamic_pj = self._pj

    @staticmethod
    def _cache_mark(cache: Optional[Cache]) -> Tuple[int, int]:
        if cache is None:
            return (0, 0)
        return (cache.stats.accesses, cache.stats.misses)

    @staticmethod
    def _cache_stalls(cache: Optional[Cache], mark: Tuple[int, int]) -> int:
        """Stall cycles of the accesses since ``mark``: every access costs
        the hit latency, every miss the miss penalty on top."""
        if cache is None:
            return 0
        accesses = cache.stats.accesses - mark[0]
        misses = cache.stats.misses - mark[1]
        return (accesses * cache.config.hit_latency
                + misses * cache.config.miss_penalty)

    # ------------------------------------------------------------------
    # Translation: scheduled blocks -> timed blocks.
    # ------------------------------------------------------------------
    def _translate(self, name: str) -> Tuple[List[_TimedBlock], int]:
        compiled_function = self.compiled.get(name)
        source = compiled_function.source
        position = {block.name: i
                    for i, block in enumerate(compiled_function.blocks)}
        index_of = {id(block): position[block.name] for block in source.blocks
                    if block.name in position}
        addresses = self._layout[name]
        blocks = [self._timed_block(scheduled, addresses[scheduled.name],
                                    index_of, name)
                  for scheduled in compiled_function.blocks]
        timed = (blocks, position[source.entry.name])
        self._timed[name] = timed
        return timed

    def _op_pj(self, op: MachineOp) -> float:
        """Dynamic energy of one non-custom operation."""
        if op.is_spill:
            return operation_pj(OperationClass.MEM)
        if op.is_copy:
            return operation_pj(OperationClass.IALU)
        return operation_pj(op.op_class, len(op.inst.operands))

    def _timed_block(self, scheduled: ScheduledBlock,
                     addresses: Tuple[int, ...], index_of,
                     function_name: str) -> _TimedBlock:
        block = _TimedBlock()
        machine = self.machine
        translator = self._translator
        dcache = self.dcache.access if self.dcache is not None else None

        # Program order, with the bundle each operation issues in.
        flat = [(i, op) for i, bundle in enumerate(scheduled.bundles)
                for op in bundle.ops]
        block.bundles = len(scheduled.bundles)
        block.operations = len(flat)
        block.nop_slots = sum(machine.issue_width - len(bundle.ops)
                              for bundle in scheduled.bundles)

        # Energy and i-cache fetches are charged in segments.  A custom op
        # ends one (its energy carries rounding, so the order around it
        # matters), and so does a call (the callee charges and fetches in
        # between).  Segment k > 0 is charged by the closure ending k - 1.
        segments: List[List[float]] = [[]]
        fetch_ends: List[int] = []   # last bundle fetched per segment
        for bundle_index, op in flat:
            real = not (op.is_spill or op.is_copy)
            if real and op.inst.opcode is Opcode.CUSTOM:
                fetch_ends.append(bundle_index)
                segments.append([])
                continue
            segments[-1].append(self._op_pj(op))
            if real and op.inst.opcode is Opcode.CALL:
                fetch_ends.append(bundle_index)
                segments.append([])
        fetch_ends.append(len(scheduled.bundles) - 1)
        charges = [(sum(terms, 0.0), tuple(terms)) for terms in segments]
        fetch_groups = self._fetch_groups(addresses, fetch_ends, block)
        block.pj, block.pj_ops = charges[0]
        block.fetches = fetch_groups[0]

        before: List[Callable] = []
        after: List[Callable] = []
        segment = 0
        for _bundle_index, op in flat:
            closures = before if block.terminator is None else after
            inst = op.inst
            if op.is_spill:
                block.spills += 1
                if dcache is not None:
                    def probe_spill(regs, ctx, _probe=dcache,
                                    _a=self.image.spill_area):
                        _probe(_a)
                    closures.append(probe_spill)
                continue
            if op.is_copy:
                block.copies += 1
                continue
            opcode = inst.opcode
            if opcode in (Opcode.JUMP, Opcode.CALL, Opcode.RETURN):
                block.transfers += 1
            if inst.is_terminator():
                block.terminator = translator.terminator(inst, index_of)
                continue
            closure = translator.instruction(inst)
            if opcode is Opcode.LOAD or opcode is Opcode.STORE:
                if dcache is not None:
                    closure = self._probed(closure, inst, dcache)
            elif opcode is Opcode.CUSTOM or opcode is Opcode.CALL:
                segment += 1
                pj, pj_ops = charges[segment]
                fetches = fetch_groups[segment]
                energy = 0.0
                if opcode is Opcode.CUSTOM:
                    block.customs += 1
                    entry = translator.library.entry(inst.custom_op)
                    fused = entry.operation.fused_ops if entry is not None else 1
                    energy = custom_pj(fused, len(inst.operands))
                closure = self._segment_end(closure, energy, pj, pj_ops,
                                            fetches)
            closures.append(closure)
        if block.terminator is None:
            def no_transfer(regs, ctx, _b=scheduled.name, _f=function_name):
                raise SimulationError(
                    f"block {_b} of {_f} did not transfer control")
            block.terminator = no_transfer
        block.ops = tuple(before)
        block.tail = tuple(after)
        return block

    def _fetch_groups(self, addresses: Tuple[int, ...], ends: List[int],
                      block: _TimedBlock) -> List[Tuple[Tuple[int, int], ...]]:
        """Split the block's bundle fetches at the given last bundles,
        as the i-cache lines each group fetches.

        Within a group nothing else touches the i-cache, so a fetch of the
        line fetched just before is a hit on the most recent way: it is
        only counted (``free_fetches``), not simulated.
        """
        if self.icache is None:
            return [()] * len(ends)
        line_bits = self.icache.line_bits
        groups: List[Tuple[Tuple[int, int], ...]] = []
        start = 0
        for end in ends:
            group = []
            previous = None
            for address in addresses[start:end + 1]:
                line = address >> line_bits
                if line == previous:
                    block.free_fetches += 1
                else:
                    group.append(self.icache.line(address))
                    previous = line
            groups.append(tuple(group))
            start = max(start, end + 1)
        return groups

    def _probed(self, closure: Callable, inst, probe: Callable) -> Callable:
        """Probe the d-cache at a load/store's address, then execute it."""
        operand = inst.operands[0] if inst.opcode is Opcode.LOAD else inst.operands[1]
        kind, ref = self._translator.access(operand)
        if kind == "r":
            def probed(regs, ctx, _op=closure, _r=ref, _probe=probe):
                _probe(int(regs[_r]))
                _op(regs, ctx)
            return probed
        def probed_const(regs, ctx, _op=closure, _a=int(ref), _probe=probe):
            _probe(_a)
            _op(regs, ctx)
        return probed_const

    @staticmethod
    def _segment_end(closure: Callable, energy: float, pj: float,
                     pj_ops: Tuple[float, ...],
                     fetches: Tuple[Tuple[int, int], ...]) -> Callable:
        """Execute a custom op or call, then charge and fetch the segment
        that follows it.  A custom op's own ``energy`` is charged first,
        in program order; a call passes 0.0, its own energy having been
        charged with the segment before it."""
        def timed(regs, ctx, _op=closure, _e=energy, _pj=pj, _ops=pj_ops,
                  _fetches=fetches):
            ctx._pj += _e
            _op(regs, ctx)
            ctx._charge(_pj, _ops)
            if _fetches:
                ctx.icache.access_lines(_fetches)
        return timed

