"""Cluster assignment and VLIW list scheduling.

The scheduler is the part of the back end the paper calls "especially
hard": it must extract ILP on *every* member of the architecture family
described by a table, without per-target special cases.  It consumes only
the machine description — issue width, cluster count, functional-unit
slots per operation class, latencies — so retargeting really is just a
table change.

For each basic block it:

1. builds the dependence graph (flow / anti / output / memory edges),
2. lowers instructions to :class:`MachineOp` syllables (instruction
   selection),
3. assigns operations to register clusters and inserts inter-cluster copy
   operations on flow edges that cross clusters,
4. attaches spill reload/store operations from the register allocator's
   plan, and
5. list-schedules the graph into bundles with critical-path priority under
   the machine's per-class slot limits and per-cluster issue width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..arch.machine import MachineDescription
from ..arch.operations import OperationClass
from ..ir import (
    BasicBlock, Constant, DataflowGraph, Instruction, Opcode, VirtualRegister,
    build_dataflow_graph,
)
from ..ir.types import I32
from .isel import select_instruction
from .mcode import Bundle, MachineOp, ScheduledBlock
from .regalloc import SpillPlan


@dataclass
class ScheduleStatistics:
    """Per-block scheduling statistics, accumulated per function."""

    blocks: int = 0
    bundles: int = 0
    operations: int = 0
    copies_inserted: int = 0
    spill_ops_inserted: int = 0

    def merge(self, other: "ScheduleStatistics") -> None:
        self.blocks += other.blocks
        self.bundles += other.bundles
        self.operations += other.operations
        self.copies_inserted += other.copies_inserted
        self.spill_ops_inserted += other.spill_ops_inserted


# ----------------------------------------------------------------------
# Cluster assignment.
# ----------------------------------------------------------------------

def _release_order(dfg: DataflowGraph) -> List[Instruction]:
    """The nodes of ``dfg`` in Kahn's generation order: sources in block
    order, then each node when its last predecessor is taken, successors
    in edge insertion order.  The greedy cluster choice depends on it."""
    waiting = {inst: len(preds) for inst, preds in dfg.predecessors.items()}
    order = [inst for inst, count in waiting.items() if not count]
    for inst in order:  # grows while it is walked: a FIFO queue
        for succ in dfg.successors[inst]:
            waiting[succ] -= 1
            if not waiting[succ]:
                order.append(succ)
    return order


def assign_clusters(ops: List[MachineOp], dfg: DataflowGraph,
                    machine: MachineDescription) -> int:
    """Assign each op to a register cluster; returns copies needed.

    Greedy assignment in :func:`_release_order`: an operation goes to the
    cluster holding the majority of its register operands' producers,
    breaking ties towards the least-loaded cluster.  The number of flow
    edges that end up crossing clusters is returned (each will become an
    explicit copy operation).
    """
    if machine.num_clusters <= 1:
        for op in ops:
            op.cluster = 0
        return 0

    by_inst: Dict[int, MachineOp] = {id(op.inst): op for op in ops}
    load: List[int] = [0] * machine.num_clusters

    for inst in _release_order(dfg):
        op = by_inst.get(id(inst))
        if op is None:
            continue
        votes = [0] * machine.num_clusters
        for pred, kind in dfg.predecessors[inst].items():
            pred_op = by_inst.get(id(pred))
            if pred_op is not None and kind == "flow":
                votes[pred_op.cluster] += 1
        best = max(range(machine.num_clusters),
                   key=lambda c: (votes[c], -load[c]))
        # Branch/memory units are modelled as shared: keep them on cluster 0
        # so the slot accounting stays simple.
        if op.op_class in (OperationClass.BRANCH,):
            best = 0
        op.cluster = best
        load[best] += 1

    crossings = 0
    for u, v in dfg.flow_edges():
        op_u, op_v = by_inst.get(id(u)), by_inst.get(id(v))
        if op_u is not None and op_v is not None and op_u.cluster != op_v.cluster:
            crossings += 1
    return crossings


# ----------------------------------------------------------------------
# Spill traffic materialisation.
# ----------------------------------------------------------------------

def _make_spill_ops(count_loads: int, count_stores: int,
                    machine: MachineDescription) -> List[MachineOp]:
    """Create timing-only spill reload/store operations."""
    ops: List[MachineOp] = []
    mem_latency = machine.latency(OperationClass.MEM)
    for _ in range(count_loads):
        reload_inst = Instruction(Opcode.LOAD, VirtualRegister(I32, "spill.re"),
                                  [Constant(0, I32)])
        reload_inst.annotations["spill"] = True
        ops.append(MachineOp(reload_inst, OperationClass.MEM, mem_latency,
                             is_spill=True))
    for _ in range(count_stores):
        store_inst = Instruction(Opcode.STORE, None,
                                 [Constant(0, I32), Constant(0, I32)])
        store_inst.annotations["spill"] = True
        ops.append(MachineOp(store_inst, OperationClass.MEM, mem_latency,
                             is_spill=True))
    return ops


# ----------------------------------------------------------------------
# List scheduling.
# ----------------------------------------------------------------------

def _edge_delay(kind: str, producer_latency: int) -> int:
    """Cycles from a producer's issue to the earliest issue of a consumer
    along one edge."""
    if kind == "flow":
        return producer_latency
    if kind == "anti":
        return 0                       # may issue in the same cycle
    return 1                           # output / memory / order / barrier


def schedule_block(block: BasicBlock, machine: MachineDescription,
                   spill_plan: Optional[SpillPlan] = None
                   ) -> Tuple[ScheduledBlock, ScheduleStatistics]:
    """List-schedule one basic block for ``machine``.

    The ready list is kept incrementally: each op counts its unissued
    predecessors and carries its earliest issue cycle.  An op's
    successors are released when the cycle it issued in closes, so an op
    is ready only from the cycle after its last predecessor issued, even
    along an ``anti`` edge.  Ready ops issue in decreasing critical-path
    height, ties in block order.
    """
    stats = ScheduleStatistics(blocks=1)
    dfg = build_dataflow_graph(block, include_terminator=True)

    instructions = block.instructions
    ops: List[MachineOp] = [select_instruction(inst, machine)
                            for inst in instructions]

    copies = assign_clusters(ops, dfg, machine)
    stats.copies_inserted += copies

    # Spill traffic for this block (timing-only operations with no
    # dependence constraints beyond resource contention).
    extra_ops: List[MachineOp] = []
    if spill_plan is not None:
        reloads = spill_plan.reloads_per_block.get(block.name, 0)
        stores = spill_plan.stores_per_block.get(block.name, 0)
        extra_ops = _make_spill_ops(reloads, stores, machine)
        stats.spill_ops_inserted += len(extra_ops)

    # Inter-cluster copies are modelled as additional IALU ops competing for
    # slots (timing-only; the value transfer is implicit in simulation).
    copy_ops: List[MachineOp] = []
    for _ in range(copies):
        copy_inst = Instruction(Opcode.MOV, VirtualRegister(I32, "xcopy"),
                                [Constant(0, I32)])
        copy_inst.annotations["xcopy"] = True
        copy_ops.append(MachineOp(copy_inst, OperationClass.IALU,
                                  max(1, machine.intercluster_latency), is_copy=True))
    pending_extra = extra_ops + copy_ops

    # From here on an op is its position in the block.
    count = len(instructions)
    position = {inst: i for i, inst in enumerate(instructions)}
    successors = [[(position[succ], _edge_delay(kind, op.latency))
                   for succ, kind in dfg.successors[inst].items()]
                  for inst, op in zip(instructions, ops)]
    waiting = [len(dfg.predecessors[inst]) for inst in instructions]
    # Priority: critical-path height (longest latency path to any leaf);
    # ``rank`` orders ops by decreasing height, ties in block order.
    height = [0] * count
    for i in reversed(range(count)):
        latency = ops[i].latency
        height[i] = max(
            (height[position[succ]] + (latency if kind == "flow" else 1)
             for succ, kind in dfg.successors[instructions[i]].items()),
            default=0)
    rank = [0] * count
    for order, i in enumerate(sorted(range(count),
                                     key=lambda i: (-height[i], i))):
        rank[i] = order

    terminator = block.terminator
    last = position[terminator] if terminator is not None else -1
    earliest = [0] * count
    candidates = [i for i in range(count) if not waiting[i]]
    remaining = count
    # Slot accounting runs on class indices: an Enum member hashes through
    # a Python-level __hash__, so each op's class is looked up once here.
    slot_index: Dict[OperationClass, int] = {}
    for op in ops + pending_extra:
        slot_index.setdefault(op.op_class, len(slot_index))
    limits = [machine.slots_for(op_class) for op_class in slot_index]
    slot = [slot_index[op.op_class] for op in ops]
    pending = [(op, slot_index[op.op_class]) for op in pending_extra]
    issue_width = machine.issue_width
    cluster_width = machine.cluster_issue_width

    bundles: List[Bundle] = []
    cycle = 0
    max_cycles_guard = 10 * (len(ops) + len(pending)) + 64

    while remaining or pending:
        if cycle > max_cycles_guard:
            raise RuntimeError(
                f"scheduler failed to converge on block {block.name} "
                f"for machine {machine.name}"
            )
        bundle = Bundle()
        used_slots = [0] * len(limits)
        used_per_cluster: Dict[int, int] = {}
        total_issued = 0

        # Ready real operations, highest priority first; the terminator
        # goes in the final bundle.
        ready = [i for i in candidates
                 if earliest[i] <= cycle and (i != last or remaining == 1)]
        ready.sort(key=rank.__getitem__)
        issued: List[int] = []
        for i in ready:
            if total_issued >= issue_width:
                break
            op = ops[i]
            if used_per_cluster.get(op.cluster, 0) >= cluster_width:
                continue
            k = slot[i]
            if used_slots[k] >= limits[k]:
                continue
            bundle.ops.append(op)
            issued.append(i)
            used_slots[k] += 1
            used_per_cluster[op.cluster] = used_per_cluster.get(op.cluster, 0) + 1
            total_issued += 1

        # Fill remaining slots with spill/copy traffic.
        still_pending: List[Tuple[MachineOp, int]] = []
        for op, k in pending:
            if (total_issued < issue_width
                    and used_per_cluster.get(op.cluster, 0) < cluster_width
                    and used_slots[k] < limits[k]):
                bundle.ops.append(op)
                used_slots[k] += 1
                used_per_cluster[op.cluster] = used_per_cluster.get(op.cluster, 0) + 1
                total_issued += 1
            else:
                still_pending.append((op, k))
        pending = still_pending

        # The cycle closes: release the successors of what issued.
        if issued:
            remaining -= len(issued)
            taken = set(issued)
            candidates = [i for i in candidates if i not in taken]
            for i in issued:
                for succ, delay in successors[i]:
                    if cycle + delay > earliest[succ]:
                        earliest[succ] = cycle + delay
                    waiting[succ] -= 1
                    if not waiting[succ]:
                        candidates.append(succ)

        bundles.append(bundle)
        cycle += 1

    scheduled = ScheduledBlock(name=block.name, bundles=bundles,
                               frequency=block.frequency)
    stats.bundles += len(bundles)
    stats.operations += sum(len(b) for b in bundles)
    return scheduled, stats
