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
from typing import Dict, List, Optional, Set, Tuple

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

def _edge_ready_time(kind: str, producer_issue: int, producer_latency: int) -> int:
    """Earliest issue cycle of a consumer given one incoming edge."""
    if kind == "flow":
        return producer_issue + producer_latency
    if kind == "anti":
        return producer_issue          # may issue in the same cycle
    return producer_issue + 1          # output / memory / order / barrier


def schedule_block(block: BasicBlock, machine: MachineDescription,
                   spill_plan: Optional[SpillPlan] = None
                   ) -> Tuple[ScheduledBlock, ScheduleStatistics]:
    """List-schedule one basic block for ``machine``."""
    stats = ScheduleStatistics(blocks=1)
    dfg = build_dataflow_graph(block, include_terminator=True)

    ops: List[MachineOp] = [select_instruction(inst, machine)
                            for inst in block.instructions]
    by_inst: Dict[int, MachineOp] = {id(op.inst): op for op in ops}

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

    # Priority: critical-path height (longest latency path to any leaf).
    height: Dict[int, int] = {}
    for inst in reversed(block.instructions):
        latency = by_inst[id(inst)].latency
        height[id(inst)] = max(
            (height[id(succ)] + (latency if kind == "flow" else 1)
             for succ, kind in dfg.successors[inst].items()), default=0)

    terminator = block.terminator
    unscheduled: Set[int] = {id(inst) for inst in block.instructions}
    issue_cycle: Dict[int, int] = {}
    pending_extra = list(extra_ops) + list(copy_ops)

    bundles: List[Bundle] = []
    cycle = 0
    max_cycles_guard = 10 * (len(ops) + len(pending_extra)) + 64

    while unscheduled or pending_extra:
        if cycle > max_cycles_guard:
            raise RuntimeError(
                f"scheduler failed to converge on block {block.name} "
                f"for machine {machine.name}"
            )
        bundle = Bundle()
        used_slots: Dict[OperationClass, int] = {}
        used_per_cluster: Dict[int, int] = {}
        total_issued = 0

        def can_issue(op: MachineOp) -> bool:
            if total_issued >= machine.issue_width:
                return False
            if used_per_cluster.get(op.cluster, 0) >= machine.cluster_issue_width:
                return False
            limit = machine.slots_for(op.op_class)
            if used_slots.get(op.op_class, 0) >= limit:
                return False
            return True

        # Ready real operations, highest priority first.
        ready: List[Instruction] = []
        for inst in block.instructions:
            if id(inst) not in unscheduled:
                continue
            if inst is terminator and len(unscheduled) > 1:
                continue  # the terminator goes in the final bundle
            earliest = 0
            blocked = False
            for pred, kind in dfg.predecessors[inst].items():
                if id(pred) in unscheduled:
                    blocked = True
                    break
                pred_op = by_inst[id(pred)]
                earliest = max(earliest, _edge_ready_time(
                    kind, issue_cycle[id(pred)], pred_op.latency))
            if not blocked and earliest <= cycle:
                ready.append(inst)
        ready.sort(key=lambda inst: -height[id(inst)])

        for inst in ready:
            op = by_inst[id(inst)]
            if not can_issue(op):
                continue
            bundle.ops.append(op)
            issue_cycle[id(inst)] = cycle
            unscheduled.discard(id(inst))
            used_slots[op.op_class] = used_slots.get(op.op_class, 0) + 1
            used_per_cluster[op.cluster] = used_per_cluster.get(op.cluster, 0) + 1
            total_issued += 1

        # Fill remaining slots with spill/copy traffic.
        still_pending: List[MachineOp] = []
        for op in pending_extra:
            if can_issue(op):
                bundle.ops.append(op)
                used_slots[op.op_class] = used_slots.get(op.op_class, 0) + 1
                used_per_cluster[op.cluster] = used_per_cluster.get(op.cluster, 0) + 1
                total_issued += 1
            else:
                still_pending.append(op)
        pending_extra = still_pending

        bundles.append(bundle)
        cycle += 1

    scheduled = ScheduledBlock(name=block.name, bundles=bundles,
                               frequency=block.frequency)
    stats.bundles += len(bundles)
    stats.operations += sum(len(b) for b in bundles)
    return scheduled, stats
