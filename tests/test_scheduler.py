"""The list scheduler against its quadratic reference.

``schedule_block`` keeps an incremental ready list.  The reference below
is the straightforward form it replaced: every cycle it rescans the whole
block, recomputes each unscheduled op's earliest issue cycle from its
predecessors, and asks the machine for slot limits op by op.  Both must
emit the same bundles, op for op, on every builtin kernel, every preset
and every optimization level, and on the seeded generated population.
"""

from __future__ import annotations

from typing import Dict, List, Set

import pytest

from repro.arch import PRESETS, get_preset
from repro.arch.operations import OperationClass
from repro.backend import compile_module
from repro.backend.asm import render_assembly
from repro.backend.isel import select_instruction
from repro.backend.mcode import Bundle, MachineOp, ScheduledBlock
from repro.backend.scheduler import (
    ScheduleStatistics, _make_spill_ops, assign_clusters,
)
from repro.frontend import compile_c
from repro.ir import Constant, Instruction, Opcode, VirtualRegister
from repro.ir import build_dataflow_graph
from repro.ir.types import I32
from repro.opt import optimize
from repro.workloads import list_kernels

from _shared import build_kernel_module


def _edge_ready_time(kind: str, producer_issue: int,
                     producer_latency: int) -> int:
    if kind == "flow":
        return producer_issue + producer_latency
    if kind == "anti":
        return producer_issue
    return producer_issue + 1


def reference_schedule_block(block, machine, spill_plan=None):
    """The rescan-every-cycle list scheduler (test oracle)."""
    stats = ScheduleStatistics(blocks=1)
    dfg = build_dataflow_graph(block, include_terminator=True)

    ops: List[MachineOp] = [select_instruction(inst, machine)
                            for inst in block.instructions]
    by_inst: Dict[int, MachineOp] = {id(op.inst): op for op in ops}

    copies = assign_clusters(ops, dfg, machine)
    stats.copies_inserted += copies

    extra_ops: List[MachineOp] = []
    if spill_plan is not None:
        reloads = spill_plan.reloads_per_block.get(block.name, 0)
        stores = spill_plan.stores_per_block.get(block.name, 0)
        extra_ops = _make_spill_ops(reloads, stores, machine)
        stats.spill_ops_inserted += len(extra_ops)

    copy_ops: List[MachineOp] = []
    for _ in range(copies):
        copy_inst = Instruction(Opcode.MOV, VirtualRegister(I32, "xcopy"),
                                [Constant(0, I32)])
        copy_inst.annotations["xcopy"] = True
        copy_ops.append(MachineOp(copy_inst, OperationClass.IALU,
                                  max(1, machine.intercluster_latency),
                                  is_copy=True))

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
            raise RuntimeError("reference scheduler failed to converge")
        bundle = Bundle()
        used_slots: Dict[OperationClass, int] = {}
        used_per_cluster: Dict[int, int] = {}
        total_issued = 0

        def can_issue(op: MachineOp) -> bool:
            if total_issued >= machine.issue_width:
                return False
            if (used_per_cluster.get(op.cluster, 0)
                    >= machine.cluster_issue_width):
                return False
            return (used_slots.get(op.op_class, 0)
                    < machine.slots_for(op.op_class))

        ready: List[Instruction] = []
        for inst in block.instructions:
            if id(inst) not in unscheduled:
                continue
            if inst is terminator and len(unscheduled) > 1:
                continue
            earliest = 0
            blocked = False
            for pred, kind in dfg.predecessors[inst].items():
                if id(pred) in unscheduled:
                    blocked = True
                    break
                earliest = max(earliest, _edge_ready_time(
                    kind, issue_cycle[id(pred)], by_inst[id(pred)].latency))
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
            used_per_cluster[op.cluster] = (
                used_per_cluster.get(op.cluster, 0) + 1)
            total_issued += 1

        still_pending: List[MachineOp] = []
        for op in pending_extra:
            if can_issue(op):
                bundle.ops.append(op)
                used_slots[op.op_class] = used_slots.get(op.op_class, 0) + 1
                used_per_cluster[op.cluster] = (
                    used_per_cluster.get(op.cluster, 0) + 1)
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


def _listings(module, machine, monkeypatch):
    """(listing, schedule statistics) from the real scheduler and from
    the reference, each on its own clone of ``module``."""
    compiled, report = compile_module(module.clone(), machine)
    with monkeypatch.context() as patch:
        patch.setattr("repro.backend.codegen.schedule_block",
                      reference_schedule_block)
        expected, expected_report = compile_module(module.clone(), machine)
    return ((render_assembly(compiled), report.schedule),
            (render_assembly(expected), expected_report.schedule))


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_builtin_kernels_match_the_reference(preset, monkeypatch):
    machine = get_preset(preset)
    for name in list_kernels():
        for level in (0, 2, 3):
            _kernel, module = build_kernel_module(name, level)
            actual, expected = _listings(module, machine, monkeypatch)
            assert actual == expected, (preset, name, level)


@pytest.fixture(scope="module")
def population_modules(seeded_population):
    """The seeded population's kernels, each compiled once at O3."""
    modules = []
    for generated in seeded_population.generated:
        kernel = generated.kernel
        module = compile_c(kernel.source, module_name=kernel.name)
        optimize(module, level=3)
        modules.append((kernel.name, module))
    return modules


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_seeded_population_matches_the_reference(preset, population_modules,
                                                 monkeypatch):
    machine = get_preset(preset)
    for name, module in population_modules:
        actual, expected = _listings(module, machine, monkeypatch)
        assert actual == expected, (preset, name)
