"""Differential tests of the bitset ISE enumerator.

``reference_block_cuts`` is the set-based enumerator the bitset one
replaced: the same grow-from-seed search over ``Instruction`` sets,
deduplicated by id-frozensets, with a graph-walk convexity check and
set-based input/output counting.  Only its two whole-block rescans per
cut (live-out registers and external readers) are hoisted out of the
loop, which changes its speed, not its answers.  The bitset enumerator
must return exactly the same cuts on every block.
"""

from __future__ import annotations

from typing import Dict, List, Set

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import EnumerationConfig, enumerate_block_cuts
from repro.frontend import compile_c
from repro.gen import FAMILIES, generate_kernel, sample_spec
from repro.ir import Constant, VirtualRegister, build_dataflow_graph
from repro.opt import optimize
from repro.workloads import list_kernels

from _shared import build_kernel_module

CONFIG = EnumerationConfig(max_outputs=1)


def reference_block_cuts(block, config: EnumerationConfig) -> List[Set]:
    """The set-based enumerator, kept as the oracle."""
    dfg = build_dataflow_graph(block)
    fusable = [inst for inst in dfg.nodes
               if inst.is_fusable() and inst.dest is not None]
    if len(fusable) < config.min_size:
        return []
    fusable_set = set(fusable)
    successors = {node: tuple(succs) for node, succs in dfg.successors.items()}
    predecessors = {node: tuple(preds) for node, preds in dfg.predecessors.items()}

    defined = {inst.dest for inst in block.instructions if inst.dest is not None}
    live_out: Set[VirtualRegister] = set()
    if block.function is not None:
        for other in block.function.blocks:
            if other is not block:
                for inst in other.instructions:
                    live_out.update(reg for reg in inst.uses() if reg in defined)
        if block.terminator is not None:
            live_out.update(reg for reg in block.terminator.uses()
                            if reg in defined)
    readers: Dict[VirtualRegister, List] = {}
    for inst in block.instructions:
        for reg in inst.uses():
            readers.setdefault(reg, []).append(inst)

    def is_convex(cut) -> bool:
        # Walk everything reachable from the cut's outside successors; a
        # cut member among it means a path left the cut and came back.
        stack = [succ for node in cut for succ in successors[node]
                 if succ not in cut]
        seen = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node in cut:
                return False
            stack.extend(successors[node])
        return True

    def io_feasible(cut) -> bool:
        produced = {inst.dest for inst in cut}
        inputs = set()
        for inst in cut:
            for op in inst.operands:
                if isinstance(op, VirtualRegister) and op in produced:
                    continue
                if not isinstance(op, Constant):
                    inputs.add(op.id if isinstance(op, VirtualRegister)
                               else (str(op), str(op.type)))
        outputs = [reg for reg in produced if reg in live_out
                   or any(reader not in cut for reader in readers.get(reg, ()))]
        return (len(inputs) <= config.max_inputs
                and 1 <= len(outputs) <= config.max_outputs)

    def neighbours(cut) -> Set:
        found = set()
        for inst in cut:
            for other in predecessors[inst] + successors[inst]:
                if other in fusable_set and other not in cut:
                    found.add(other)
        return found

    results: List[Set] = []
    seen: Set[frozenset] = set()
    for seed in fusable:
        frontier = [{seed}]
        while frontier and len(results) < config.max_candidates_per_block:
            cut = frontier.pop()
            key = frozenset(id(inst) for inst in cut)
            if key in seen:
                continue
            seen.add(key)
            if len(cut) > config.max_size or not is_convex(cut):
                continue
            if len(cut) >= config.min_size and io_feasible(cut):
                results.append(set(cut))
            if len(cut) < config.max_size:
                for extra in neighbours(cut):
                    grown = cut | {extra}
                    if frozenset(id(inst) for inst in grown) not in seen:
                        frontier.append(grown)
        if len(results) >= config.max_candidates_per_block:
            break
    return results


def _positions(block, cut) -> tuple:
    order = {inst: i for i, inst in enumerate(block.instructions)}
    return tuple(sorted(order[inst] for inst in cut))


def _assert_same_cuts(module, config: EnumerationConfig = CONFIG) -> int:
    """Compare both enumerators on every block; returns the cut count."""
    total = 0
    for function in module.functions.values():
        for block in function.blocks:
            expected = [_positions(block, cut)
                        for cut in reference_block_cuts(block, config)]
            assert len(expected) < config.max_candidates_per_block, (
                f"{function.name}/{block.name} hits the truncation cap; "
                f"its cut set depends on the search order")
            got = [_positions(block, cut)
                   for cut, _dfg in enumerate_block_cuts(block, config)]
            assert len(got) == len(set(got)), f"{block.name}: duplicate cuts"
            assert set(got) == set(expected), f"{function.name}/{block.name}"
            total += len(got)
    return total


class TestAgainstReference:
    @pytest.mark.parametrize("name", sorted(list_kernels()))
    def test_builtin_kernels_at_o2(self, name):
        _kernel, module = build_kernel_module(name, opt_level=2)
        _assert_same_cuts(module)

    @pytest.mark.parametrize(
        "name", ["crc32", "popcount_buffer", "ip_checksum", "sad16"])
    def test_unrolled_kernels_at_o3(self, name):
        _kernel, module = build_kernel_module(name, opt_level=3)
        assert _assert_same_cuts(module) > 0

    @settings(max_examples=8, deadline=None)
    @given(family=st.sampled_from(FAMILIES),
           spec_seed=st.integers(min_value=0, max_value=2**20),
           max_inputs=st.integers(min_value=2, max_value=4),
           max_outputs=st.integers(min_value=1, max_value=2),
           max_size=st.integers(min_value=2, max_value=6))
    def test_generated_kernels(self, family, spec_seed, max_inputs,
                               max_outputs, max_size):
        generated = generate_kernel(sample_spec(family, spec_seed))
        module = compile_c(generated.c_source,
                           module_name=generated.kernel.name)
        optimize(module, level=2)
        _assert_same_cuts(module, EnumerationConfig(
            max_inputs=max_inputs, max_outputs=max_outputs,
            max_size=max_size, max_candidates_per_block=10**6))


class TestAddressIndependence:
    @pytest.mark.parametrize("name", ["popcount_buffer", "viterbi_acs"])
    def test_clone_enumerates_in_the_same_order(self, name):
        """The sequence, truncation included, follows the block, not the
        memory addresses of its instructions."""
        _kernel, module = build_kernel_module(name, opt_level=3)
        copy = module.clone()
        config = EnumerationConfig()  # popcount_buffer O3 hits the cap
        for function in module.functions.values():
            for block in function.blocks:
                twin = copy.get_function(function.name).get_block(block.name)
                assert twin is not block
                original = [_positions(block, cut) for cut, _dfg
                            in enumerate_block_cuts(block, config)]
                cloned = [_positions(twin, cut) for cut, _dfg
                          in enumerate_block_cuts(twin, config)]
                assert original == cloned
