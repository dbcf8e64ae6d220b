"""Control-flow-graph analyses: reachability, dominators, loops, frequencies.

The control-flow graph is a plain ``{block: [successors]}`` dict (see
:func:`build_cfg`).  These analyses feed three consumers:

* the optimizer (dead block elimination, loop unrolling),
* the ISE customizer (loop nesting depth drives static execution-frequency
  estimates when no profile is available), and
* the back end (block layout).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from .block import BasicBlock
from .function import Function

#: Each block's successors (see :func:`build_cfg`).
CFG = Dict[BasicBlock, List[BasicBlock]]


def build_cfg(function: Function) -> CFG:
    """Return the control-flow graph of ``function``.

    Every block of ``function``, in order, maps to its distinct terminator
    targets in first-seen order (a branch may name one target twice).
    """
    return {block: list(dict.fromkeys(block.successors()))
            for block in function.blocks}


def _predecessors(cfg: CFG) -> CFG:
    preds: CFG = {block: [] for block in cfg}
    for block, succs in cfg.items():
        for succ in succs:
            preds[succ].append(block)
    return preds


def reachable_blocks(function: Function) -> Set[BasicBlock]:
    """Blocks reachable from the entry block."""
    if not function.blocks:
        return set()
    cfg = build_cfg(function)
    reached = {function.entry}
    worklist = [function.entry]
    while worklist:
        for succ in cfg[worklist.pop()]:
            if succ not in reached:
                reached.add(succ)
                worklist.append(succ)
    return reached


def remove_unreachable_blocks(function: Function) -> int:
    """Delete unreachable blocks; return how many were removed."""
    reachable = reachable_blocks(function)
    dead = [b for b in function.blocks if b not in reachable]
    for block in dead:
        function.remove_block(block)
    return len(dead)


def compute_dominators(function: Function) -> Dict[BasicBlock, Set[BasicBlock]]:
    """Return, for each reachable block, the set of blocks dominating it.

    Iterative data flow in reverse postorder (Cooper, Harvey and Kennedy,
    "A Simple, Fast Dominance Algorithm", 2001): a block's dominators are
    itself plus those shared by all its reachable predecessors.
    """
    cfg = build_cfg(function)
    order = _reverse_postorder(cfg, function.entry)
    preds = _predecessors(cfg)
    doms = {block: set(order) for block in order}
    doms[function.entry] = {function.entry}
    changed = True
    while changed:
        changed = False
        for block in order[1:]:
            new = {block}.union(set.intersection(
                *(doms[pred] for pred in preds[block] if pred in doms)))
            if new != doms[block]:
                doms[block] = new
                changed = True
    return doms


def find_natural_loops(function: Function) -> List[Tuple[BasicBlock, Set[BasicBlock]]]:
    """Find natural loops via back-edge detection.

    Returns a list of ``(header, body_blocks)`` tuples, one per back edge in
    :func:`build_cfg` edge order, where ``body_blocks`` includes the header.
    """
    doms = compute_dominators(function)
    cfg = build_cfg(function)
    preds = _predecessors(cfg)
    loops: List[Tuple[BasicBlock, Set[BasicBlock]]] = []
    for tail, succs in cfg.items():
        for header in succs:
            if header in doms.get(tail, ()):
                # Back edge tail -> header: collect the natural loop body.
                body = {header, tail}
                stack = [tail]
                while stack:
                    node = stack.pop()
                    if node is header:
                        continue
                    for pred in preds[node]:
                        if pred not in body:
                            body.add(pred)
                            stack.append(pred)
                loops.append((header, body))
    return loops


def loop_nesting_depth(function: Function) -> Dict[BasicBlock, int]:
    """Number of natural loops each block belongs to."""
    depth = {block: 0 for block in function.blocks}
    for _header, body in find_natural_loops(function):
        for block in body:
            depth[block] = depth.get(block, 0) + 1
    return depth


def estimate_block_frequencies(function: Function, loop_weight: float = 10.0) -> None:
    """Set ``block.frequency`` from static loop-nesting heuristics.

    A block nested ``d`` loops deep is assumed to execute ``loop_weight**d``
    times per function invocation; this mirrors the classic static profile
    estimate used when no measured profile is available.  Measured profiles
    (from the functional simulator) overwrite these estimates.
    """
    depth = loop_nesting_depth(function)
    for block in function.blocks:
        block.frequency = float(loop_weight ** depth.get(block, 0))


def _reverse_postorder(cfg: CFG, entry: BasicBlock) -> List[BasicBlock]:
    """The blocks reachable from ``entry`` in reverse postorder of a
    depth-first walk that visits successors by name."""
    order: List[BasicBlock] = []
    visited = {entry}
    stack = [(entry, iter(sorted(cfg[entry], key=lambda b: b.name)))]
    while stack:
        node, successors = stack[-1]
        for succ in successors:
            if succ not in visited:
                visited.add(succ)
                stack.append((succ, iter(sorted(cfg[succ], key=lambda b: b.name))))
                break
        else:
            order.append(node)
            stack.pop()
    order.reverse()
    return order


def topological_block_order(function: Function) -> List[BasicBlock]:
    """Blocks in reverse-post-order (a good scheduling / layout order)."""
    order = _reverse_postorder(build_cfg(function), function.entry)
    # Unreachable blocks go at the end in their original order.
    reached = set(order)
    return order + [block for block in function.blocks if block not in reached]
