"""Threaded-code translation of IR modules.

The functional interpreter (:class:`repro.sim.FunctionalSimulator`) pays a
constant cost per executed instruction: a handler dispatch through its
opcode table, generic operand reads, and several profile dictionary
updates.  This module removes that cost *once, at translation time*:
every basic block is pre-translated into a tuple of specialized Python
closures (classic threaded code).  Operand accessors are
resolved when the closure is built — constants and global addresses are
baked in as Python values, register reads become a single dict index — and
the opcode dispatch disappears entirely because each closure *is* its
opcode's semantics.  Those semantics are not restated here: a closure
calls the operation's function from :mod:`repro.ir.semantics` (the table
the constant folder and custom-op patterns share) and that module's
register-write :func:`~repro.ir.semantics.wrapper`; the interpreter is
the independent reference they are tested against.

Profile accounting is hoisted out of the hot loop: within one basic block
the instruction sequence is static, so the per-visit profile contribution
(instruction count, opcode histogram, loads/stores/branches, call counts)
is a constant computed at translation time.  The engine counts block
*visits* during execution and multiplies the deltas in at call exit, which
reproduces the interpreter's :class:`~repro.sim.functional.ExecutionProfile`
exactly; only taken-branch counts are data dependent and are recorded at
run time by the branch terminators.

CUSTOM (ISA-extension) operations run as their pattern's base operations:
the pattern bound in the extension library at translation time is expanded
by :func:`repro.core.patterns.expand_pattern` and each expanded instruction
becomes an ordinary closure, called in sequence.  Profile accounting still
counts the one CUSTOM instruction.  An op with no semantics registered at
translation time translates to a closure that raises when executed; the
translation is keyed by the module fingerprint, which hashes each op's
bound pattern, so registering the op later misses the stored translation.

The translated program is an immutable snapshot: it captures values (not
live IR nodes) wherever later passes could mutate the module, so a cached
:class:`TranslatedProgram` stays valid even if its source module is
rewritten afterwards (the rewrite changes the module's fingerprint and
therefore misses the stored translation).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..ir import (
    Argument, Constant, Function, GlobalVariable, Instruction, Module, Opcode,
    UndefValue, VirtualRegister,
)
from ..core.patterns import PatternError, expand_pattern
from ..ir.semantics import BINARY, UNARY, SimulationError, wrapper
from ..ir.types import I32
from ..sim.memory import global_layout


# ----------------------------------------------------------------------
# Operand accessors.
# ----------------------------------------------------------------------

#: accessor kinds: ('k', value) for translation-time constants,
#: ('r', reg_id) for register reads.
_Access = Tuple[str, object]


def _getter(access: _Access) -> Callable:
    """Turn an accessor descriptor into a callable ``regs -> value``."""
    kind, ref = access
    if kind == "k":
        def get_const(regs, _v=ref):
            return _v
        return get_const
    def get_reg(regs, _i=ref):
        return regs[_i]
    return get_reg


# ----------------------------------------------------------------------
# Translated containers.
# ----------------------------------------------------------------------

class TranslatedBlock:
    """One basic block as threaded code plus its static profile delta."""

    __slots__ = ("name", "ops", "terminator", "n_steps", "opcode_delta",
                 "loads", "stores", "branches", "call_delta")

    def __init__(self, name: str) -> None:
        self.name = name
        self.ops: Tuple[Callable, ...] = ()
        self.terminator: Callable = None  # type: ignore[assignment]
        #: instructions executed per visit (including the terminator).
        self.n_steps = 0
        #: opcode histogram contribution per visit.
        self.opcode_delta: Dict[str, int] = {}
        self.loads = 0
        self.stores = 0
        self.branches = 0
        #: static calls issued per visit, keyed by callee name.
        self.call_delta: Dict[str, int] = {}


class TranslatedFunction:
    """A function translated to threaded code."""

    __slots__ = ("name", "arg_ids", "arg_types", "blocks")

    def __init__(self, function: Function) -> None:
        self.name = function.name
        self.arg_ids = tuple(a.id for a in function.arguments)
        #: the formals' types, which the program image lowers arguments to.
        self.arg_types = tuple(a.type for a in function.arguments)
        self.blocks: List[TranslatedBlock] = []


class TranslatedProgram:
    """An immutable compiled snapshot of one module."""

    __slots__ = ("module_name", "functions", "static_instructions")

    def __init__(self, module_name: str) -> None:
        self.module_name = module_name
        self.functions: Dict[str, TranslatedFunction] = {}
        self.static_instructions = 0


# ----------------------------------------------------------------------
# The translator.
# ----------------------------------------------------------------------

class ModuleTranslator:
    """Translates one module; use :func:`translate_module` for the one-shot API.

    Construction reads the global addresses of the one program layout
    (:func:`repro.sim.memory.global_layout`, which every engine's memory
    image loads) and creates every (still empty)
    :class:`TranslatedFunction`, so :meth:`instruction` and
    :meth:`terminator` can also translate single instructions on demand —
    the cycle simulator builds its timed blocks from them.
    """

    def __init__(self, module: Module) -> None:
        from ..core.library import global_extension_library

        self.module = module
        self.library = global_extension_library()
        self.program = TranslatedProgram(module.name)
        self._global_addresses, _end = global_layout(module)
        # Every function exists before any is translated, so CALL closures
        # can capture callee TranslatedFunctions even for mutual recursion.
        for function in module.functions.values():
            self.program.functions[function.name] = TranslatedFunction(function)

    # ------------------------------------------------------------------
    def translate(self) -> TranslatedProgram:
        for function in self.module.functions.values():
            self._translate_function(function)
        return self.program

    # ------------------------------------------------------------------
    def access(self, operand) -> _Access:
        """Resolve an operand to a translation-time accessor."""
        if isinstance(operand, Constant):
            return ("k", operand.value)
        if isinstance(operand, GlobalVariable):
            try:
                return ("k", self._global_addresses[operand.name])
            except KeyError:
                raise SimulationError(
                    f"global {operand.name} has no address") from None
        if isinstance(operand, UndefValue):
            return ("k", 0)
        if isinstance(operand, (VirtualRegister, Argument)):
            return ("r", operand.id)
        raise SimulationError(f"cannot evaluate operand {operand!r}")

    # ------------------------------------------------------------------
    def _translate_function(self, function: Function) -> None:
        translated = self.program.functions[function.name]
        index_of = {id(block): i for i, block in enumerate(function.blocks)}
        for block in function.blocks:
            tblock = TranslatedBlock(block.name)
            ops: List[Callable] = []
            for inst in block.instructions:
                tblock.n_steps += 1
                key = inst.opcode.value
                tblock.opcode_delta[key] = tblock.opcode_delta.get(key, 0) + 1
                if inst.is_terminator():
                    tblock.terminator = self.terminator(inst, index_of)
                    if inst.opcode is Opcode.BRANCH:
                        tblock.branches += 1
                    break
                if inst.opcode is Opcode.LOAD:
                    tblock.loads += 1
                elif inst.opcode is Opcode.STORE:
                    tblock.stores += 1
                elif inst.opcode is Opcode.CALL:
                    tblock.call_delta[inst.callee] = (
                        tblock.call_delta.get(inst.callee, 0) + 1)
                ops.append(self.instruction(inst))
            else:
                # No terminator: fail at run time exactly like the interpreter.
                block_name, function_name = block.name, function.name
                def fall_off(regs, ctx, _b=block_name, _f=function_name):
                    raise SimulationError(
                        f"fell off the end of block {_b} in {_f}")
                tblock.terminator = fall_off
            tblock.ops = tuple(ops)
            self.program.static_instructions += tblock.n_steps
            translated.blocks.append(tblock)

    # ------------------------------------------------------------------
    def terminator(self, inst: Instruction, index_of) -> Callable:
        """Threaded code for a terminator; ``index_of`` maps ``id(block)``
        of each target to the block index the closure returns."""
        op = inst.opcode
        if op is Opcode.JUMP:
            target = index_of[id(inst.targets[0])]
            def do_jump(regs, ctx, _t=target):
                return _t
            return do_jump
        if op is Opcode.BRANCH:
            t_index = index_of[id(inst.targets[0])]
            f_index = index_of[id(inst.targets[1])]
            kind, ref = self.access(inst.operands[0])
            if kind == "r":
                def do_branch(regs, ctx, _c=ref, _t=t_index, _f=f_index):
                    if regs[_c]:
                        ctx.profile.taken_branches += 1
                        return _t
                    return _f
                return do_branch
            taken = bool(ref)
            target = t_index if taken else f_index
            def do_const_branch(regs, ctx, _taken=taken, _t=target):
                if _taken:
                    ctx.profile.taken_branches += 1
                return _t
            return do_const_branch
        if op is Opcode.RETURN:
            if inst.operands:
                get = _getter(self.access(inst.operands[0]))
                def do_return(regs, ctx, _g=get):
                    ctx._retval = _g(regs)
                    return None
                return do_return
            def do_return_void(regs, ctx):
                ctx._retval = None
                return None
            return do_return_void
        raise SimulationError(f"unexpected terminator {op}")  # pragma: no cover

    # ------------------------------------------------------------------
    def instruction(self, inst: Instruction) -> Callable:
        """Threaded code for one non-terminator instruction."""
        op = inst.opcode

        if op in BINARY:
            return self._build_binary(inst, BINARY[op])
        if op in UNARY:
            return self._build_unary(inst, UNARY[op])

        if op is Opcode.SELECT:
            get_c = _getter(self.access(inst.operands[0]))
            get_t = _getter(self.access(inst.operands[1]))
            get_f = _getter(self.access(inst.operands[2]))
            dest = inst.dest.id
            wrap = wrapper(inst.dest.type)
            def do_select(regs, ctx, _c=get_c, _t=get_t, _f=get_f,
                          _d=dest, _w=wrap):
                regs[_d] = _w(_t(regs) if _c(regs) else _f(regs))
            return do_select

        if op is Opcode.LOAD:
            dest = inst.dest.id
            dtype = inst.dest.type
            wrap = wrapper(dtype)
            kind, ref = self.access(inst.operands[0])
            if kind == "r":
                def do_load(regs, ctx, _a=ref, _d=dest, _t=dtype, _w=wrap):
                    regs[_d] = _w(ctx.memory.load(int(regs[_a]), _t))
                return do_load
            address = int(ref)
            def do_load_const(regs, ctx, _a=address, _d=dest, _t=dtype, _w=wrap):
                regs[_d] = _w(ctx.memory.load(_a, _t))
            return do_load_const

        if op is Opcode.STORE:
            get_value = _getter(self.access(inst.operands[0]))
            stype = inst.operands[0].type
            kind, ref = self.access(inst.operands[1])
            if kind == "r":
                def do_store(regs, ctx, _v=get_value, _a=ref, _t=stype):
                    ctx.memory.store(int(regs[_a]), _v(regs), _t)
                return do_store
            address = int(ref)
            def do_store_const(regs, ctx, _v=get_value, _a=address, _t=stype):
                ctx.memory.store(_a, _v(regs), _t)
            return do_store_const

        if op is Opcode.ALLOCA:
            get_count = _getter(self.access(inst.operands[0]))
            element = inst.alloc_type or I32
            size, alignment = element.size, element.alignment
            dest = inst.dest.id
            wrap = wrapper(inst.dest.type)
            def do_alloca(regs, ctx, _n=get_count, _s=size, _al=alignment,
                          _d=dest, _w=wrap):
                regs[_d] = _w(ctx.memory.allocate(max(4, _s * int(_n(regs))), _al))
            return do_alloca

        if op is Opcode.CALL:
            return self._build_call(inst)

        if op is Opcode.CUSTOM:
            return self._build_custom(inst)

        raise SimulationError(f"unimplemented opcode {op}")  # pragma: no cover

    # ------------------------------------------------------------------
    def _build_binary(self, inst: Instruction, fn: Callable) -> Callable:
        (ak, av) = self.access(inst.operands[0])
        (bk, bv) = self.access(inst.operands[1])
        dest = inst.dest.id
        wrap = wrapper(inst.dest.type)
        # Specialize the four operand-kind combinations so the hot path is a
        # closure call plus dict indexing — no accessor indirection.
        if ak == "r" and bk == "r":
            def op_rr(regs, ctx, _a=av, _b=bv, _d=dest, _fn=fn, _w=wrap):
                regs[_d] = _w(_fn(regs[_a], regs[_b]))
            return op_rr
        if ak == "r":
            def op_rk(regs, ctx, _a=av, _b=bv, _d=dest, _fn=fn, _w=wrap):
                regs[_d] = _w(_fn(regs[_a], _b))
            return op_rk
        if bk == "r":
            def op_kr(regs, ctx, _a=av, _b=bv, _d=dest, _fn=fn, _w=wrap):
                regs[_d] = _w(_fn(_a, regs[_b]))
            return op_kr
        def op_kk(regs, ctx, _a=av, _b=bv, _d=dest, _fn=fn, _w=wrap):
            regs[_d] = _w(_fn(_a, _b))
        return op_kk

    def _build_unary(self, inst: Instruction, fn: Callable) -> Callable:
        kind, ref = self.access(inst.operands[0])
        dest = inst.dest.id
        wrap = wrapper(inst.dest.type)
        if kind == "r":
            def op_r(regs, ctx, _a=ref, _d=dest, _fn=fn, _w=wrap):
                regs[_d] = _w(_fn(regs[_a]))
            return op_r
        def op_k(regs, ctx, _a=ref, _d=dest, _fn=fn, _w=wrap):
            regs[_d] = _w(_fn(_a))
        return op_k

    def _build_call(self, inst: Instruction) -> Callable:
        getters = tuple(_getter(self.access(a)) for a in inst.operands)
        if self.module.has_function(inst.callee):
            callee = self.program.functions[inst.callee]
        else:
            # Mirror Module.get_function's failure, but lazily: a module
            # whose bad call is never executed must still run.
            name, module_name = inst.callee, self.module.name
            def do_bad_call(regs, ctx, _n=name, _m=module_name):
                raise SimulationError(f"no function named {_n} in module {_m}")
            return do_bad_call
        if inst.dest is not None:
            dest = inst.dest.id
            wrap = wrapper(inst.dest.type)
            def do_call(regs, ctx, _g=getters, _f=callee, _d=dest, _w=wrap):
                result = ctx._call(_f, [get(regs) for get in _g])
                regs[_d] = _w(result if result is not None else 0)
            return do_call
        def do_void_call(regs, ctx, _g=getters, _f=callee):
            ctx._call(_f, [get(regs) for get in _g])
        return do_void_call

    def _build_custom(self, inst: Instruction) -> Callable:
        pattern = self.library.lookup(inst.custom_op)
        try:
            if pattern is None:
                raise SimulationError(
                    f"custom op {inst.custom_op} has no registered semantics")
            expansion = expand_pattern(pattern, inst.operands, inst.dest)
        except (SimulationError, PatternError) as exc:
            # Fail when executed, like the interpreter: a module whose bad
            # op never runs must still run.
            def do_bad_custom(regs, ctx, _e=type(exc), _m=str(exc)):
                raise _e(_m)
            return do_bad_custom
        ops = tuple(self.instruction(i) for i in expansion)
        def do_custom(regs, ctx, _ops=ops):
            for op in _ops:
                op(regs, ctx)
        return do_custom


def translate_module(module: Module) -> TranslatedProgram:
    """Translate ``module`` into threaded code.

    CUSTOM operations expand to the patterns bound in the process-wide
    extension library at translation time, the library
    :func:`~repro.exec.cache.module_fingerprint` hashes into the key.
    """
    return ModuleTranslator(module).translate()
