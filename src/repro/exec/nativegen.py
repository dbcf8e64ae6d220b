"""C renderer for the native execution engine.

Renders one IR module into a single freestanding C translation unit (no
system header; linked with ``-nostdlib``) whose semantics are
*bit-identical* to the functional interpreter on successful runs: every
register is represented as ``int64_t`` (integers and pointers — every
wrapped integer value the interpreter can produce fits) or ``double``
(floats — the interpreter stores Python floats and applies the f32
round only on destination writes, which the rendered code mirrors with
``(double)(float)`` casts).  Destination wraps inline the exact masks of
:func:`repro.ir.semantics.wrapper`, memory accesses replicate
:class:`repro.sim.Memory`'s guard/bounds checks and bump allocator, and
global addresses are baked in as constants read from
:func:`repro.sim.memory.global_layout`, the layout every engine loads.
A CUSTOM op is rendered inline as its pattern's base operations
(:func:`repro.core.patterns.expand_pattern` over the pattern registered
in the process-wide extension library), so the unit calls nothing
outside itself.

Error paths trap with a status code instead of formatting messages; the
Python runtime (:mod:`repro.exec.native`) maps them back to the
interpreter's exception types and messages.

Constructs the renderer cannot reproduce exactly (unsigned 64-bit
registers, constants outside the int64 range, float operands feeding
integer-only or CUSTOM ops, CUSTOM ops with no registered semantics,
return-type/operand class mismatches) raise
:class:`UnsupportedNativeModule`; the engine then falls back to the
threaded-code engine, so unsupported modules lose speed, not
correctness.

Deliberate divergences (error/pathological paths only, mirroring the
documented divergences of :class:`repro.exec.CompiledSimulator`):

* the maximum-step check runs per basic block, not per instruction;
* reads of never-written registers see 0 instead of raising;
* int64-overflowing float→int conversions are undefined instead of
  arbitrary precision;
* NaN comparisons follow IEEE (Python's ``min``/``max`` ordering of NaN
  operands differs), and huge ALLOCA sizes trap with clamped byte
  counts in the message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.library import global_extension_library
from ..core.patterns import PatternError, expand_pattern
from ..ir import (
    Argument, Constant, Function, GlobalVariable, Instruction, IntType, Module,
    Opcode, PointerType, UndefValue, VirtualRegister,
)
from ..ir.types import FloatType, I32, Type, VoidType
from ..sim.memory import Memory, global_layout

#: bump when the rendered C or the ctx/trap contract changes; part of the
#: native cache key via the toolchain ABI id.
RENDER_SCHEMA = 4

# Trap status codes shared with the Python runtime (repro.exec.native).
TRAP_OK = 0
TRAP_STEPS = 1
TRAP_DIV0 = 2
TRAP_REM0 = 3
TRAP_FDIV0 = 4
TRAP_OOB = 5
TRAP_OOM = 6
TRAP_FELL_OFF = 7
TRAP_BAD_CALL = 8
TRAP_DEPTH = 9

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


class UnsupportedNativeModule(Exception):
    """The module uses a construct the renderer cannot reproduce exactly."""


@dataclass(frozen=True)
class RenderedFunction:
    """ABI metadata for one rendered C function."""

    name: str
    index: int
    arg_classes: Tuple[str, ...]   # "i" (int64 slot) or "f" (double slot)
    return_class: str              # "i" or "f"
    block_base: int                # first flat visit-counter index
    n_blocks: int


@dataclass(frozen=True)
class RenderedProgram:
    """One module rendered to C, plus everything the runtime needs."""

    module_name: str
    #: the freestanding C unit; CUSTOM ops are inlined as base operations,
    #: so it calls nothing outside itself.
    source: str
    #: ABI metadata of each function's ``repro_run_<index>`` entry point.
    functions: Dict[str, RenderedFunction]
    #: length of the flat per-block visit-counter array.
    total_blocks: int
    #: callee names for TRAP_BAD_CALL sites, by fault index.
    bad_calls: Tuple[str, ...]
    #: (function, block) names by flat visit index, for trap messages.
    flat_blocks: Tuple[Tuple[str, str], ...]


# Freestanding: the fixed-width types come from the compiler's predefined
# macros and memcpy/fabs from its builtins, so the unit includes no system
# header and links with -nostdlib.
_PRELUDE = """\
typedef __INT8_TYPE__ int8_t;
typedef __INT16_TYPE__ int16_t;
typedef __INT32_TYPE__ int32_t;
typedef __INT64_TYPE__ int64_t;
typedef __UINT8_TYPE__ uint8_t;
typedef __UINT16_TYPE__ uint16_t;
typedef __UINT32_TYPE__ uint32_t;
typedef __UINT64_TYPE__ uint64_t;

typedef struct {
    uint8_t *mem;
    int64_t mem_size;
    int64_t next_free;
    int64_t steps;
    int64_t max_steps;
    int64_t taken;
    int64_t *visits;
    int64_t fault_a;
    int64_t fault_b;
    int64_t depth;
    int64_t max_depth;
    int32_t status;
    int32_t ret_flag;
} repro_ctx;
"""

#: integer-only binary opcodes (float operands are unsupported).
_INT_ONLY = {Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
             Opcode.SAR, Opcode.DIV, Opcode.REM, Opcode.NOT}

_CMP_OPS = {
    Opcode.CMPEQ: "==", Opcode.FCMPEQ: "==", Opcode.CMPNE: "!=",
    Opcode.CMPLT: "<", Opcode.FCMPLT: "<", Opcode.CMPLE: "<=",
    Opcode.FCMPLE: "<=", Opcode.CMPGT: ">", Opcode.CMPGE: ">=",
}


def _type_class(type_: Type) -> str:
    """C value class of a register/argument type: "i" or "f"."""
    if isinstance(type_, IntType):
        if type_.bits == 64 and not type_.signed:
            raise UnsupportedNativeModule("unsigned 64-bit register")
        return "i"
    if isinstance(type_, FloatType):
        return "f"
    if isinstance(type_, PointerType):
        return "i"
    raise UnsupportedNativeModule(f"register of unsupported type {type_}")


def _int_literal(value: int) -> str:
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise UnsupportedNativeModule(
            f"integer constant {value} outside the int64 range")
    if value == _INT64_MIN:
        return "(-9223372036854775807LL - 1)"
    return f"{value}LL"


def _float_literal(value: float) -> str:
    if math.isnan(value) or math.isinf(value):
        raise UnsupportedNativeModule(f"non-finite float constant {value!r}")
    return value.hex()


class _FunctionContext:
    """Per-function rendering state: register classes and block indices."""

    def __init__(self, function: Function, index: int, block_base: int) -> None:
        self.function = function
        self.index = index
        self.block_base = block_base
        self.block_index = {id(b): i for i, b in enumerate(function.blocks)}
        self.reg_class: Dict[int, str] = {}
        self.formal_ids = {a.id for a in function.arguments}

    def classify(self, register) -> str:
        klass = _type_class(register.type)
        seen = self.reg_class.get(register.id)
        if seen is None:
            self.reg_class[register.id] = klass
        elif seen != klass:
            raise UnsupportedNativeModule(
                f"register r{register.id} used as both int and float")
        return klass


class _Renderer:
    """Renders one module; use :func:`render_c_program`."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self.lines: List[str] = []
        self.bad_calls: List[str] = []
        self.flat_blocks: List[Tuple[str, str]] = []
        self.functions_meta: Dict[str, RenderedFunction] = {}
        self.global_addresses, _end = global_layout(module)
        self._fn_index = {name: i
                          for i, name in enumerate(module.functions)}

    # ------------------------------------------------------------------
    def render(self) -> RenderedProgram:
        contexts = []
        base = 0
        for index, function in enumerate(self.module.functions.values()):
            if not function.blocks:
                raise UnsupportedNativeModule(
                    f"function {function.name} has no blocks")
            ctx = _FunctionContext(function, index, base)
            contexts.append(ctx)
            for block in function.blocks:
                self.flat_blocks.append((function.name, block.name))
            base += len(function.blocks)
        total_blocks = base

        self.lines.append(f"/* module {self.module.name} — generated by "
                          f"repro.exec.nativegen schema {RENDER_SCHEMA} */")
        self.lines.append(_PRELUDE)
        for ctx in contexts:
            self.lines.append(self._prototype(ctx) + ";")
        self.lines.append("")
        for ctx in contexts:
            self._render_function(ctx)
        for ctx in contexts:
            self._render_wrapper(ctx)

        for ctx in contexts:
            function = ctx.function
            self.functions_meta[function.name] = RenderedFunction(
                name=function.name,
                index=ctx.index,
                arg_classes=tuple(_type_class(a.type)
                                  for a in function.arguments),
                return_class=self._return_class(function),
                block_base=ctx.block_base,
                n_blocks=len(function.blocks),
            )

        return RenderedProgram(
            module_name=self.module.name,
            source="\n".join(self.lines) + "\n",
            functions=self.functions_meta,
            total_blocks=total_blocks,
            bad_calls=tuple(self.bad_calls),
            flat_blocks=tuple(self.flat_blocks),
        )

    # ------------------------------------------------------------------
    def _return_class(self, function: Function) -> str:
        rt = function.return_type
        if rt is None or isinstance(rt, VoidType):
            return "i"
        return _type_class(rt)

    def _prototype(self, ctx: _FunctionContext) -> str:
        function = ctx.function
        rtype = "double" if self._return_class(function) == "f" else "int64_t"
        params = ["repro_ctx *ctx"]
        for arg in function.arguments:
            ctx.classify(arg)
            ctype = "double" if _type_class(arg.type) == "f" else "int64_t"
            params.append(f"{ctype} r{arg.id}")
        return f"static {rtype} fn_{ctx.index}({', '.join(params)})"

    # ------------------------------------------------------------------
    # Operand expressions.
    # ------------------------------------------------------------------
    def _expr(self, operand, ctx: _FunctionContext) -> Tuple[str, str]:
        """Return (value class, parenthesized C expression)."""
        if isinstance(operand, Constant):
            value = operand.value
            if isinstance(value, float):
                return "f", f"({_float_literal(value)})"
            return "i", f"({_int_literal(int(value))})"
        if isinstance(operand, GlobalVariable):
            try:
                address = self.global_addresses[operand.name]
            except KeyError:
                raise UnsupportedNativeModule(
                    f"global {operand.name} has no address") from None
            return "i", f"({address}LL)"
        if isinstance(operand, UndefValue):
            return "i", "(0)"
        if isinstance(operand, (VirtualRegister, Argument)):
            return ctx.classify(operand), f"(r{operand.id})"
        raise UnsupportedNativeModule(f"cannot render operand {operand!r}")

    def _as_int(self, klass: str, expr: str) -> str:
        """An int64-typed expression (floats truncate, like Python int())."""
        return f"((int64_t){expr})" if klass == "f" else expr

    def _as_double(self, klass: str, expr: str) -> str:
        return f"((double){expr})" if klass == "i" else expr

    def _wrap(self, type_: Type, klass: str, expr: str) -> str:
        """Destination-write wrap, mirroring repro.ir.semantics.wrapper."""
        if isinstance(type_, IntType):
            e = self._as_int(klass, expr)
            if type_.bits == 64:
                return e  # signed 64-bit wrap is the identity on int64
            if type_.signed:
                if type_.bits == 1:
                    return f"((({e}) & 1) ? -1 : 0)"
                return (f"((int64_t)(int{type_.bits}_t)"
                        f"(uint{type_.bits}_t)(uint64_t){e})")
            mask = (1 << type_.bits) - 1
            return f"((int64_t)((uint64_t){e} & {mask:#x}ULL))"
        if isinstance(type_, FloatType):
            e = self._as_double(klass, expr)
            if type_.bits == 32:
                return f"((double)(float){e})"
            return e
        if isinstance(type_, PointerType):
            e = self._as_int(klass, expr)
            return f"((int64_t)((uint64_t){e} & 0xffffffffULL))"
        raise UnsupportedNativeModule(f"destination of unsupported type {type_}")

    def _assign(self, inst: Instruction, ctx: _FunctionContext,
                klass: str, expr: str) -> str:
        dest = inst.dest
        ctx.classify(dest)
        return f"r{dest.id} = {self._wrap(dest.type, klass, expr)};"

    def _trap(self, code: int, fault_a: str = "0", fault_b: str = "0") -> str:
        return (f"{{ ctx->status = {code}; ctx->fault_a = {fault_a}; "
                f"ctx->fault_b = {fault_b}; return 0; }}")

    # ------------------------------------------------------------------
    # Function bodies.
    # ------------------------------------------------------------------
    def _render_function(self, ctx: _FunctionContext) -> None:
        function = ctx.function
        body: List[str] = []
        for bi, block in enumerate(function.blocks):
            body.append(f"B{ctx.index}_{bi}:")
            n_steps = len(block.instructions)
            body.append(f"  ctx->steps += {n_steps};")
            body.append("  if (ctx->steps > ctx->max_steps) "
                        + self._trap(TRAP_STEPS))
            body.append(f"  ctx->visits[{ctx.block_base + bi}] += 1;")
            terminated = False
            for inst in block.instructions:
                if inst.is_terminator():
                    body.extend("  " + line
                                for line in self._terminator(inst, ctx))
                    terminated = True
                    break
                body.extend("  " + line
                            for line in self._instruction(inst, ctx))
            if not terminated:
                body.append("  " + self._trap(
                    TRAP_FELL_OFF, str(ctx.block_base + bi)))

        # Declarations come after rendering so every register is known.
        decls = []
        for reg_id in sorted(ctx.reg_class):
            if reg_id in ctx.formal_ids:
                continue
            ctype = "double" if ctx.reg_class[reg_id] == "f" else "int64_t"
            init = "0.0" if ctx.reg_class[reg_id] == "f" else "0"
            decls.append(f"  {ctype} r{reg_id} = {init};")

        self.lines.append(self._prototype(ctx) + " {")
        self.lines.extend(decls)
        self.lines.extend(body)
        self.lines.append("}")
        self.lines.append("")

    def _render_wrapper(self, ctx: _FunctionContext) -> None:
        function = ctx.function
        args = []
        for j, arg in enumerate(function.arguments):
            slot = "fargs" if _type_class(arg.type) == "f" else "iargs"
            args.append(f"{slot}[{j}]")
        call = f"fn_{ctx.index}(ctx{''.join(', ' + a for a in args)})"
        self.lines.append(
            f"int64_t repro_run_{ctx.index}(repro_ctx *ctx, "
            "const int64_t *iargs, const double *fargs, double *fret) {")
        self.lines.append("  (void)iargs; (void)fargs;")
        if self._return_class(function) == "f":
            self.lines.append(f"  *fret = {call};")
            self.lines.append("  return 0;")
        else:
            self.lines.append("  *fret = 0.0;")
            self.lines.append(f"  return {call};")
        self.lines.append("}")
        self.lines.append("")

    # ------------------------------------------------------------------
    # Terminators.
    # ------------------------------------------------------------------
    def _terminator(self, inst: Instruction, ctx: _FunctionContext) -> List[str]:
        op = inst.opcode
        if op is Opcode.JUMP:
            target = ctx.block_index[id(inst.targets[0])]
            return [f"goto B{ctx.index}_{target};"]
        if op is Opcode.BRANCH:
            t = ctx.block_index[id(inst.targets[0])]
            f = ctx.block_index[id(inst.targets[1])]
            klass, cond = self._expr(inst.operands[0], ctx)
            return [f"if ({cond} != 0) {{ ctx->taken += 1; "
                    f"goto B{ctx.index}_{t}; }}",
                    f"goto B{ctx.index}_{f};"]
        if op is Opcode.RETURN:
            fn_class = self._return_class(ctx.function)
            if inst.operands:
                klass, expr = self._expr(inst.operands[0], ctx)
                if klass != fn_class:
                    raise UnsupportedNativeModule(
                        f"return value class mismatch in {ctx.function.name}")
                return ["ctx->ret_flag = 1;", f"return {expr};"]
            return ["ctx->ret_flag = 0;", "return 0;"]
        raise UnsupportedNativeModule(f"unexpected terminator {op}")

    # ------------------------------------------------------------------
    # Straight-line instructions.
    # ------------------------------------------------------------------
    def _instruction(self, inst: Instruction,
                     ctx: _FunctionContext) -> List[str]:
        op = inst.opcode

        if op in (Opcode.ADD, Opcode.SUB, Opcode.MUL,
                  Opcode.FADD, Opcode.FSUB, Opcode.FMUL):
            ka, a = self._expr(inst.operands[0], ctx)
            kb, b = self._expr(inst.operands[1], ctx)
            sym = {"add": "+", "sub": "-", "mul": "*",
                   "fadd": "+", "fsub": "-", "fmul": "*"}[op.value]
            if ka == "f" or kb == "f" or op.value.startswith("f"):
                expr = (f"({self._as_double(ka, a)} {sym} "
                        f"{self._as_double(kb, b)})")
                return [self._assign(inst, ctx, "f", expr)]
            # Unsigned arithmetic avoids signed-overflow UB; the low 64
            # bits are exact, and every destination wrap only needs those.
            expr = f"((int64_t)((uint64_t){a} {sym} (uint64_t){b}))"
            return [self._assign(inst, ctx, "i", expr)]

        if op in (Opcode.AND, Opcode.OR, Opcode.XOR):
            a = self._int_operand(inst.operands[0], ctx)
            b = self._int_operand(inst.operands[1], ctx)
            sym = {"and": "&", "or": "|", "xor": "^"}[op.value]
            return [self._assign(inst, ctx, "i", f"({a} {sym} {b})")]

        if op is Opcode.SHL:
            a = self._int_operand(inst.operands[0], ctx)
            b = self._int_operand(inst.operands[1], ctx)
            expr = f"((int64_t)((uint64_t){a} << ((uint64_t){b} & 31)))"
            return [self._assign(inst, ctx, "i", expr)]
        if op is Opcode.SHR:
            a = self._int_operand(inst.operands[0], ctx)
            b = self._int_operand(inst.operands[1], ctx)
            expr = (f"((int64_t)(((uint64_t){a} & 0xffffffffULL) >> "
                    f"((uint64_t){b} & 31)))")
            return [self._assign(inst, ctx, "i", expr)]
        if op is Opcode.SAR:
            a = self._int_operand(inst.operands[0], ctx)
            b = self._int_operand(inst.operands[1], ctx)
            expr = f"({a} >> (int)((uint64_t){b} & 31))"
            return [self._assign(inst, ctx, "i", expr)]

        if op is Opcode.DIV or op is Opcode.REM:
            a = self._int_operand(inst.operands[0], ctx)
            b = self._int_operand(inst.operands[1], ctx)
            trap = TRAP_DIV0 if op is Opcode.DIV else TRAP_REM0
            if op is Opcode.DIV:
                value = ("(_db == -1) ? (int64_t)(0 - (uint64_t)_da) "
                         ": (_da / _db)")
            else:
                value = "(_db == -1) ? 0 : (_da % _db)"
            return [
                "{",
                f"  int64_t _da = {a}; int64_t _db = {b};",
                f"  if (_db == 0) {self._trap(trap)}",
                f"  {self._assign(inst, ctx, 'i', f'({value})')}",
                "}",
            ]

        if op is Opcode.FDIV:
            ka, a = self._expr(inst.operands[0], ctx)
            kb, b = self._expr(inst.operands[1], ctx)
            return [
                "{",
                f"  double _fb = {self._as_double(kb, b)};",
                f"  if (_fb == 0.0) {self._trap(TRAP_FDIV0)}",
                f"  {self._assign(inst, ctx, 'f', f'({self._as_double(ka, a)} / _fb)')}",
                "}",
            ]

        if op is Opcode.MIN or op is Opcode.MAX:
            ka, a = self._expr(inst.operands[0], ctx)
            kb, b = self._expr(inst.operands[1], ctx)
            sym = "<" if op is Opcode.MIN else ">"
            if ka == "f" or kb == "f":
                pa, pb = self._as_double(ka, a), self._as_double(kb, b)
                expr = f"(({pa} {sym} {pb}) ? {pa} : {pb})"
                return [self._assign(inst, ctx, "f", expr)]
            expr = f"(({a} {sym} {b}) ? {a} : {b})"
            return [self._assign(inst, ctx, "i", expr)]

        if op is Opcode.ABS:
            ka, a = self._expr(inst.operands[0], ctx)
            if ka == "f":
                return [self._assign(inst, ctx, "f",
                                     f"(__builtin_fabs({a}))")]
            expr = f"(({a} < 0) ? (int64_t)(0 - (uint64_t){a}) : {a})"
            return [self._assign(inst, ctx, "i", expr)]

        if op is Opcode.NEG or op is Opcode.FNEG:
            ka, a = self._expr(inst.operands[0], ctx)
            if ka == "f" or op is Opcode.FNEG:
                return [self._assign(inst, ctx, "f",
                                     f"(-{self._as_double(ka, a)})")]
            return [self._assign(inst, ctx, "i",
                                 f"((int64_t)(0 - (uint64_t){a}))")]

        if op is Opcode.NOT:
            a = self._int_operand(inst.operands[0], ctx)
            return [self._assign(inst, ctx, "i", f"(~{a})")]

        if op in _CMP_OPS:
            ka, a = self._expr(inst.operands[0], ctx)
            kb, b = self._expr(inst.operands[1], ctx)
            sym = _CMP_OPS[op]
            if ka == "f" or kb == "f":
                expr = (f"((int64_t)({self._as_double(ka, a)} {sym} "
                        f"{self._as_double(kb, b)}))")
            else:
                expr = f"((int64_t)({a} {sym} {b}))"
            return [self._assign(inst, ctx, "i", expr)]

        if op in (Opcode.MOV, Opcode.SEXT, Opcode.ZEXT, Opcode.TRUNC):
            klass, a = self._expr(inst.operands[0], ctx)
            return [self._assign(inst, ctx, klass, a)]

        if op is Opcode.ITOF:
            klass, a = self._expr(inst.operands[0], ctx)
            return [self._assign(inst, ctx, "f", self._as_double(klass, a))]
        if op is Opcode.FTOI:
            klass, a = self._expr(inst.operands[0], ctx)
            return [self._assign(inst, ctx, "i", self._as_int(klass, a))]

        if op is Opcode.SELECT:
            kc, c = self._expr(inst.operands[0], ctx)
            kt, t = self._expr(inst.operands[1], ctx)
            kf, f = self._expr(inst.operands[2], ctx)
            if kt == "f" or kf == "f":
                expr = (f"(({c} != 0) ? {self._as_double(kt, t)} : "
                        f"{self._as_double(kf, f)})")
                return [self._assign(inst, ctx, "f", expr)]
            expr = f"(({c} != 0) ? {t} : {f})"
            return [self._assign(inst, ctx, "i", expr)]

        if op is Opcode.LOAD:
            return self._load(inst, ctx)
        if op is Opcode.STORE:
            return self._store(inst, ctx)
        if op is Opcode.ALLOCA:
            return self._alloca(inst, ctx)
        if op is Opcode.CALL:
            return self._call(inst, ctx)
        if op is Opcode.CUSTOM:
            return self._custom(inst, ctx)

        raise UnsupportedNativeModule(f"unimplemented opcode {op}")

    def _int_operand(self, operand, ctx: _FunctionContext) -> str:
        klass, expr = self._expr(operand, ctx)
        if klass != "i":
            raise UnsupportedNativeModule(
                f"float operand in integer-only op")
        return expr

    # ------------------------------------------------------------------
    # Memory operations.
    # ------------------------------------------------------------------
    def _bounds_check(self, nbytes: int) -> str:
        return (f"if (_ad < {Memory.GUARD} || _ad > ctx->mem_size - {nbytes}) "
                + self._trap(TRAP_OOB, str(nbytes), "_ad"))

    def _load(self, inst: Instruction, ctx: _FunctionContext) -> List[str]:
        ka, addr = self._expr(inst.operands[0], ctx)
        dtype = inst.dest.type
        nbytes = max(1, dtype.size)
        lines = ["{", f"  int64_t _ad = {self._as_int(ka, addr)};",
                 "  " + self._bounds_check(nbytes)]
        if isinstance(dtype, FloatType) and dtype.bits == 32:
            lines.append("  float _lf; "
                         "__builtin_memcpy(&_lf, ctx->mem + _ad, 4);")
            lines.append("  " + self._assign(inst, ctx, "f", "((double)_lf)"))
        elif isinstance(dtype, FloatType):
            lines.append("  double _ld; "
                         "__builtin_memcpy(&_ld, ctx->mem + _ad, 8);")
            lines.append("  " + self._assign(inst, ctx, "f", "(_ld)"))
        elif isinstance(dtype, (IntType, PointerType)):
            lines.append(f"  uint64_t _lv = 0; "
                         f"__builtin_memcpy(&_lv, ctx->mem + _ad, {nbytes});")
            lines.append("  " + self._assign(inst, ctx, "i", "((int64_t)_lv)"))
        else:
            raise UnsupportedNativeModule(f"load of unsupported type {dtype}")
        lines.append("}")
        return lines

    def _store(self, inst: Instruction, ctx: _FunctionContext) -> List[str]:
        kv, value = self._expr(inst.operands[0], ctx)
        ka, addr = self._expr(inst.operands[1], ctx)
        stype = inst.operands[0].type
        nbytes = max(1, stype.size)
        lines = ["{", f"  int64_t _ad = {self._as_int(ka, addr)};",
                 "  " + self._bounds_check(nbytes)]
        if isinstance(stype, FloatType) and stype.bits == 32:
            lines.append(f"  float _sf = (float){self._as_double(kv, value)}; "
                         "__builtin_memcpy(ctx->mem + _ad, &_sf, 4);")
        elif isinstance(stype, FloatType):
            lines.append(f"  double _sd = {self._as_double(kv, value)}; "
                         "__builtin_memcpy(ctx->mem + _ad, &_sd, 8);")
        else:
            lines.append(f"  uint64_t _sv = (uint64_t){self._as_int(kv, value)}; "
                         f"__builtin_memcpy(ctx->mem + _ad, &_sv, {nbytes});")
        lines.append("}")
        return lines

    def _alloca(self, inst: Instruction, ctx: _FunctionContext) -> List[str]:
        kn, count = self._expr(inst.operands[0], ctx)
        element = inst.alloc_type or I32
        size, alignment = element.size, element.alignment
        return [
            "{",
            f"  int64_t _cn = {self._as_int(kn, count)};",
            f"  int64_t _nb = (int64_t)((uint64_t){size} * (uint64_t)_cn);",
            "  if (_nb < 4) _nb = 4;",
            f"  int64_t _ad = (ctx->next_free + {alignment - 1}) / "
            f"{alignment} * {alignment};",
            f"  if (_nb > ctx->mem_size || _ad > ctx->mem_size - _nb) "
            + self._trap(TRAP_OOM, "_nb", "_ad"),
            "  ctx->next_free = _ad + _nb;",
            f"  {self._assign(inst, ctx, 'i', '(_ad)')}",
            "}",
        ]

    # ------------------------------------------------------------------
    # Calls and custom ops.
    # ------------------------------------------------------------------
    def _call(self, inst: Instruction, ctx: _FunctionContext) -> List[str]:
        if not self.module.has_function(inst.callee):
            # Lazily erroring, like the interpreter: a module whose bad
            # call is never executed must still run.
            if inst.callee not in self.bad_calls:
                self.bad_calls.append(inst.callee)
            index = self.bad_calls.index(inst.callee)
            return [self._trap(TRAP_BAD_CALL, str(index))]

        callee = self.module.get_function(inst.callee)
        if len(inst.operands) != len(callee.arguments):
            raise UnsupportedNativeModule(
                f"arity mismatch calling {inst.callee}")
        args = []
        for operand, formal in zip(inst.operands, callee.arguments):
            klass, expr = self._expr(operand, ctx)
            formal_class = _type_class(formal.type)
            if formal_class == "f":
                args.append(self._as_double(klass, expr))
            else:
                if klass == "f":
                    # The interpreter stores the raw float in the integer
                    # formal; a C truncation would diverge.
                    raise UnsupportedNativeModule(
                        f"float argument to integer parameter of {inst.callee}")
                args.append(expr)
        callee_index = self._fn_index[inst.callee]
        callee_class = self._return_class(callee)
        call = f"fn_{callee_index}(ctx{''.join(', ' + a for a in args)})"
        # ctx->depth counts active calls, the entry function included.
        enter = ["{",
                 "  if (ctx->depth >= ctx->max_depth) "
                 + self._trap(TRAP_DEPTH),
                 "  ctx->depth += 1;"]
        if inst.dest is None:
            return enter + [f"  (void){call};", "  ctx->depth -= 1;",
                            "  if (ctx->status) return 0;", "}"]
        ctype = "double" if callee_class == "f" else "int64_t"
        return enter + [
            f"  {ctype} _cv = {call};",
            "  ctx->depth -= 1;",
            "  if (ctx->status) return 0;",
            f"  {self._assign(inst, ctx, callee_class, '(_cv)')}",
            "}",
        ]

    def _custom(self, inst: Instruction, ctx: _FunctionContext) -> List[str]:
        # Pattern.evaluate reads every input through int(); the expanded
        # nodes would compute on a float input as is.
        for operand in inst.operands:
            self._int_operand(operand, ctx)
        pattern = global_extension_library().lookup(inst.custom_op)
        if pattern is None:
            raise UnsupportedNativeModule(
                f"custom op {inst.custom_op} has no registered semantics")
        try:
            expansion = expand_pattern(pattern, inst.operands, inst.dest)
        except PatternError as exc:
            raise UnsupportedNativeModule(str(exc)) from None
        return [line for i in expansion for line in self._instruction(i, ctx)]


def render_c_program(module: Module) -> RenderedProgram:
    """Render ``module`` to a C translation unit plus ABI metadata.

    Raises :class:`UnsupportedNativeModule` when the module uses a
    construct that cannot be reproduced bit-exactly; callers fall back to
    the threaded-code engine.
    """
    return _Renderer(module).render()
