"""Expansion of a :class:`~repro.gen.spec.WorkloadSpec` into a kernel.

The generator builds a small statement/expression AST and renders it
*twice* — once as C for :mod:`repro.frontend.c_frontend`, once as Python
for the oracle — so every generated kernel is self-checking by
construction: both renderings come from the same tree, and the Python
side wraps every binary operation to 32-bit two's-complement exactly as
the IR simulators do.

Safety discipline (what makes every generated program well-defined):

* array indexes are either a loop variable (bounded by the loop) or an
  expression masked with ``& (footprint - 1)``, and every runtime array
  is at least ``footprint`` elements long (``& 255`` for the 256-entry
  lookup tables);
* shift amounts are small constants (1..8), and ``/`` and ``%`` are
  never generated (C truncation vs. Python floor, division by zero);
* loops run ``for (v = 0; v < bound; v = v + 1)`` with ``bound`` either
  ``n`` or a positive constant, so both renderings agree on trip counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple, Union

from ..ir.types import I32
from ..workloads.kernels import Kernel, draw_ints
from .spec import OP_BUCKETS, WorkloadSpec

_W = I32.wrap

#: comparison operators usable in conditions and selects.
_CMPS = ("<", "<=", ">", ">=", "==", "!=")


# ----------------------------------------------------------------------
# Expression nodes.
# ----------------------------------------------------------------------

class Expr:
    """Base expression node; renders to C and to wrapped Python."""

    def c(self) -> str:
        raise NotImplementedError

    def py(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    value: int

    def c(self) -> str:
        return str(self.value) if self.value >= 0 else f"({self.value})"

    def py(self) -> str:
        return self.c()


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def c(self) -> str:
        return self.name

    def py(self) -> str:
        return self.name


@dataclass(frozen=True)
class Load(Expr):
    array: str
    index: Expr

    def c(self) -> str:
        return f"{self.array}[{self.index.c()}]"

    def py(self) -> str:
        return f"{self.array}[{self.index.py()}]"


@dataclass(frozen=True)
class Bin(Expr):
    op: str
    lhs: Expr
    rhs: Expr

    def c(self) -> str:
        return f"({self.lhs.c()} {self.op} {self.rhs.c()})"

    def py(self) -> str:
        # Every binary op wraps to signed 32 bits, mirroring the IR
        # semantics the C rendering compiles to.
        return f"_w({self.lhs.py()} {self.op} {self.rhs.py()})"


@dataclass(frozen=True)
class Select(Expr):
    """``(a cmp b) ? t : f`` — both arms pure, evaluated eagerly."""

    cmp: str
    a: Expr
    b: Expr
    t: Expr
    f: Expr

    def c(self) -> str:
        return (f"(({self.a.c()} {self.cmp} {self.b.c()}) ? "
                f"{self.t.c()} : {self.f.c()})")

    def py(self) -> str:
        return (f"({self.t.py()} if ({self.a.py()} {self.cmp} {self.b.py()}) "
                f"else {self.f.py()})")


# ----------------------------------------------------------------------
# Statement nodes.
# ----------------------------------------------------------------------

class Stmt:
    pass


@dataclass
class Assign(Stmt):
    name: str
    expr: Expr


@dataclass
class ArrayStore(Stmt):
    array: str
    index: Expr
    expr: Expr


@dataclass
class If(Stmt):
    cmp: str
    a: Expr
    b: Expr
    then: List[Stmt]
    orelse: List[Stmt] = field(default_factory=list)


@dataclass
class For(Stmt):
    var: str
    bound: Union[int, str]   # "n" or a positive constant
    body: List[Stmt] = field(default_factory=list)


@dataclass
class GenFunction:
    """A complete generated function, renderable to C and Python."""

    name: str
    arrays: List["ArrayParam"]
    body: List[Stmt]
    ret: Expr
    scalars: List[str]


@dataclass(frozen=True)
class ArrayParam:
    """One pointer parameter and how the input builder fills it."""

    name: str
    role: str            # "input" | "output" | "table"


# ----------------------------------------------------------------------
# Rendering.
# ----------------------------------------------------------------------

def _emit_c(stmt: Stmt, lines: List[str], indent: int) -> None:
    pad = "    " * indent
    if isinstance(stmt, Assign):
        lines.append(f"{pad}{stmt.name} = {stmt.expr.c()};")
    elif isinstance(stmt, ArrayStore):
        lines.append(f"{pad}{stmt.array}[{stmt.index.c()}] = {stmt.expr.c()};")
    elif isinstance(stmt, If):
        lines.append(f"{pad}if ({stmt.a.c()} {stmt.cmp} {stmt.b.c()}) {{")
        for inner in stmt.then:
            _emit_c(inner, lines, indent + 1)
        if stmt.orelse:
            lines.append(f"{pad}}} else {{")
            for inner in stmt.orelse:
                _emit_c(inner, lines, indent + 1)
        lines.append(f"{pad}}}")
    elif isinstance(stmt, For):
        v = stmt.var
        lines.append(f"{pad}for (int {v} = 0; {v} < {stmt.bound}; "
                     f"{v} = {v} + 1) {{")
        for inner in stmt.body:
            _emit_c(inner, lines, indent + 1)
        lines.append(f"{pad}}}")
    else:  # pragma: no cover - exhaustive over the node kinds above
        raise TypeError(f"unknown statement node {type(stmt).__name__}")


def _emit_py(stmt: Stmt, lines: List[str], indent: int) -> None:
    pad = "    " * indent
    if isinstance(stmt, Assign):
        lines.append(f"{pad}{stmt.name} = {stmt.expr.py()}")
    elif isinstance(stmt, ArrayStore):
        lines.append(f"{pad}{stmt.array}[{stmt.index.py()}] = {stmt.expr.py()}")
    elif isinstance(stmt, If):
        lines.append(f"{pad}if {stmt.a.py()} {stmt.cmp} {stmt.b.py()}:")
        for inner in stmt.then:
            _emit_py(inner, lines, indent + 1)
        if stmt.orelse:
            lines.append(f"{pad}else:")
            for inner in stmt.orelse:
                _emit_py(inner, lines, indent + 1)
    elif isinstance(stmt, For):
        lines.append(f"{pad}for {stmt.var} in range({stmt.bound}):")
        for inner in stmt.body:
            _emit_py(inner, lines, indent + 1)
    else:  # pragma: no cover
        raise TypeError(f"unknown statement node {type(stmt).__name__}")


def render_c(fn: GenFunction) -> str:
    params = ", ".join([f"int *{a.name}" for a in fn.arrays] + ["int n"])
    lines = [f"int {fn.name}({params}) {{"]
    for name in fn.scalars:
        lines.append(f"    int {name} = 0;")
    for stmt in fn.body:
        _emit_c(stmt, lines, 1)
    lines.append(f"    return {fn.ret.c()};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_py(fn: GenFunction) -> str:
    params = ", ".join([a.name for a in fn.arrays] + ["n"])
    lines = [f"def {fn.name}({params}):"]
    # Mirror the C rendering's zero-initialized declarations so scalars
    # read before their first in-branch assignment agree.
    for name in fn.scalars:
        lines.append(f"    {name} = 0")
    for stmt in fn.body:
        _emit_py(stmt, lines, 1)
    lines.append(f"    return _w({fn.ret.py()})")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Random expression sampling.
# ----------------------------------------------------------------------

class _Sampler:
    """Seeded drawing of operators, constants and bounded expressions."""

    def __init__(self, rng: random.Random, spec: WorkloadSpec) -> None:
        self.rng = rng
        self.spec = spec
        ops: List[str] = []
        weights: List[float] = []
        for bucket, weight in spec.op_mix:
            for op in OP_BUCKETS[bucket]:
                ops.append(op)
                weights.append(weight)
        self._ops = ops
        self._weights = weights
        # Spec validation guarantees this subset is non-empty.
        self._nonshift = [(op, w) for op, w in zip(ops, weights)
                          if op not in ("<<", ">>") and w > 0]

    def const(self, lo: int = -64, hi: int = 64) -> Const:
        return Const(self.rng.randint(lo, hi))

    def cmp(self) -> str:
        return self.rng.choice(_CMPS)

    def op(self) -> str:
        return self.rng.choices(self._ops, weights=self._weights, k=1)[0]

    def op_nonshift(self) -> str:
        """An operator safe for a non-constant right operand.

        Shifts are only ever generated with small constant amounts (a
        data-dependent amount could be negative or >= 32, where C and
        Python semantics diverge).
        """
        ops = [op for op, _w in self._nonshift]
        weights = [w for _op, w in self._nonshift]
        return self.rng.choices(ops, weights=weights, k=1)[0]

    def expr(self, leaves: Sequence[Expr], depth: int) -> Expr:
        """A random expression over ``leaves``, at most ``depth`` ops deep."""
        if depth <= 0 or self.rng.random() < 0.25:
            return self.rng.choice(list(leaves))
        op = self.op()
        if op in ("<<", ">>"):
            return Bin(op, self.expr(leaves, depth - 1),
                       Const(self.rng.randint(1, 8)))
        return Bin(op, self.expr(leaves, depth - 1),
                   self.expr(leaves, depth - 1))


def _masked(expr: Expr, mask: int) -> Expr:
    """An always-in-range index: ``expr & mask`` (mask = footprint - 1)."""
    return Bin("&", expr, Const(mask))


def _narrow(expr: Expr, data_bits: int) -> Expr:
    """Narrow an operand to the spec's data width (identical in C/Python)."""
    if data_bits >= 32:
        return expr
    return Bin("&", expr, Const((1 << data_bits) - 1))


# ----------------------------------------------------------------------
# Family bodies.
# ----------------------------------------------------------------------

def _family_streaming_dsp(spec: WorkloadSpec, s: _Sampler
                          ) -> Tuple[List[ArrayParam], List[Stmt], Expr, List[str]]:
    mask = spec.footprint - 1
    arrays = [ArrayParam("x", "input"), ArrayParam("h", "input"),
              ArrayParam("y", "output")]
    i, j = Var("i"), Var("j")
    shift = s.rng.randint(2, 8)
    rounding = Const(1 << (shift - 1))
    if spec.depth == 2:
        inner = For("j", spec.taps, [
            Assign("s0", Bin("+", Var("s0"),
                             Bin("*",
                                 _narrow(Load("x", _masked(Bin("+", i, j), mask)),
                                         spec.data_bits),
                                 Load("h", j)))),
        ])
        body_loop = [
            Assign("s0", Const(0)),
            inner,
            Assign("t0", Bin(">>", Bin("+", Var("s0"), rounding), Const(shift))),
            ArrayStore("y", i, Var("t0")),
            Assign("acc", Bin("+", Var("acc"), Var("t0"))),
        ]
        scalars = ["acc", "s0", "t0"]
    else:
        leaves = [
            _narrow(Load("x", i), spec.data_bits),
            _narrow(Load("x", _masked(Bin("+", i, s.const(1, mask)), mask)),
                    spec.data_bits),
            Load("h", _masked(Bin("*", i, Const(spec.stride)), mask)),
            s.const(-32, 32),
        ]
        e = s.expr(leaves, spec.expr_depth)
        body_loop = [
            Assign("t0", Bin(">>", Bin("+", e, rounding), Const(shift))),
            ArrayStore("y", i, Var("t0")),
            Assign("acc", Bin("+", Var("acc"), Var("t0"))),
        ]
        scalars = ["acc", "t0"]
    body = [For("i", "n", body_loop)]
    return arrays, body, Var("acc"), scalars


def _family_control_heavy(spec: WorkloadSpec, s: _Sampler
                          ) -> Tuple[List[ArrayParam], List[Stmt], Expr, List[str]]:
    arrays = [ArrayParam("a", "input"), ArrayParam("b", "input")]
    i = Var("i")
    v, w = Var("v"), Var("w")
    branches = max(1, round(spec.branch_density * 4))
    body_loop: List[Stmt] = [
        Assign("v", _narrow(Load("a", i), spec.data_bits)),
        Assign("w", _narrow(Load("b", i), spec.data_bits)),
    ]
    leaves = [v, w, s.const(-16, 16)]
    for _ in range(branches):
        cond_rhs = w if s.rng.random() < 0.5 else s.const(-32, 32)
        then = [Assign("acc", Bin(s.op_nonshift() if s.rng.random() < 0.5 else "+",
                                  Var("acc"), s.expr(leaves, spec.expr_depth)))]
        if s.rng.random() < 0.4:
            # One nested data-dependent branch.
            then.append(If(s.cmp(), v, s.const(-16, 16),
                           [Assign("acc2", Bin("^", Var("acc2"),
                                               s.expr(leaves, 1)))]))
        orelse: List[Stmt] = []
        if s.rng.random() < 0.7:
            orelse = [Assign("acc2", Bin("+", Var("acc2"),
                                         s.expr(leaves, spec.expr_depth)))]
        body_loop.append(If(s.cmp(), v, cond_rhs, then, orelse))
    body = [For("i", "n", body_loop)]
    ret = Bin("+", Var("acc"), Bin("^", Var("acc2"), Const(3)))
    return arrays, body, ret, ["acc", "acc2", "v", "w"]


def _family_table_lookup(spec: WorkloadSpec, s: _Sampler
                         ) -> Tuple[List[ArrayParam], List[Stmt], Expr, List[str]]:
    mask = spec.footprint - 1
    arrays = [ArrayParam("data", "input"), ArrayParam("lut", "table")]
    i = Var("i")
    first = Bin("&", Bin("+", _narrow(Load("data", i), spec.data_bits),
                         Bin("*", i, Const(spec.stride))), Const(255))
    body_loop: List[Stmt] = [
        Assign("idx", first),
        Assign("t0", Load("lut", Var("idx"))),
        # Second, dependent lookup: the table value feeds the next index.
        Assign("idx", Bin("&", Bin("+", Var("t0"),
                                   Load("data", _masked(Bin("+", i, Const(1)),
                                                        mask))), Const(255))),
        Assign("t1", Load("lut", Var("idx"))),
        Assign("acc", Bin("+", Var("acc"),
                          s.expr([Var("t0"), Var("t1"), s.const(-8, 8)],
                                 spec.expr_depth))),
        Assign("acc2", Bin("^", Var("acc2"),
                           Bin("<<", Var("t1"), Const(s.rng.randint(1, 4))))),
    ]
    body = [For("i", "n", body_loop)]
    ret = Bin("+", Var("acc"), Var("acc2"))
    return arrays, body, ret, ["acc", "acc2", "idx", "t0", "t1"]


def _family_reduction(spec: WorkloadSpec, s: _Sampler
                      ) -> Tuple[List[ArrayParam], List[Stmt], Expr, List[str]]:
    arrays = [ArrayParam("a", "input"), ArrayParam("b", "input")]
    i = Var("i")
    mask = spec.footprint - 1
    leaves = [
        _narrow(Load("a", i), spec.data_bits),
        _narrow(Load("b", i), spec.data_bits),
        Load("a", _masked(Bin("*", i, Const(spec.stride)), mask)),
        s.const(-32, 32),
    ]
    body_loop: List[Stmt] = [
        Assign("r0", s.expr(leaves, spec.expr_depth)),
        Assign("total", Bin("+", Var("total"), Var("r0"))),
        Assign("xr", Bin("^", Var("xr"), s.expr(leaves, 1))),
        Assign("mx", Select(">", Var("r0"), Var("mx"), Var("r0"), Var("mx"))),
    ]
    body = [For("i", "n", body_loop)]
    ret = Bin("+", Bin("+", Var("total"), Bin("&", Var("xr"), Const(0xFFFF))),
              Var("mx"))
    return arrays, body, ret, ["total", "xr", "mx", "r0"]


def _family_memory_mixed(spec: WorkloadSpec, s: _Sampler
                         ) -> Tuple[List[ArrayParam], List[Stmt], Expr, List[str]]:
    mask = spec.footprint - 1
    arrays = [ArrayParam("a", "input"), ArrayParam("b", "input"),
              ArrayParam("out", "output")]
    i = Var("i")
    stride2 = s.rng.choice((3, 5, 7))
    body_loop: List[Stmt] = [
        Assign("p", _masked(Bin("*", i, Const(spec.stride)), mask)),
        Assign("q", _masked(Bin("+", Bin("*", i, Const(stride2)),
                                s.const(0, mask)), mask)),
        Assign("u", _narrow(Load("a", Var("p")), spec.data_bits)),
        Assign("v", _narrow(Load("b", Var("q")), spec.data_bits)),
        # Two independent accumulator chains (exploitable ILP).
        Assign("acc0", Bin("+", Var("acc0"),
                           s.expr([Var("u"), Var("v"), s.const(-16, 16)],
                                  spec.expr_depth))),
        Assign("acc1", Bin("^", Var("acc1"),
                           s.expr([Var("u"), Var("v"), s.const(-16, 16)],
                                  spec.expr_depth))),
        ArrayStore("out", Var("p"), Bin(s.op_nonshift(), Var("u"), Var("v"))),
    ]
    body = [For("i", "n", body_loop)]
    ret = Bin("+", Var("acc0"), Var("acc1"))
    return arrays, body, ret, ["acc0", "acc1", "p", "q", "u", "v"]


_FAMILY_BUILDERS: Dict[str, Callable] = {
    "streaming_dsp": _family_streaming_dsp,
    "control_heavy": _family_control_heavy,
    "table_lookup": _family_table_lookup,
    "reduction": _family_reduction,
    "memory_mixed": _family_memory_mixed,
}


# ----------------------------------------------------------------------
# Kernel assembly.
# ----------------------------------------------------------------------

#: per-data-width input value ranges.
_INPUT_RANGES = {8: (0, 255), 16: (-3000, 3000), 32: (-30000, 30000)}


def _make_args_builder(arrays: Sequence[ArrayParam],
                       spec: WorkloadSpec) -> Callable[[int, int], tuple]:
    lo, hi = _INPUT_RANGES[spec.data_bits]
    footprint = spec.footprint
    roles = tuple((a.name, a.role) for a in arrays)

    def build(n: int, seed: int) -> tuple:
        # Masked indexing requires at least ``footprint`` elements.
        n = max(int(n or 0), footprint)
        args: List[object] = []
        for k, (_name, role) in enumerate(roles):
            draw_seed = seed + 1000003 * (k + 1)
            if role == "table":
                args.append(draw_ints(draw_seed, 256, 0, 255))
            elif role == "output":
                args.append([0] * n)
            else:
                args.append(draw_ints(draw_seed, n, lo, hi))
        args.append(n)
        return tuple(args)

    return build


@dataclass
class GeneratedKernel:
    """A spec expanded to a registered-suite-compatible kernel."""

    spec: WorkloadSpec
    kernel: Kernel
    c_source: str
    python_source: str

    @property
    def name(self) -> str:
        return self.kernel.name

    @property
    def family(self) -> str:
        return self.spec.family


def build_function(spec: WorkloadSpec) -> GenFunction:
    """Expand ``spec`` into the shared AST (deterministic in the spec)."""
    rng = random.Random(spec.seed)
    sampler = _Sampler(rng, spec)
    arrays, body, ret, scalars = _FAMILY_BUILDERS[spec.family](spec, sampler)
    return GenFunction(name=spec.kernel_name(), arrays=arrays, body=body,
                       ret=ret, scalars=scalars)


def generate_kernel(spec: WorkloadSpec) -> GeneratedKernel:
    """Expand ``spec`` into C source + Python oracle + input builder."""
    fn = build_function(spec)
    c_source = render_c(fn)
    python_source = render_py(fn)

    namespace: Dict[str, object] = {"_w": _W}
    exec(compile(python_source, f"<generated:{fn.name}>", "exec"), namespace)
    reference = namespace[fn.name]

    kernel = Kernel(
        name=fn.name,
        domain=f"gen:{spec.family}",
        description=(f"generated {spec.family} kernel "
                     f"(seed {spec.seed}, depth {spec.depth}, "
                     f"{spec.data_bits}-bit data, stride {spec.stride})"),
        source=c_source,
        entry=fn.name,
        make_args=_make_args_builder(fn.arrays, spec),
        reference=reference,
        default_size=max(spec.size, spec.footprint),
    )
    return GeneratedKernel(spec=spec, kernel=kernel, c_source=c_source,
                           python_source=python_source)
