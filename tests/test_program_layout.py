"""One program layout for every engine.

:class:`repro.sim.ProgramImage` alone decides where a program's data
lives: the globals at :func:`repro.sim.memory.global_layout`'s
addresses, then the spill area, then the lowered call arguments.  The
interpreter, the compiled, native, cycle and trace-capture engines must
all report that one layout and put a run's arguments where it says.
Loading a program writes nothing into its IR, so a module's binary
image is the same before and after any simulator has run it, and a
clone made after a run encodes the same too.
"""

from __future__ import annotations

import pytest

from repro.arch import vliw4
from repro.backend import compile_module, encode_module
from repro.exec import CompiledSimulator, NativeSimulator, native_available
from repro.frontend import compile_c
from repro.ir import I32
from repro.model.trace import _TracingSimulator
from repro.opt import optimize
from repro.sim import CycleSimulator, FunctionalSimulator
from repro.sim.memory import global_layout

#: a large array ahead of a scalar, so the scalar's address needs more
#: than the encoding's low immediate bits.
SOURCE = """
int big[2048];
int scale = 7;
int f(int *x, int n) {
  int i;
  int acc = 0;
  for (i = 0; i < n; i = i + 1) {
    big[i] = x[i] * scale;
    acc = acc + big[i];
  }
  return acc;
}
"""

ARGUMENT = [3, -1, 4, 1, -5, 9, 2, -6]
EXPECTED = sum(7 * value for value in ARGUMENT)


def _compiled():
    module = compile_c(SOURCE, module_name="layout")
    optimize(module, level=2)
    compiled, _report = compile_module(module, vliw4())
    return compiled


def test_global_layout_places_globals_in_declaration_order():
    addresses, end = global_layout(_compiled().source)
    assert addresses == {"big": 64, "scale": 64 + 4 * 2048}
    assert end == 64 + 4 * 2048 + 4


def test_binary_image_does_not_depend_on_runs():
    compiled = _compiled()
    before = encode_module(compiled).words
    assert FunctionalSimulator(compiled.source).run(
        "f", list(ARGUMENT), len(ARGUMENT)) == EXPECTED
    assert CycleSimulator(compiled).run(
        "f", list(ARGUMENT), len(ARGUMENT)).value == EXPECTED
    assert encode_module(compiled).words == before
    recompiled, _report = compile_module(compiled.source.clone(), vliw4())
    assert encode_module(recompiled).words == before


ENGINES = [
    pytest.param(lambda compiled: FunctionalSimulator(compiled.source),
                 id="interpreter"),
    pytest.param(lambda compiled: CompiledSimulator(compiled.source),
                 id="compiled"),
    pytest.param(lambda compiled: NativeSimulator(compiled.source),
                 id="native",
                 marks=pytest.mark.skipif(not native_available(),
                                          reason="no C compiler on this host")),
    pytest.param(CycleSimulator, id="cycle"),
    pytest.param(lambda compiled: _TracingSimulator(compiled.source),
                 id="trace"),
]


@pytest.mark.parametrize("make", ENGINES)
def test_every_engine_loads_one_layout(make):
    compiled = _compiled()
    simulator = make(compiled)
    image = simulator.image
    assert image.global_addresses == {"big": 64, "scale": 8256}
    assert image.spill_area == 8272
    assert image.first_free == 8272 + 4096

    result = simulator.run("f", list(ARGUMENT), len(ARGUMENT))
    assert getattr(result, "value", result) == EXPECTED
    # The array argument was lowered to the first free address, and the
    # run stored into the globals at their laid-out addresses.
    memory = image.memory
    assert memory.read_array(image.first_free, len(ARGUMENT),
                             I32) == ARGUMENT
    assert memory.read_array(64, len(ARGUMENT), I32) == [
        7 * value for value in ARGUMENT]
    assert memory.load(8256, I32) == 7
