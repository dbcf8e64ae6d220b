"""Golden bit-identity of the cycle simulator.

``tests/data/cycle_golden.json`` holds the complete
:class:`~repro.sim.cycle.SimulationResult` of a fixed set of runs: the
returned value, every :class:`~repro.sim.cycle.CycleStatistics` field,
both caches' :class:`~repro.sim.cache.CacheStatistics` and the three
energy fields as ``float.hex`` strings.  The runs are

* every preset machine × every built-in kernel (O2, size 32, seed 1);
* O3-customized ``crc32``, ``fir_filter`` and ``sad16`` on ``vliw4``,
  whose custom-op energy is not a multiple of 0.5 pJ, so any change in
  the order energy is charged shows up in the last bits;
* an O0 module that keeps a call (call overhead, nested activations).

Every field must match exactly.  Regenerate the file (only after a
deliberate change to the timing or energy model) with::

    PYTHONPATH=src python tests/test_cycle_golden.py --write
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.arch.presets import PRESETS, get_preset
from repro.backend import compile_module
from repro.core import customize_isa
from repro.frontend import compile_c
from repro.opt import optimize
from repro.sim.cycle import CycleSimulator
from repro.workloads import KERNELS, get_kernel
from repro.workloads.kernels import copy_run_args

GOLDEN = Path(__file__).resolve().parent / "data" / "cycle_golden.json"

SIZE = 32
SEED = 1
CUSTOMIZED = ("crc32", "fir_filter", "sad16")
CALL_SOURCE = (
    "int helper(int x){return x * 3 + 1;}\n"
    "int f(int n){int s = 0; for (int i = 0; i < n; i++) "
    "{s += helper(i);} return s;}"
)


def record(result) -> dict:
    """The JSON form of one SimulationResult, floats as exact hex."""
    def cache(stats):
        return None if stats is None else dataclasses.asdict(stats)

    return {
        "value": result.value,
        "stats": dataclasses.asdict(result.stats),
        "icache": cache(result.icache),
        "dcache": cache(result.dcache),
        "energy": {name: float.hex(getattr(result.energy, name))
                   for name in ("dynamic_pj", "static_pj", "cache_pj")},
    }


def _module(source: str, level: int):
    module = compile_c(source)
    optimize(module, level=level)
    return module


def run_preset_cell(machine_name: str, kernel_name: str) -> dict:
    kernel = get_kernel(kernel_name)
    compiled, _ = compile_module(_module(kernel.source, 2),
                                 get_preset(machine_name))
    args = kernel.arguments(SIZE, seed=SEED)
    return record(CycleSimulator(compiled).run(kernel.entry,
                                               *copy_run_args(args)))


def run_customized(kernel_name: str) -> dict:
    kernel = get_kernel(kernel_name)
    module = _module(kernel.source, 3)
    result = customize_isa(module, get_preset("vliw4"),
                           area_budget_kgates=40.0)
    compiled, _ = compile_module(module, result.machine)
    args = kernel.arguments(SIZE, seed=SEED)
    return record(CycleSimulator(compiled).run(kernel.entry,
                                               *copy_run_args(args)))


def run_call() -> dict:
    compiled, _ = compile_module(_module(CALL_SOURCE, 0), get_preset("vliw4"))
    return record(CycleSimulator(compiled).run("f", 9))


def cases():
    """(case id, thunk) for every golden run."""
    for machine_name in sorted(PRESETS):
        for kernel_name in sorted(KERNELS):
            yield (f"{machine_name}/{kernel_name}",
                   lambda m=machine_name, k=kernel_name: run_preset_cell(m, k))
    for kernel_name in CUSTOMIZED:
        yield (f"vliw4-custom/{kernel_name}",
               lambda k=kernel_name: run_customized(k))
    yield "vliw4-o0/call", run_call


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


CASES = dict(cases())


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cycle_simulation_is_bit_identical(case):
    assert CASES[case]() == _golden()[case]


def test_customized_runs_execute_custom_ops():
    golden = _golden()
    for kernel_name in CUSTOMIZED:
        assert golden[f"vliw4-custom/{kernel_name}"]["stats"][
            "custom_ops_executed"] > 0
    assert golden["vliw4-o0/call"]["stats"]["call_overhead_cycles"] > (
        CycleSimulator.CALL_OVERHEAD)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_cycle_golden.py --write")
    from repro.core import reset_global_library

    golden = {}
    for case, run in CASES.items():
        reset_global_library()
        golden[case] = run()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}")
