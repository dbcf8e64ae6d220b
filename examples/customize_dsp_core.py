"""Customize one processor for a whole application area (a cellphone SoC core).

Paper §6.1: products are designed around a core of compute-intensive
things they must do well plus less-predictable things they may have to do.
This example customizes a 4-issue VLIW for the weighted *cellphone* mix
(Viterbi decoding, FIR filtering, saturated mixing, correlation), then
checks how the same silicon does on a kernel the customizer never saw.

Run with:  python examples/customize_dsp_core.py
"""

from __future__ import annotations

from repro.arch import estimate_area, vliw4
from repro.backend import compile_module
from repro.core import IsaCustomizer, SelectionConfig
from repro.frontend import compile_c
from repro.opt import optimize
from repro.sim import CycleSimulator
from repro.workloads import get_kernel, get_mix

#: explicit input seed so repeated runs are bit-reproducible.
SEED = 1234


def measure(machine, module, kernel, size=48):
    compiled, _ = compile_module(module, machine)
    args = kernel.arguments(size, seed=SEED)
    result = CycleSimulator(compiled).run(
        kernel.entry, *[list(a) if isinstance(a, list) else a for a in args])
    assert result.value == kernel.expected(args)
    return result.cycles


def main() -> None:
    mix = get_mix("cellphone")
    base = vliw4()
    print(f"Application area: {mix.name}  (kernels: {', '.join(mix.names())})")
    print(f"Base machine    : {base.describe()}\n")

    # Compile the whole mix to optimized IR.
    modules = {}
    for kernel, weight in mix.kernels():
        module = compile_c(kernel.source, module_name=kernel.name)
        optimize(module, level=3)
        modules[kernel.name] = (module, weight)

    # Baseline cycles.
    baseline = {name: measure(base, module, get_kernel(name))
                for name, (module, _w) in modules.items()}

    # Customize once for the weighted area.
    customizer = IsaCustomizer(
        base,
        selection_config=SelectionConfig(area_budget_kgates=45.0, max_operations=8),
    )
    result = customizer.customize_for_area(
        [(module, weight) for module, weight in modules.values()],
        name="cellphone_core",
    )
    print(result.report.summary())
    for op_name, operation in sorted(result.machine.custom_ops.items()):
        print(f"   {op_name}: {operation.num_inputs} in / {operation.num_outputs} out, "
              f"{operation.latency} cycle(s), {operation.area_kgates:.1f} kgates, "
              f"fuses {operation.fused_ops} primitive ops")

    print(f"\n{'kernel':<16} {'weight':>6} {'base':>8} {'custom':>8} {'speedup':>8}")
    for name, (module, weight) in modules.items():
        cycles = measure(result.machine, module, get_kernel(name))
        print(f"{name:<16} {weight:>6.1f} {baseline[name]:>8} {cycles:>8} "
              f"{baseline[name] / cycles:>8.2f}x")

    # A kernel from the same area the customizer never saw: apply the
    # customized machine's operations.
    held_out = get_kernel("sad16")
    unseen = compile_c(held_out.source, module_name=held_out.name)
    optimize(unseen, level=3)
    before = measure(base, unseen.clone(), held_out)
    customizer.apply_to(unseen, result.machine)
    after = measure(result.machine, unseen, held_out)
    print(f"\nheld-out kernel {held_out.name}: {before} -> {after} cycles "
          f"({before / after:.2f}x) using the area's fused ops")

    base_area = estimate_area(base).core
    custom_area = estimate_area(result.machine).core
    print(f"\nSilicon: {base_area:.0f} -> {custom_area:.0f} kgates "
          f"(+{100 * (custom_area - base_area) / base_area:.1f}%)")


if __name__ == "__main__":
    main()
