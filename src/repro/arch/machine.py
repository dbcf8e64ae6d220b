"""Table-driven machine descriptions for the customizable VLIW family.

A :class:`MachineDescription` is the single "table" the whole toolchain is
driven from (paper §3.1): the compiler back end reads it to schedule and
allocate, the simulators read it to time execution, the area/power models
read it to cost the design, and the customizer writes extended copies of it
when it adds application-specific operations.

Every field corresponds to one of the "visible changes" §1.2 enumerates:
multiple visible ALUs (``functional_units`` / ``issue_width``), number of
registers (``registers_per_cluster``), register clusters (``num_clusters``),
specialized ALUs (unit ``classes`` and ``has_*`` switches), changed
latencies (``latency_overrides``), visible instruction compression
(``compressed_encoding``), and custom operations (``custom_ops``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .operations import DEFAULT_LATENCY, OperationClass


class MachineConfigError(Exception):
    """Raised when a machine description is internally inconsistent."""


@dataclass
class FunctionalUnit:
    """One issue slot resource: a unit able to execute a set of op classes."""

    name: str
    classes: frozenset
    count: int = 1

    def __post_init__(self) -> None:
        self.classes = frozenset(
            OperationClass(c) if not isinstance(c, OperationClass) else c
            for c in self.classes
        )
        if self.count < 1:
            raise MachineConfigError(f"functional unit {self.name} needs count >= 1")

    def can_execute(self, op_class: OperationClass) -> bool:
        return op_class in self.classes


@dataclass
class CustomOperation:
    """An application-specific operation added to the ISA.

    The semantics of the operation are carried by the
    :class:`repro.core.patterns.Pattern` registered under the same name in
    the process-wide :class:`repro.core.library.ExtensionLibrary`; the machine
    description only records its pipeline/cost characteristics.
    """

    name: str
    num_inputs: int
    num_outputs: int
    latency: int
    area_kgates: float
    #: number of primitive IR operations the custom op replaces (bookkeeping
    #: for reports; the true semantics live in the pattern).
    fused_ops: int = 0

    def __post_init__(self) -> None:
        if self.num_inputs < 0 or self.num_outputs < 1:
            raise MachineConfigError(f"custom op {self.name}: bad arity")
        if self.latency < 1:
            raise MachineConfigError(f"custom op {self.name}: latency must be >= 1")


@dataclass
class CacheConfig:
    """A simple direct-mapped / set-associative cache description."""

    size_bytes: int = 8192
    line_bytes: int = 32
    associativity: int = 1
    hit_latency: int = 0      # extra cycles on a hit (0 = pipelined)
    miss_penalty: int = 20    # cycles to main memory

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.associativity) != 0:
            raise MachineConfigError("cache size must be a multiple of line*assoc")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass
class MachineDescription:
    """The complete architecturally-visible description of a family member."""

    name: str = "machine"
    #: operations issued per cycle (the VLIW word width).
    issue_width: int = 1
    #: number of register clusters; registers and FUs are split evenly.
    num_clusters: int = 1
    #: general-purpose registers in each cluster's register file.
    registers_per_cluster: int = 32
    #: functional units (shared across clusters; per-cluster count is
    #: ``count / num_clusters`` rounded up when clustering).
    functional_units: List[FunctionalUnit] = field(default_factory=list)
    #: per-class latency overrides (cycles).
    latency_overrides: Dict[OperationClass, int] = field(default_factory=dict)
    #: taken-branch penalty in cycles.
    branch_penalty: int = 1
    #: cycles to move a value between clusters.
    intercluster_latency: int = 1
    #: custom (application-specific) operations, keyed by name.
    custom_ops: Dict[str, CustomOperation] = field(default_factory=dict)
    #: instruction caches / data caches (None disables modelling).
    icache: Optional[CacheConfig] = None
    dcache: Optional[CacheConfig] = None
    #: bits per operation syllable in the encoding (§1.2 "visible
    #: instruction compression" shrinks this).
    syllable_bits: int = 32
    compressed_encoding: bool = False
    #: clock period in nanoseconds (used by the performance/price models).
    clock_ns: float = 5.0
    #: free-form provenance notes (which base machine, what was customized).
    notes: str = ""

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if not self.functional_units:
            self.functional_units = default_functional_units(self.issue_width)
        self.validate()

    def validate(self) -> None:
        """Check internal consistency; raise :class:`MachineConfigError`."""
        if self.issue_width < 1:
            raise MachineConfigError("issue width must be at least 1")
        if self.num_clusters < 1:
            raise MachineConfigError("need at least one cluster")
        if self.issue_width % self.num_clusters != 0:
            raise MachineConfigError(
                "issue width must be divisible by the number of clusters"
            )
        if self.registers_per_cluster < 4:
            raise MachineConfigError("need at least 4 registers per cluster")
        total_units = sum(fu.count for fu in self.functional_units)
        if total_units < 1:
            raise MachineConfigError("machine has no functional units")
        covered = set()
        for fu in self.functional_units:
            covered |= fu.classes
        for required in (OperationClass.IALU, OperationClass.MEM, OperationClass.BRANCH):
            if required not in covered:
                raise MachineConfigError(f"no functional unit can execute {required}")
        if self.custom_ops and OperationClass.CUSTOM not in covered:
            raise MachineConfigError(
                "machine defines custom ops but no unit executes the CUSTOM class"
            )

    def clone(self, new_name: Optional[str] = None) -> "MachineDescription":
        """Deep copy of this description (used when deriving family members)."""
        new = copy.deepcopy(self)
        if new_name:
            new.name = new_name
        return new

    # ------------------------------------------------------------------
    # Queries used by the back end and simulators.
    # ------------------------------------------------------------------
    def latency(self, op_class: OperationClass) -> int:
        """Latency in cycles for an operation class on this machine."""
        return self.latency_overrides.get(op_class, DEFAULT_LATENCY[op_class])

    def custom_latency(self, name: str) -> int:
        """Latency of a named custom operation."""
        return self.custom_ops[name].latency

    def units_for(self, op_class: OperationClass) -> List[FunctionalUnit]:
        """Functional units able to execute ``op_class``."""
        return [fu for fu in self.functional_units if fu.can_execute(op_class)]

    def slots_for(self, op_class: OperationClass) -> int:
        """Total number of issue slots per cycle for ``op_class``."""
        return sum(fu.count for fu in self.units_for(op_class))

    def supports(self, op_class: OperationClass) -> bool:
        return self.slots_for(op_class) > 0

    def has_custom_op(self, name: str) -> bool:
        return name in self.custom_ops

    @property
    def total_registers(self) -> int:
        return self.registers_per_cluster * self.num_clusters

    @property
    def cluster_issue_width(self) -> int:
        return self.issue_width // self.num_clusters

    # ------------------------------------------------------------------
    # Customization (used by repro.core and repro.dse).
    # ------------------------------------------------------------------
    def add_custom_op(self, op: CustomOperation) -> None:
        """Register a custom operation; adds a CUSTOM-capable unit if needed."""
        if op.name in self.custom_ops:
            raise MachineConfigError(f"duplicate custom op {op.name}")
        self.custom_ops[op.name] = op
        if not self.supports(OperationClass.CUSTOM):
            self.functional_units.append(
                FunctionalUnit("cfu", frozenset({OperationClass.CUSTOM}), count=1)
            )

    def describe(self) -> str:
        """A short human-readable summary of the machine."""
        units = ", ".join(f"{fu.count}x{fu.name}" for fu in self.functional_units)
        custom = f", {len(self.custom_ops)} custom ops" if self.custom_ops else ""
        return (
            f"{self.name}: {self.issue_width}-issue, {self.num_clusters} cluster(s), "
            f"{self.registers_per_cluster} regs/cluster, units [{units}]{custom}"
        )

    def to_table(self) -> Dict[str, object]:
        """Serialize the architecturally-visible parameters to a flat dict.

        This is the "architecture description table" exchanged with the
        toolchain generator and stored by the design-space explorer.
        """
        return {
            "name": self.name,
            "issue_width": self.issue_width,
            "num_clusters": self.num_clusters,
            "registers_per_cluster": self.registers_per_cluster,
            "functional_units": [
                (fu.name, sorted(c.value for c in fu.classes), fu.count)
                for fu in self.functional_units
            ],
            "latency_overrides": {
                c.value: lat for c, lat in self.latency_overrides.items()
            },
            "branch_penalty": self.branch_penalty,
            "custom_ops": sorted(self.custom_ops),
            "syllable_bits": self.syllable_bits,
            "compressed_encoding": self.compressed_encoding,
            "clock_ns": self.clock_ns,
        }

    @staticmethod
    def from_table(table: Dict[str, object]) -> "MachineDescription":
        """Rebuild a description from :meth:`to_table` output (custom ops
        excluded — they are re-attached by the extension library)."""
        units = [
            FunctionalUnit(name, frozenset(OperationClass(c) for c in classes), count)
            for name, classes, count in table["functional_units"]
        ]
        overrides = {
            OperationClass(c): int(lat)
            for c, lat in dict(table.get("latency_overrides", {})).items()
        }
        return MachineDescription(
            name=str(table["name"]),
            issue_width=int(table["issue_width"]),
            num_clusters=int(table["num_clusters"]),
            registers_per_cluster=int(table["registers_per_cluster"]),
            functional_units=units,
            latency_overrides=overrides,
            branch_penalty=int(table.get("branch_penalty", 1)),
            syllable_bits=int(table.get("syllable_bits", 32)),
            compressed_encoding=bool(table.get("compressed_encoding", False)),
            clock_ns=float(table.get("clock_ns", 5.0)),
        )


def default_functional_units(issue_width: int) -> List[FunctionalUnit]:
    """A balanced functional-unit mix for a given issue width.

    Mirrors the resource mix of a generic embedded VLIW: all slots can do
    integer ALU work, roughly half can multiply, one does memory per two
    slots (minimum one), one branch unit, and a shared divider.
    """
    ialu = FunctionalUnit("ialu", frozenset({OperationClass.IALU}), count=issue_width)
    imul = FunctionalUnit(
        "imul", frozenset({OperationClass.IMUL}), count=max(1, issue_width // 2)
    )
    mem = FunctionalUnit(
        "mem", frozenset({OperationClass.MEM}), count=max(1, issue_width // 2)
    )
    branch = FunctionalUnit("branch", frozenset({OperationClass.BRANCH}), count=1)
    idiv = FunctionalUnit("idiv", frozenset({OperationClass.IDIV}), count=1)
    fpu = FunctionalUnit(
        "fpu", frozenset({OperationClass.FPU, OperationClass.FDIV}),
        count=max(1, issue_width // 4),
    )
    return [ialu, imul, mem, branch, idiv, fpu]
