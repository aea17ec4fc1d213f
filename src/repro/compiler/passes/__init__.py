"""Optimization pass framework.

Every pass transforms one :class:`~repro.compiler.ir.IRFunction` in place and
reports what it did through a :class:`CoverageRecorder` -- the fine-grained
"which parts of the compiler did this input exercise" signal that Figure 9 of
the paper measures with gcov.  Passes also consult the active
:class:`~repro.compiler.faults.FaultSet`: seeded bugs are implemented inside
the passes themselves, guarded by fault ids, so different "compiler versions"
exhibit different crash and wrong-code behaviours.  A pass asks
:meth:`~repro.compiler.faults.FaultSet.active` only at the decision the fault
changes, once the input has reached the fault's trigger: the driver's
pipeline cache reuses a run for every version that answers the run's queries
alike, so an early query splits versions the fault never distinguishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.faults import FaultSet
from repro.compiler.ir import IRFunction, IRModule


@dataclass
class CoverageRecorder:
    """Records which pass-level events an input triggered.

    ``events`` is the set of distinct event labels (the unit of "coverage");
    ``counts`` additionally counts how often each fired.
    """

    events: set[str] = field(default_factory=set)
    counts: dict[str, int] = field(default_factory=dict)

    def record(self, event: str, amount: int = 1) -> None:
        self.events.add(event)
        self.counts[event] = self.counts.get(event, 0) + amount

    def merge(self, other: "CoverageRecorder") -> None:
        for event, count in other.counts.items():
            self.record(event, count)

    def __len__(self) -> int:
        return len(self.events)


@dataclass
class PassContext:
    """Everything a pass needs besides the function it transforms."""

    module: IRModule
    coverage: CoverageRecorder = field(default_factory=CoverageRecorder)
    faults: FaultSet = field(default_factory=FaultSet)
    optimization_level: int = 0
    statistics: dict[str, int] = field(default_factory=dict)

    def note(self, pass_name: str, event: str, amount: int = 1) -> None:
        self.coverage.record(f"{pass_name}.{event}", amount)
        key = f"{pass_name}.{event}"
        self.statistics[key] = self.statistics.get(key, 0) + amount


class FunctionPass:
    """Base class: transform one function in place; return True if changed."""

    name = "pass"

    def run(self, function: IRFunction, context: PassContext) -> bool:
        raise NotImplementedError

    def note(self, context: PassContext, event: str, amount: int = 1) -> None:
        context.note(self.name, event, amount)


from repro.compiler.passes.constant_folding import ConstantFolding
from repro.compiler.passes.constant_propagation import ConstantPropagation
from repro.compiler.passes.copy_propagation import CopyPropagation
from repro.compiler.passes.cse import CommonSubexpressionElimination
from repro.compiler.passes.dce import DeadCodeElimination
from repro.compiler.passes.licm import LoopInvariantCodeMotion
from repro.compiler.passes.simplify_cfg import SimplifyCFG

ALL_PASSES = {
    cls.name: cls
    for cls in (
        ConstantFolding,
        ConstantPropagation,
        CopyPropagation,
        CommonSubexpressionElimination,
        DeadCodeElimination,
        LoopInvariantCodeMotion,
        SimplifyCFG,
    )
}

__all__ = [
    "ALL_PASSES",
    "CommonSubexpressionElimination",
    "ConstantFolding",
    "ConstantPropagation",
    "CopyPropagation",
    "CoverageRecorder",
    "DeadCodeElimination",
    "FunctionPass",
    "LoopInvariantCodeMotion",
    "PassContext",
    "SimplifyCFG",
]
