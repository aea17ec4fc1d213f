"""IR well-formedness verification between optimization passes.

The differential oracle only sees a miscompile at the *end* of the pipeline
and attributes it to a compiler version; the verifier catches a transform
the moment it breaks a structural invariant of the IR and names the exact
pass that did it.  The invariant catalog (see ``docs/ARCHITECTURE.md``
section 12):

* **terminator** -- every block ends in exactly one terminator
  (``Jump``/``CJump``/``Return``) and contains no terminator mid-block;
* **target** -- every jump target names a block of the same function, and
  the block's successor list agrees edge-for-edge with :class:`~repro.
  compiler.cfg.CFG`;
* **use-before-def** -- along every CFG path from the entry, each ``Temp``
  is defined before it is used (a must-analysis on the existing
  :class:`~repro.compiler.dataflow.ForwardAnalysis` fixed-point framework);
* **operand** -- ``VarRef`` operands name a known function slot or module
  global; scalar ``Load``/``Store`` never touch an array slot;
* **call** -- ``printf`` calls carry their format string, and calls to
  module functions pass exactly as many arguments as the callee has
  parameters;
* **unreachable-block** -- no blocks unreachable from the entry survive a
  ``simplify-cfg`` run (checked only when ``check_unreachable`` is set:
  lowering legitimately creates unreachable blocks, e.g. code after an
  unconditional ``return``, that only ``simplify-cfg`` is obliged to sweep).

The verifier never mutates the IR and raises nothing: it returns
:class:`IRViolation` records, and the driver decides what to do with them
(file an ``ill-formed-ir`` bug under the ``verify_ir`` campaign policy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.compiler.cfg import CFG
from repro.compiler.dataflow import ForwardAnalysis
from repro.compiler.ir import (
    TERMINATORS,
    BasicBlock,
    Call,
    IRFunction,
    IRModule,
    Load,
    Store,
    Temp,
    VarRef,
)


@dataclass(frozen=True)
class IRViolation:
    """One broken IR invariant, locatable enough to debug the offending pass."""

    function: str
    block: str
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"{self.rule} in {self.function}/{self.block}: {self.detail}"


class DefinedTemps(ForwardAnalysis[frozenset]):
    """Which temps are defined on *every* CFG path reaching a block.

    A must-analysis: the lattice is sets of temp names ordered by superset,
    the meet is intersection, and the optimistic initial element is the set
    of all temps defined anywhere in the function (so loops converge to the
    path-insensitive truth rather than the empty set).
    """

    def __init__(self, function: IRFunction) -> None:
        super().__init__(function)
        self._all_temps = frozenset(
            temp.name for instr in function.instructions() for temp in instr.defs()
        )

    def initial_state(self) -> frozenset:
        return self._all_temps

    def boundary_state(self) -> frozenset:
        return frozenset()

    def meet(self, states: Iterable[frozenset]) -> frozenset:
        result: frozenset | None = None
        for state in states:
            result = state if result is None else (result & state)
        return result if result is not None else frozenset()

    def transfer(self, label: str, state: frozenset) -> frozenset:
        defined = set(state)
        for instr in self.function.blocks[label].instructions:
            defined.update(temp.name for temp in instr.defs())
        return frozenset(defined)


def verify_function(
    function: IRFunction,
    module: IRModule | None = None,
    *,
    check_unreachable: bool = False,
) -> list[IRViolation]:
    """All well-formedness violations of one function (empty = well formed)."""
    violations: list[IRViolation] = []

    def flag(block: str, rule: str, detail: str) -> None:
        violations.append(IRViolation(function.name, block, rule, detail))

    if function.entry not in function.blocks:
        flag("<none>", "entry", f"entry block {function.entry!r} does not exist")
        return violations

    for label, block in function.blocks.items():
        if block.label != label:
            flag(label, "label", f"block keyed {label!r} is labelled {block.label!r}")
        _check_terminators(block, flag)

    cfg = CFG(function)
    for label, block in function.blocks.items():
        successors = block.successors()
        for target in successors:
            if target not in function.blocks:
                flag(label, "target", f"jump target {target!r} does not exist")
        if cfg.successors.get(label, []) != successors:
            flag(label, "target", "successor list disagrees with the CFG edges")
        for target in successors:
            if target in function.blocks and label not in cfg.predecessors.get(target, []):
                flag(label, "target", f"edge to {target!r} missing from CFG predecessors")

    _check_operands(function, module, flag)
    _check_temp_definitions(function, cfg, flag)

    if check_unreachable:
        reachable = cfg.reachable()
        for label in function.blocks:
            if label not in reachable:
                flag(label, "unreachable-block", "block survived simplify-cfg unreachable")

    return violations


def verify_module(module: IRModule, *, check_unreachable: bool = False) -> list[IRViolation]:
    """All well-formedness violations across a module's functions."""
    violations: list[IRViolation] = []
    for function in module.functions.values():
        violations.extend(
            verify_function(function, module, check_unreachable=check_unreachable)
        )
    return violations


def first_violation(
    function: IRFunction,
    module: IRModule | None = None,
    *,
    check_unreachable: bool = False,
) -> IRViolation | None:
    """The first violation of one function, or None when well formed."""
    violations = verify_function(function, module, check_unreachable=check_unreachable)
    return violations[0] if violations else None


# -- individual checks -----------------------------------------------------------------


def _check_terminators(block: BasicBlock, flag) -> None:
    if not block.instructions:
        flag(block.label, "terminator", "block is empty")
        return
    if not isinstance(block.instructions[-1], TERMINATORS):
        flag(
            block.label,
            "terminator",
            f"block does not end in a terminator (last: {block.instructions[-1]})",
        )
    for instr in block.instructions[:-1]:
        if isinstance(instr, TERMINATORS):
            flag(block.label, "terminator", f"terminator mid-block: {instr}")


def _check_operands(function: IRFunction, module: IRModule | None, flag) -> None:
    module_globals = module.globals if module is not None else None
    module_functions = module.functions if module is not None else None

    def slot_of(name: str):
        slot = function.slots.get(name)
        if slot is None and module_globals is not None:
            slot = module_globals.get(name)
        return slot

    for label, block in function.blocks.items():
        for instr in block.instructions:
            for operand in instr.uses():
                if isinstance(operand, VarRef):
                    slot = slot_of(operand.name)
                    if slot is None and module_globals is not None:
                        flag(label, "operand", f"unknown variable {operand}")
            if isinstance(instr, (Load, Store)):
                slot = slot_of(instr.var.name)
                if slot is not None and slot.size != 1:
                    flag(
                        label,
                        "operand",
                        f"scalar access to array slot {instr.var} (x{slot.size})",
                    )
            if isinstance(instr, Call):
                _check_call(instr, label, module_functions, flag)


def _check_call(instr: Call, label: str, module_functions, flag) -> None:
    if instr.name == "printf":
        if instr.format is None:
            flag(label, "call", "printf call without a format string")
        return
    if module_functions is None:
        return
    callee = module_functions.get(instr.name)
    if callee is None:
        flag(label, "call", f"call to unknown function {instr.name!r}")
        return
    if len(instr.args) != len(callee.params):
        flag(
            label,
            "call",
            f"call to {instr.name!r} passes {len(instr.args)} args, "
            f"expects {len(callee.params)}",
        )


def _check_temp_definitions(function: IRFunction, cfg: CFG, flag) -> None:
    # A use defined earlier in its own block is defined on every path, so
    # the fixed point can only flag something when some use is not.
    if all(_uses_defined_locally(block) for block in function.blocks.values()):
        return
    # Only meaningful when the CFG is structurally sound enough to analyse.
    analysis = DefinedTemps(function)
    analysis.run()
    for label in cfg.reverse_postorder():
        defined = set(analysis.block_in.get(label, frozenset()))
        for instr in function.blocks[label].instructions:
            for operand in instr.uses():
                if isinstance(operand, Temp) and operand.name not in defined:
                    flag(
                        label,
                        "use-before-def",
                        f"{operand} used before definition in {instr}",
                    )
            defined.update(temp.name for temp in instr.defs())


def _uses_defined_locally(block: BasicBlock) -> bool:
    """Whether every temp the block uses is defined earlier in the block."""
    defined: set[str] = set()
    for instr in block.instructions:
        for operand in instr.uses():
            if isinstance(operand, Temp) and operand.name not in defined:
                return False
        for temp in instr.defs():
            defined.add(temp.name)
    return True


__all__ = [
    "DefinedTemps",
    "IRViolation",
    "first_violation",
    "verify_function",
    "verify_module",
]
