"""Global constant propagation over scalar variable slots.

Uses :class:`~repro.compiler.dataflow.ReachingConstants` to find loads that
always observe the same constant and replaces them with ``Copy dest, Const``.
Combined with constant folding and CFG simplification this is what turns the
paper's Figure 1 examples into dead-code-elimination opportunities.

Seeded faults:

* ``cprop-ignores-aliases`` (wrong code, mirrors GCC PR69951): the analysis
  fails to invalidate address-taken variables at pointer stores, so a load
  after ``*q = 2`` still sees the constant stored before it.
* ``cprop-fixpoint-blowup`` (performance): when a variable receives two
  different constants inside one loop, the buggy pass re-runs its analysis a
  quadratic number of times; the driver reports the inflated pass-iteration
  count as a compile-time bug.
"""

from __future__ import annotations

from repro.compiler.dataflow import ReachingConstants
from repro.compiler.ir import (
    Call,
    Const,
    Copy,
    IRFunction,
    Instr,
    Load,
    Store,
    StoreElem,
    StorePtr,
)
from repro.compiler.passes import FunctionPass, PassContext


class ConstantPropagation(FunctionPass):
    """Replace loads of variables that provably hold a constant."""

    name = "const-prop"

    def run(self, function: IRFunction, context: PassContext) -> bool:
        # The seeded alias bug: pointer stores invalidate nothing, so stale
        # constants survive across ``*p = ...`` writes (a function without
        # one is analysed the same either way).
        ignore_aliases = any(
            isinstance(instr, (StorePtr, StoreElem)) for instr in function.instructions()
        ) and context.faults.active("cprop-ignores-aliases")
        analysis = ReachingConstants(function, respect_pointer_stores=not ignore_aliases)
        analysis.run()

        iterations = 1
        if self._has_conflicting_loop_stores(function) and context.faults.active(
            "cprop-fixpoint-blowup"
        ):
            context.faults.trigger("cprop-fixpoint-blowup")
            iterations = 1 + len(function.blocks) * len(function.blocks)
            self.note(context, "fixpoint_blowup", amount=iterations)

        changed = False
        for _ in range(iterations):
            changed = self._apply(function, analysis, context, ignore_aliases) or changed
        return changed

    def _apply(
        self,
        function: IRFunction,
        analysis: ReachingConstants,
        context: PassContext,
        ignore_aliases: bool,
    ) -> bool:
        aliasable = _address_taken(function)
        changed = False
        for label, block in function.blocks.items():
            known = analysis.block_in.get(label)
            values = known.as_dict() if known is not None and not known.top else {}
            new_instructions: list[Instr] = []
            for instr in block.instructions:
                if isinstance(instr, Load) and instr.var.name in values:
                    new_instructions.append(Copy(instr.dest, Const(values[instr.var.name])))
                    self.note(context, "load_replaced")
                    if ignore_aliases and (
                        instr.var.name in aliasable or instr.var.name not in function.slots
                    ):
                        # The wrong-code fault actually fired on this program.
                        context.faults.trigger("cprop-ignores-aliases")
                        self.note(context, "alias_bug_applied")
                    changed = True
                else:
                    new_instructions.append(instr)
                # Update the running map exactly like the transfer function.
                analysis.apply_instruction(instr, values)
            block.instructions = new_instructions
        return changed

    @staticmethod
    def _has_conflicting_loop_stores(function: IRFunction) -> bool:
        from repro.compiler.cfg import CFG

        # Linear pre-filter: a loop can only store two different constants
        # to one slot if the function does.
        first_constant: dict[str, int] = {}
        for instr in function.instructions():
            if isinstance(instr, Store) and isinstance(instr.src, Const):
                if first_constant.setdefault(instr.var.name, instr.src.value) != instr.src.value:
                    break
        else:
            return False
        loops = CFG(function).natural_loops()
        for loop in loops:
            constants_per_var: dict[str, set[int]] = {}
            for label in loop.body:
                for instr in function.blocks[label].instructions:
                    if isinstance(instr, Store) and isinstance(instr.src, Const):
                        constants_per_var.setdefault(instr.var.name, set()).add(instr.src.value)
            if any(len(values) > 1 for values in constants_per_var.values()):
                return True
        return False


def _address_taken(function: IRFunction) -> set[str]:
    from repro.compiler.dataflow import address_taken_slots

    return address_taken_slots(function)


__all__ = ["ConstantPropagation"]
