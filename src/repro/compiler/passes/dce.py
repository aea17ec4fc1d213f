"""Dead code elimination.

Three ingredients:

* **dead temp elimination** -- pure instructions whose result temp is never
  used are dropped (iterated to a fixed point);
* **dead store elimination** -- stores to local scalars that are not live out
  of the block and are overwritten before any use are dropped, using
  :class:`~repro.compiler.dataflow.LiveVariables`;
* the removal of unreachable blocks lives in
  :class:`~repro.compiler.passes.simplify_cfg.SimplifyCFG`.

Seeded fault ``dce-addr-taken-store`` (wrong code, mirrors Clang PR26994):
dead-store elimination forgets that address-taken locals can be read through
pointers (or after a ``goto`` re-enters the block), so it deletes stores that
are in fact observable.
"""

from __future__ import annotations

from repro.compiler.dataflow import LiveVariables, address_taken_slots
from repro.compiler.ir import (
    AddrOf,
    BinOp,
    Call,
    Copy,
    IRFunction,
    Instr,
    Load,
    LoadElem,
    LoadPtr,
    Store,
    Temp,
    UnOp,
    VarRef,
)
from repro.compiler.passes import FunctionPass, PassContext

_PURE = (BinOp, UnOp, Copy, Load, LoadElem, LoadPtr, AddrOf)


class DeadCodeElimination(FunctionPass):
    """Remove computations and stores that cannot affect observable behaviour."""

    name = "dce"

    def run(self, function: IRFunction, context: PassContext) -> bool:
        changed = self._dead_temps(function, context)
        changed = self._dead_stores(function, context) or changed
        return changed

    # -- dead temps ------------------------------------------------------------

    def _dead_temps(self, function: IRFunction, context: PassContext) -> bool:
        changed = False
        while True:
            used: set[str] = set()
            for instr in function.instructions():
                for operand in instr.uses():
                    if isinstance(operand, Temp):
                        used.add(operand.name)
            removed_any = False
            for block in function.blocks.values():
                kept: list[Instr] = []
                for instr in block.instructions:
                    is_dead = (
                        isinstance(instr, _PURE)
                        and instr.defs()
                        and all(temp.name not in used for temp in instr.defs())
                    )
                    if is_dead:
                        self.note(context, "dead_temp_removed")
                        removed_any = True
                        changed = True
                    else:
                        kept.append(instr)
                block.instructions = kept
            if not removed_any:
                break
        return changed

    # -- dead stores ---------------------------------------------------------------

    def _dead_stores(self, function: IRFunction, context: PassContext) -> bool:
        # Only address-taken slots are treated differently by the fault.
        address_taken = address_taken_slots(function)
        forget_address_taken = bool(address_taken) and context.faults.active(
            "dce-addr-taken-store"
        )
        liveness = LiveVariables(function)
        if forget_address_taken:
            liveness.address_taken = set()
        liveness.run()
        taken = set() if forget_address_taken else address_taken

        changed = False
        for label, block in function.blocks.items():
            live: set[str] = set(liveness.live_out_of(label))
            if forget_address_taken:
                live -= address_taken_slots(function) - _globals_of(function)
            kept_reversed: list[Instr] = []
            for instr in reversed(block.instructions):
                if isinstance(instr, Store):
                    name = instr.var.name
                    is_local = name in function.slots
                    observable = (
                        not is_local  # globals are always observable
                        or name in live
                        or name in taken
                    )
                    if not observable:
                        if forget_address_taken and name in address_taken_slots(function):
                            context.faults.trigger("dce-addr-taken-store")
                            self.note(context, "observable_store_removed")
                        self.note(context, "dead_store_removed")
                        changed = True
                        continue
                    live.discard(name)
                    kept_reversed.append(instr)
                    for operand in instr.uses():
                        if isinstance(operand, VarRef):
                            live.add(operand.name)
                    continue
                kept_reversed.append(instr)
                for operand in instr.uses():
                    if isinstance(operand, VarRef):
                        live.add(operand.name)
                if isinstance(instr, Load):
                    live.add(instr.var.name)
                if isinstance(instr, Call) and not forget_address_taken:
                    live |= address_taken_slots(function)
            block.instructions = list(reversed(kept_reversed))
        return changed


def _globals_of(function: IRFunction) -> set[str]:
    names: set[str] = set()
    for instr in function.instructions():
        if isinstance(instr, (Load, Store)):
            if instr.var.name not in function.slots:
                names.add(instr.var.name)
    return names


__all__ = ["DeadCodeElimination"]
