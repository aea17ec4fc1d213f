"""Copy propagation.

Two levels:

* **local (temp) copy propagation** -- within a block, uses of a temp defined
  by ``Copy t, x`` are rewritten to use ``x`` directly;
* **global (slot) copy propagation** -- using
  :class:`~repro.compiler.dataflow.AvailableCopies`, a load of ``b`` where
  ``b == a`` on every path is rewritten to a load of ``a``.

Seeded fault ``copyprop-self-assign`` (crash): the pass asserts that a copy
never names the same slot on both sides; SPE-generated self-assignments
``a = a`` violate that assumption and crash the compiler ("Invalid register
name" style backend assertion).
"""

from __future__ import annotations

from repro.compiler.dataflow import AvailableCopies
from repro.compiler.ir import (
    Copy,
    IRFunction,
    Instr,
    Load,
    Operand,
    Store,
    Temp,
    VarRef,
)
from repro.compiler.passes import FunctionPass, PassContext


class CopyPropagation(FunctionPass):
    """Forward temp copies and slot-level copies to their sources."""

    name = "copy-prop"

    def run(self, function: IRFunction, context: PassContext) -> bool:
        changed = self._local_temp_copies(function, context)
        changed = self._slot_copies(function, context) or changed
        return changed

    # -- local temp copy propagation ----------------------------------------------

    def _local_temp_copies(self, function: IRFunction, context: PassContext) -> bool:
        changed = False
        for block in function.blocks.values():
            mapping: dict[Operand, Operand] = {}
            for instr in block.instructions:
                if mapping:
                    before = str(instr)
                    instr.replace_uses(mapping)
                    if str(instr) != before:
                        self.note(context, "temp_copy_forwarded")
                        changed = True
                if isinstance(instr, Copy) and isinstance(instr.dest, Temp):
                    source = mapping.get(instr.src, instr.src)
                    if isinstance(source, (Temp,)) or hasattr(source, "value"):
                        mapping[instr.dest] = source
                for defined in instr.defs():
                    # A redefinition invalidates copies built from the old value.
                    mapping = {
                        dst: src
                        for dst, src in mapping.items()
                        if dst != defined and src != defined
                    }
                    if isinstance(instr, Copy) and instr.dest == defined:
                        source = mapping.get(instr.src, instr.src)
                        mapping[defined] = source
        return changed

    # -- global slot copy propagation -----------------------------------------------

    def _slot_copies(self, function: IRFunction, context: PassContext) -> bool:
        # Seeded crash on self-assignments "a = a" (Store @a <- Load @a).
        assigned = _first_self_assignment(function)
        if assigned is not None and context.faults.active("copyprop-self-assign"):
            context.faults.crash("copyprop-self-assign", detail=f"variable {assigned!r}")

        analysis = AvailableCopies(function)
        analysis.run()
        changed = False
        for label, block in function.blocks.items():
            state = analysis.block_in.get(label, frozenset())
            copies = {dst: src for dst, src in state if dst != "__top__"}
            new_instructions: list[Instr] = []
            for instr in block.instructions:
                if isinstance(instr, Load) and instr.var.name in copies:
                    new_instructions.append(
                        Load(instr.dest, VarRef(copies[instr.var.name]), ctype=instr.ctype)
                    )
                    self.note(context, "slot_copy_forwarded")
                    changed = True
                else:
                    new_instructions.append(instr)
                # Keep the running copy map in sync within the block.
                if isinstance(instr, Store):
                    copies = {
                        dst: src
                        for dst, src in copies.items()
                        if dst != instr.var.name and src != instr.var.name
                    }
                elif instr.__class__.__name__ in ("StorePtr", "StoreElem", "Call"):
                    copies = {}
            block.instructions = new_instructions
        return changed


def _first_self_assignment(function: IRFunction) -> str | None:
    """The slot of the first ``a = a`` (a store of a load of itself), if any."""
    for block in function.blocks.values():
        loaded_from: dict[str, str] = {}
        for instr in block.instructions:
            if isinstance(instr, Load):
                loaded_from[instr.dest.name] = instr.var.name
            elif isinstance(instr, Store) and isinstance(instr.src, Temp):
                if loaded_from.get(instr.src.name) == instr.var.name:
                    return instr.var.name
    return None


__all__ = ["CopyPropagation"]
