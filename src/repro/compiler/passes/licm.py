"""Loop-invariant code motion (plus the loop-indexing wrong-code fault).

For every natural loop, pure computations whose operands are defined outside
the loop (constants, or temps/variables not redefined inside the loop) are
hoisted into a preheader block inserted before the loop header.

Seeded faults:

* ``licm-irreducible-assert`` (crash, mirrors GCC PR69740): the loop
  machinery asserts the CFG is reducible; ``goto`` patterns that SPE creates
  routinely violate that and the pass dies in its "verify loop structure"
  check.
* ``loop-index-strength-reduce`` (wrong code, mirrors GCC PR70138): when an
  array element address inside a loop is computed from an expression that
  uses the same variable twice (``a + 1335 * a``), the bogus strength
  reduction rewrites the index to use only its first occurrence, reading the
  wrong element.
"""

from __future__ import annotations

from repro.compiler.cfg import CFG
from repro.compiler.ir import (
    AddrOf,
    BinOp,
    Const,
    Copy,
    IRFunction,
    Instr,
    Jump,
    Load,
    LoadElem,
    Operand,
    Store,
    Temp,
    UnOp,
    VarRef,
)
from repro.compiler.passes import FunctionPass, PassContext

_HOISTABLE = (BinOp, UnOp, Copy, AddrOf)


class LoopInvariantCodeMotion(FunctionPass):
    """Hoist loop-invariant pure computations into loop preheaders."""

    name = "licm"

    def run(self, function: IRFunction, context: PassContext) -> bool:
        cfg = CFG(function)

        if not cfg.is_reducible() and context.faults.active("licm-irreducible-assert"):
            context.faults.crash(
                "licm-irreducible-assert", detail=f"function {function.name!r}"
            )

        changed = self._bogus_strength_reduction(function, cfg, context)

        for loop in cfg.natural_loops():
            changed = self._hoist_loop(function, cfg, loop, context) or changed
        return changed

    # -- correct hoisting -----------------------------------------------------------

    def _hoist_loop(self, function: IRFunction, cfg: CFG, loop, context: PassContext) -> bool:
        # Identify values defined inside the loop.
        defined_inside: set[str] = set()
        stored_inside: set[str] = set()
        has_side_entry = False
        for label in loop.body:
            if label not in function.blocks:
                return False
            for instr in function.blocks[label].instructions:
                for temp in instr.defs():
                    defined_inside.add(temp.name)
                if isinstance(instr, Store):
                    stored_inside.add(instr.var.name)
                if instr.__class__.__name__ in ("StorePtr", "StoreElem", "Call"):
                    stored_inside.add("*")  # unknown memory effects
        for label in loop.body:
            if label == loop.header:
                continue
            for pred in cfg.predecessors.get(label, []):
                if pred not in loop.body:
                    has_side_entry = True
        if has_side_entry:
            self.note(context, "loop_skipped_side_entry")
            return False

        def operand_invariant(operand: Operand) -> bool:
            if isinstance(operand, Const):
                return True
            if isinstance(operand, Temp):
                return operand.name not in defined_inside
            if isinstance(operand, VarRef):
                return False
            return False

        hoisted: list[Instr] = []
        memory_unknown = "*" in stored_inside
        for label in loop.body:
            block = function.blocks[label]
            kept: list[Instr] = []
            for instr in block.instructions:
                can_hoist = (
                    isinstance(instr, _HOISTABLE)
                    and all(operand_invariant(op) for op in instr.uses())
                    and not (isinstance(instr, BinOp) and instr.op in ("/", "%"))
                )
                # Loads of variables that the loop never stores to (directly or
                # through pointers/calls) are also loop-invariant.
                if (
                    not can_hoist
                    and isinstance(instr, Load)
                    and not memory_unknown
                    and instr.var.name not in stored_inside
                ):
                    can_hoist = True
                if can_hoist:
                    hoisted.append(instr)
                    for temp in instr.defs():
                        defined_inside.discard(temp.name)
                    self.note(context, "instruction_hoisted")
                else:
                    kept.append(instr)
            block.instructions = kept

        if not hoisted:
            return False

        # Build (or reuse) a preheader: a new block that runs the hoisted code
        # and jumps to the header; all non-back edges are redirected to it.
        preheader_label = function.new_label(f"{loop.header}.preheader")
        preheader = function.add_block(preheader_label)
        preheader.instructions = hoisted + [Jump(loop.header)]
        for label, block in function.blocks.items():
            if label == preheader_label or label in loop.body:
                continue
            terminator = block.terminator
            if isinstance(terminator, Jump) and terminator.target == loop.header:
                terminator.target = preheader_label
            elif terminator is not None and hasattr(terminator, "true_target"):
                if terminator.true_target == loop.header:
                    terminator.true_target = preheader_label
                if terminator.false_target == loop.header:
                    terminator.false_target = preheader_label
        if function.entry == loop.header:
            function.entry = preheader_label
        self.note(context, "preheader_created")
        return True

    # -- seeded wrong-code strength reduction -------------------------------------------

    def _bogus_strength_reduction(self, function: IRFunction, cfg: CFG, context: PassContext) -> bool:
        """Rewrite in-loop element indexes of the form f(x, x) to just x.

        Every version scans; only one with the seeded fault rewrites.
        """
        changed = False
        loop_blocks = {label for loop in cfg.natural_loops() for label in loop.body}
        for label in loop_blocks:
            if label not in function.blocks:
                continue
            block = function.blocks[label]
            # Map temp -> (slot names it was computed from)
            sources: dict[str, set[str]] = {}
            for instr in block.instructions:
                if isinstance(instr, Load):
                    sources[instr.dest.name] = {instr.var.name}
                elif isinstance(instr, (BinOp,)):
                    combined: set[str] = set()
                    for operand in instr.uses():
                        if isinstance(operand, Temp):
                            combined |= sources.get(operand.name, set())
                    sources[instr.dest.name] = combined
            for instr in block.instructions:
                if isinstance(instr, (LoadElem,)) and isinstance(instr.index, Temp):
                    index_sources = sources.get(instr.index.name, set())
                    if len(index_sources) == 1 and self._index_uses_variable_twice(
                        block, instr.index, next(iter(index_sources))
                    ):
                        # Replace the computed index with the bare variable load.
                        replacement = self._first_load_of(block, next(iter(index_sources)))
                        if (
                            replacement is not None
                            and replacement != instr.index
                            and context.faults.active("loop-index-strength-reduce")
                        ):
                            instr.index = replacement
                            context.faults.trigger("loop-index-strength-reduce")
                            self.note(context, "bogus_index_rewrite")
                            changed = True
        return changed

    @staticmethod
    def _index_uses_variable_twice(block, index_temp: Temp, slot: str) -> bool:
        loads_of_slot = {
            instr.dest.name
            for instr in block.instructions
            if isinstance(instr, Load) and instr.var.name == slot
        }
        # Find the BinOp defining the index and check both operands trace to the slot.
        for instr in block.instructions:
            if isinstance(instr, BinOp) and instr.dest == index_temp:
                temps = [op.name for op in instr.uses() if isinstance(op, Temp)]
                return len(temps) == 2
        return False

    @staticmethod
    def _first_load_of(block, slot: str) -> Temp | None:
        for instr in block.instructions:
            if isinstance(instr, Load) and instr.var.name == slot:
                return instr.dest
        return None


__all__ = ["LoopInvariantCodeMotion"]
