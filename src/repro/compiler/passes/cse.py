"""Local common-subexpression elimination.

Within a basic block, a pure computation (``BinOp``/``UnOp``) whose operands
have not been redefined since an identical earlier computation is replaced by
a copy of the earlier result.  Loads participate too, keyed by the variable
name, and are invalidated by stores, pointer stores and calls.

Seeded fault ``cse-commutes-sub`` (wrong code): the value-numbering key
treats ``a - b`` and ``b - a`` as the same expression (a bogus
"canonicalisation" of a non-commutative operator), so the second of the two
gets replaced by the first's value.  The trigger requires both orders of the
same subtraction in one block -- a pattern SPE produces as soon as two holes
of one expression are swapped.
"""

from __future__ import annotations

from repro.compiler.ir import (
    BinOp,
    Call,
    Const,
    Copy,
    IRFunction,
    Instr,
    Load,
    Operand,
    Store,
    StoreElem,
    StorePtr,
    Temp,
    UnOp,
)
from repro.compiler.passes import FunctionPass, PassContext

_COMMUTATIVE = {"+", "*", "&", "|", "^", "==", "!="}


class CommonSubexpressionElimination(FunctionPass):
    """Local value numbering within each basic block."""

    name = "cse"

    def run(self, function: IRFunction, context: PassContext) -> bool:
        changed = False
        # Asked at the first subtraction, not before: the answer only re-keys
        # ``-``, so a run with no subtraction leaves it out of its transcript
        # and is shared by versions with and without the fault.
        buggy_commute: bool | None = None
        for block in function.blocks.values():
            available: dict[tuple, Temp] = {}
            original_order: dict[tuple, tuple] = {}
            loads: dict[str, Temp] = {}
            # Local copy canonicalisation: value numbering sees through temp
            # copies produced by earlier folding/reuse, which is what lets a
            # "t1 - t1" shape emerge from source-level "a - a".
            canon: dict[Operand, Operand] = {}
            new_instructions: list[Instr] = []
            for instr in block.instructions:
                if canon and not isinstance(instr, Copy):
                    instr.replace_uses(canon)
                replacement: Instr = instr
                if isinstance(instr, BinOp):
                    if buggy_commute is None and instr.op == "-":
                        buggy_commute = context.faults.active("cse-commutes-sub")
                    key = self._binop_key(instr, bool(buggy_commute))
                    if key in available:
                        current_order = self._operand_keys((instr.left, instr.right))
                        if (
                            buggy_commute
                            and instr.op == "-"
                            and original_order.get(key) not in (None, current_order)
                        ):
                            # The unsound commutation actually rewrote this one.
                            context.faults.trigger("cse-commutes-sub")
                            self.note(context, "bogus_commuted_sub")
                        replacement = Copy(instr.dest, available[key])
                        canon[instr.dest] = available[key]
                        self.note(context, "binop_reused")
                        changed = True
                    else:
                        available[key] = instr.dest
                        original_order[key] = self._operand_keys((instr.left, instr.right))
                elif isinstance(instr, UnOp):
                    key = (instr.op,) + self._operand_keys((instr.operand,))
                    if key in available:
                        replacement = Copy(instr.dest, available[key])
                        canon[instr.dest] = available[key]
                        self.note(context, "unop_reused")
                        changed = True
                    else:
                        available[key] = instr.dest
                elif isinstance(instr, Copy):
                    source = canon.get(instr.src, instr.src)
                    if isinstance(instr.dest, Temp) and isinstance(source, (Temp, Const)):
                        canon[instr.dest] = source
                elif isinstance(instr, Load):
                    if instr.var.name in loads:
                        replacement = Copy(instr.dest, loads[instr.var.name])
                        canon[instr.dest] = loads[instr.var.name]
                        self.note(context, "load_reused")
                        changed = True
                    else:
                        loads[instr.var.name] = instr.dest
                elif isinstance(instr, Store):
                    loads.pop(instr.var.name, None)
                    if isinstance(instr.src, Temp):
                        loads[instr.var.name] = instr.src
                elif isinstance(instr, (StorePtr, StoreElem, Call)):
                    loads.clear()
                    available.clear()
                new_instructions.append(replacement)
            block.instructions = new_instructions
        return changed

    def _binop_key(self, instr: BinOp, buggy_commute: bool) -> tuple:
        operands = (instr.left, instr.right)
        keys = self._operand_keys(operands)
        if instr.op in _COMMUTATIVE or (buggy_commute and instr.op == "-"):
            keys = tuple(sorted(keys))
        return (instr.op,) + keys

    @staticmethod
    def _operand_keys(operands: tuple[Operand, ...]) -> tuple:
        keys = []
        for operand in operands:
            if isinstance(operand, Temp):
                keys.append(("t", operand.name))
            elif isinstance(operand, Const):
                keys.append(("c", operand.value))
            else:
                keys.append(("v", getattr(operand, "name", str(operand))))
        return tuple(keys)


__all__ = ["CommonSubexpressionElimination"]
