"""Constant folding and algebraic simplification.

Folds arithmetic on constant operands, simplifies algebraic identities
(``x + 0``, ``x * 1``, ``x * 0``, ``x - x``, ``x ^ x``...), and folds
conditional jumps whose condition is a constant.

Seeded fault ``fold-equal-operands`` (crash): mirrors GCC PR69801 -- the
folder crashes when asked to decide the equality of two *structurally
identical* operands of a subtraction/comparison (the compiler's
``operand_equal_p`` assertion).  SPE hits this constantly because filling two
holes of one expression with the same variable creates exactly that shape.
"""

from __future__ import annotations

from repro.compiler.ir import (
    BinOp,
    CJump,
    Const,
    Copy,
    IRFunction,
    Instr,
    Jump,
    Temp,
    UnOp,
)
from repro.compiler.passes import FunctionPass, PassContext
from repro.minic.ctypes import INT, IntType


def _wrap(value: int, ctype) -> int:
    int_type = ctype if isinstance(ctype, IntType) else INT
    return int_type.wrap(value)


def fold_binary(op: str, left: int, right: int, ctype) -> int | None:
    """Evaluate a binary operator on constants; None when not foldable."""
    int_type = ctype if isinstance(ctype, IntType) else INT
    unsigned_left = left & ((1 << int_type.bits) - 1)
    unsigned_right = right & ((1 << int_type.bits) - 1)
    if op == "+":
        return _wrap(left + right, int_type)
    if op == "-":
        return _wrap(left - right, int_type)
    if op == "*":
        return _wrap(left * right, int_type)
    if op in ("/", "%"):
        if right == 0:
            return None
        quotient = abs(left) // abs(right)
        if (left < 0) != (right < 0):
            quotient = -quotient
        remainder = left - quotient * right
        return _wrap(quotient if op == "/" else remainder, int_type)
    if op == "<<":
        if right < 0 or right >= int_type.bits:
            return None
        return _wrap(left << right, int_type)
    if op == ">>":
        if right < 0 or right >= int_type.bits:
            return None
        return _wrap(left >> right, int_type)
    if op == "&":
        return _wrap(unsigned_left & unsigned_right, int_type)
    if op == "|":
        return _wrap(unsigned_left | unsigned_right, int_type)
    if op == "^":
        return _wrap(unsigned_left ^ unsigned_right, int_type)
    if op in ("==", "!=", "<", "<=", ">", ">="):
        return int(
            {
                "==": left == right,
                "!=": left != right,
                "<": left < right,
                "<=": left <= right,
                ">": left > right,
                ">=": left >= right,
            }[op]
        )
    return None


class ConstantFolding(FunctionPass):
    """Fold constant expressions and simplify algebraic identities."""

    name = "const-fold"

    def run(self, function: IRFunction, context: PassContext) -> bool:
        changed = False
        for block in function.blocks.values():
            new_instructions: list[Instr] = []
            for instr in block.instructions:
                replacement = self.fold_instruction(instr, context)
                if replacement is not instr:
                    changed = True
                new_instructions.append(replacement)
            block.instructions = new_instructions
        return changed

    # -- per-instruction folding ------------------------------------------------

    def fold_instruction(self, instr: Instr, context: PassContext) -> Instr:
        if isinstance(instr, BinOp):
            return self.fold_binop(instr, context)
        if isinstance(instr, UnOp):
            return self.fold_unop(instr, context)
        if isinstance(instr, CJump) and isinstance(instr.cond, Const):
            self.note(context, "folded_branch")
            target = instr.true_target if instr.cond.value != 0 else instr.false_target
            return Jump(target)
        return instr

    def fold_binop(self, instr: BinOp, context: PassContext) -> Instr:
        left, right = instr.left, instr.right

        # Seeded crash: deciding equality of structurally identical operands.
        if (
            instr.op in ("-", "==", "!=")
            and isinstance(left, Temp)
            and left == right
            and context.faults.active("fold-equal-operands")
        ):
            context.faults.crash("fold-equal-operands", detail=f"operands of {instr.op!r}")

        if isinstance(left, Const) and isinstance(right, Const):
            folded = fold_binary(instr.op, left.value, right.value, instr.ctype)
            if folded is not None:
                self.note(context, f"folded_{_op_label(instr.op)}")
                return Copy(instr.dest, Const(folded))
            return instr

        # Algebraic identities.
        if instr.op == "+" and isinstance(right, Const) and right.value == 0:
            self.note(context, "identity_add_zero")
            return Copy(instr.dest, left)
        if instr.op == "+" and isinstance(left, Const) and left.value == 0:
            self.note(context, "identity_add_zero")
            return Copy(instr.dest, right)
        if instr.op == "-" and isinstance(right, Const) and right.value == 0:
            self.note(context, "identity_sub_zero")
            return Copy(instr.dest, left)
        if instr.op == "*" and isinstance(right, Const) and right.value == 1:
            self.note(context, "identity_mul_one")
            return Copy(instr.dest, left)
        if instr.op == "*" and isinstance(left, Const) and left.value == 1:
            self.note(context, "identity_mul_one")
            return Copy(instr.dest, right)
        if instr.op == "*" and (
            (isinstance(right, Const) and right.value == 0)
            or (isinstance(left, Const) and left.value == 0)
        ):
            self.note(context, "identity_mul_zero")
            return Copy(instr.dest, Const(0))
        if instr.op == "/" and isinstance(right, Const) and right.value == 1:
            self.note(context, "identity_div_one")
            return Copy(instr.dest, left)
        if instr.op in ("-", "^") and isinstance(left, Temp) and left == right:
            self.note(context, "identity_x_minus_x")
            return Copy(instr.dest, Const(0))
        if instr.op in ("==", "<=", ">=") and isinstance(left, Temp) and left == right:
            self.note(context, "identity_reflexive_compare")
            return Copy(instr.dest, Const(1))
        if instr.op in ("!=", "<", ">") and isinstance(left, Temp) and left == right:
            self.note(context, "identity_irreflexive_compare")
            return Copy(instr.dest, Const(0))
        return instr

    def fold_unop(self, instr: UnOp, context: PassContext) -> Instr:
        if not isinstance(instr.operand, Const):
            return instr
        value = instr.operand.value
        int_type = instr.ctype if isinstance(instr.ctype, IntType) else INT
        if instr.op == "-":
            self.note(context, "folded_neg")
            return Copy(instr.dest, Const(int_type.wrap(-value)))
        if instr.op == "~":
            self.note(context, "folded_not")
            return Copy(instr.dest, Const(int_type.wrap(~value)))
        if instr.op == "!":
            self.note(context, "folded_lnot")
            return Copy(instr.dest, Const(0 if value != 0 else 1))
        if instr.op == "cast":
            self.note(context, "folded_cast")
            return Copy(instr.dest, Const(int_type.wrap(value)))
        return instr


def _op_label(op: str) -> str:
    names = {
        "+": "add", "-": "sub", "*": "mul", "/": "div", "%": "rem",
        "<<": "shl", ">>": "shr", "&": "and", "|": "or", "^": "xor",
        "==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge",
    }
    return names.get(op, "op")


__all__ = ["ConstantFolding", "fold_binary"]
