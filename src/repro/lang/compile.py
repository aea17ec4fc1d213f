"""An optimizing "compiled" evaluator for WHILE: the compiler under test.

The paper's campaign methodology needs *two* executors per language: a
trusted reference (for WHILE, the direct interpreter of
:mod:`repro.lang.interp`) and a compiler under test whose produced code can
disagree with it.  :class:`WhileCompiler` plays the second role.  Like
mini-C's :class:`repro.compiler.driver.Compiler` it is a subclass of
:class:`repro.compiler.driver.CompileDriver`, which owns the compile flow,
the pipeline cache's replay and the tier-up rule of ``run``; this module
supplies the WHILE hooks:

1. parse (or accept an already-bound skeleton AST -- the parse-once path);
2. frontend checks (seeded frontend faults);
3. an optimization pipeline over the immutable WHILE AST -- constant
   folding, self-comparison folding, dead-branch elimination, ``skip``
   elision -- gated by the ``-O`` level, with pass-level seeded faults;
4. the two execution tiers of the *optimized* program: the interpreter,
   and :func:`repro.lang.codegen.compile_program_runner` for a run that
   outlives :data:`repro.compiler.driver.TIER_UP_STEPS`.

Compiler versions form the ``wc`` lineage (registered with
:func:`repro.compiler.versions.register_lineage`), mirroring the scc/lcc
model: every version is the same pipeline plus a version-specific set of
seeded faults, so the bug database, affected-version queries and Table 3/4
style aggregation work for WHILE campaigns unchanged.

The optimizer always *rebuilds* the AST (it never aliases nodes of its
input): variant ASTs are shared, mutable-in-place structures owned by the
skeleton binder, so a compiled module must not change retroactively when the
binder moves the skeleton to the next characteristic vector.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.compiler.driver import CompileDriver, CompileOutcome
from repro.compiler.faults import Fault, FaultKind, FaultSet
from repro.compiler.versions import register_lineage
from repro.core.execution import ExecutionResult, ExecutionStatus
from repro.core.holes import BoundVariant
from repro.lang.ast import (
    Assign,
    BinaryArith,
    BoolBinary,
    BoolLit,
    Compare,
    If,
    Not,
    Num,
    Seq,
    Skip,
    Var,
    While,
    WhileNode,
)
from repro.lang.codegen import compile_program_runner
from repro.lang.interp import ExecutionLimitExceeded, WhileInterpreter, WhileRuntimeError
from repro.lang.lexer import LexerError
from repro.lang.parser import ParseError, parse_program
from repro.lang.printer import to_source

# Version ordering within the WHILE-compiler lineage (older first).
WC_ORDER = ["wc-1.0", "wc-2.0", "wc-trunk"]

WC_BUG_CATALOGUE: list[Fault] = [
    Fault(
        id="wfold-sub-self",
        component="middle-end",
        kind=FaultKind.CRASH,
        description="constant folding asserts when both operands of '-' are the same variable",
        priority="P1",
        min_opt_level=1,
        introduced_in="wc-1.0",
        fixed_in=None,
        crash_signature="in wfold_binary, at wfold.c:118",
    ),
    Fault(
        id="wcmp-self-reflexive",
        component="tree-optimization",
        kind=FaultKind.WRONG_CODE,
        description="self-comparison folding treats <= and >= like < and > (folds them to false)",
        priority="P2",
        min_opt_level=1,
        introduced_in="wc-2.0",
        fixed_in=None,
        crash_signature="",
    ),
    Fault(
        id="wsub-name-commute",
        component="tree-optimization",
        kind=FaultKind.WRONG_CODE,
        description="reassociation canonicalises variable subtraction into name order",
        priority="P2",
        min_opt_level=2,
        introduced_in="wc-trunk",
        fixed_in=None,
        crash_signature="",
    ),
    Fault(
        id="wopt-fixpoint-blowup",
        component="middle-end",
        kind=FaultKind.PERFORMANCE,
        description="the pass manager re-runs the whole pipeline per self-assignment",
        priority="P4",
        min_opt_level=1,
        introduced_in="wc-1.0",
        fixed_in=None,
        crash_signature="",
    ),
    Fault(
        id="wfrontend-dup-branches",
        component="frontend",
        kind=FaultKind.CRASH,
        description="branch deduplication crashes when then/else render identically",
        priority="P3",
        min_opt_level=0,
        introduced_in="wc-1.0",
        fixed_in="wc-trunk",
        crash_signature="in wcheck_branches, at wfront.c:77",
    ),
]

register_lineage("wc", WC_ORDER, WC_BUG_CATALOGUE)

#: How many times the faulty pass manager re-runs the pipeline per
#: self-assignment (the performance fault's compile-time blow-up).
_BLOWUP_RERUNS = 120


@dataclass
class WhileModule:
    """The "binary" a WHILE compilation produces: the optimized program.

    ``str()`` renders the optimized source once: the pipeline record hashes
    it for the VM-result cache, and every outcome that replays the record
    shares this module (the optimizer rebuilds, see the module docstring,
    so the program never changes after compilation).
    """

    program: WhileNode
    _source: str | None = field(default=None, repr=False, compare=False)

    def __str__(self) -> str:
        if self._source is None:
            self._source = to_source(self.program)
        return self._source


def execute_while(program: WhileNode, max_steps: int = 100_000) -> ExecutionResult:
    """Run a WHILE program and convert its final store to an ExecutionResult.

    The observable behaviour is the final store rendered one ``name=value``
    line per variable in name order (WHILE's stand-in for stdout) with exit
    code 0.  Division by zero maps to ``ERROR`` and exhausted fuel to
    ``TIMEOUT``; either makes the oracle skip the wrong-code comparison, the
    same role undefined behaviour plays for mini-C.
    """
    interpreter = WhileInterpreter(max_steps=max_steps)
    try:
        store = interpreter.run(program)
    except ExecutionLimitExceeded as limit:
        return ExecutionResult(ExecutionStatus.TIMEOUT, detail=str(limit))
    except WhileRuntimeError as error:
        return ExecutionResult(ExecutionStatus.ERROR, detail=str(error))
    stdout = "".join(f"{name}={value}\n" for name, value in sorted(store.items()))
    return ExecutionResult(ExecutionStatus.OK, exit_code=0, stdout=stdout)


def _duplicate_branches(program: WhileNode) -> str | None:
    for node in program.walk():
        if isinstance(node, If) and to_source(node.then_branch) == to_source(node.else_branch):
            return f"'{to_source(node.then_branch).strip()}'"
    return None


class WhileCompiler(CompileDriver):
    """The WHILE compiler: the language hooks of
    :class:`repro.compiler.driver.CompileDriver`, which owns the compile
    flow, the pipeline cache's replay and the tier-up rule of ``run``."""

    rejection_types = (ParseError, LexerError)
    frontend_checks = (("wfrontend-dup-branches", _duplicate_branches),)

    def _parse(self, source: str) -> WhileNode:
        return parse_program(source)

    def _frontend_checks(self, program, faults, memo, coverage) -> None:
        coverage.record("wfrontend.program")
        super()._frontend_checks(program, faults, memo, coverage)

    def _pre_optimization(
        self, program: WhileNode, memo: dict, variant: BoundVariant | None
    ) -> tuple[WhileNode, str, tuple]:
        """The bound program, keyed on the content sha of its text.

        The printer is injective on programs, so equal text means an equal
        pre-optimization AST.  A variant's text is its memoised
        ``variant.source``.  WHILE has nothing to verify, so the key carries
        no verify flag: ``(opt level, machine bits, source sha)``.
        """
        sha = memo.get("while_source_sha")
        if sha is None:
            text = to_source(program) if variant is None else variant.source
            sha = memo["while_source_sha"] = hashlib.sha256(text.encode()).hexdigest()
        return program, sha, (int(self.opt_level), self.machine_bits, sha)

    def _interpret(self, module: WhileModule, entry: str, budget: int) -> ExecutionResult:
        return execute_while(module.program, max_steps=budget)

    def _generated(self, module: WhileModule, entry: str, budget: int) -> ExecutionResult:
        """:func:`repro.lang.codegen.compile_program_runner`'s runner; a
        program the tier cannot compile stays on the interpreter."""
        runner = compile_program_runner(module.program)
        if runner is None:
            return execute_while(module.program, max_steps=budget)
        return runner.run((), max_steps=budget)

    # -- the optimization pipeline ----------------------------------------------------

    def _optimize(self, program: WhileNode, faults: FaultSet, outcome: CompileOutcome) -> WhileModule:
        """Fold to a fixpoint (bounded), honouring the opt level and faults.

        Records no coverage; a crash leaves ``compile_effort`` at 0.  At
        ``-O0`` the program is only rebuilt (no rewriting), like a real
        compiler's unoptimized pipeline.  The performance fault re-runs the
        whole pipeline per self-assignment, inflating ``compile_effort`` by
        orders of magnitude without changing the produced code.  The faulty
        reruns are pure repetition -- every rerun starts from the same
        ``program``, the folds are deterministic, and fault triggers
        deduplicate -- so the simulator runs the pipeline *once* and scales
        the effort delta by the rerun count: every observable
        (``compile_effort`` included) is identical to actually looping.
        """
        reruns = 1
        if faults.active("wopt-fixpoint-blowup") and any(
            isinstance(node, Assign)
            and isinstance(node.value, Var)
            and node.value.name == node.target.name
            for node in program.walk()
        ):
            faults.trigger("wopt-fixpoint-blowup")
            reruns = _BLOWUP_RERUNS
        optimize = int(self.opt_level) >= 1
        effort = [0]
        result = program
        if not optimize:
            result = self._rebuild(result, effort)
        else:
            for _ in range(4):  # fixpoint bound; folds converge quickly
                folded = self._fold(result, faults, effort)
                # Structural equality: the nodes are frozen dataclasses and
                # the printer is injective on them, so this is exactly the
                # historical `to_source(folded) == to_source(result)` check
                # without rendering both trees per iteration.  The effort
                # counter is untouched either way (rendering never counted).
                if folded == result:
                    result = folded
                    break
                result = folded
        outcome.compile_effort = effort[0] * reruns
        return WhileModule(result)

    def _rebuild(self, node: WhileNode, effort: list[int]) -> WhileNode:
        """Structure-preserving deep copy (no aliasing with the input AST)."""
        effort[0] += 1
        if isinstance(node, Var):
            return Var(node.name)
        if isinstance(node, (Num, BoolLit, Skip)):
            return node
        if isinstance(node, BinaryArith):
            return BinaryArith(node.op, self._rebuild(node.left, effort), self._rebuild(node.right, effort))
        if isinstance(node, Compare):
            return Compare(node.op, self._rebuild(node.left, effort), self._rebuild(node.right, effort))
        if isinstance(node, BoolBinary):
            return BoolBinary(node.op, self._rebuild(node.left, effort), self._rebuild(node.right, effort))
        if isinstance(node, Not):
            return Not(self._rebuild(node.operand, effort))
        if isinstance(node, Assign):
            target = self._rebuild(node.target, effort)
            assert isinstance(target, Var)
            return Assign(target, self._rebuild(node.value, effort))
        if isinstance(node, Seq):
            return Seq(tuple(self._rebuild(stmt, effort) for stmt in node.statements))
        if isinstance(node, While):
            return While(self._rebuild(node.condition, effort), self._rebuild(node.body, effort))
        if isinstance(node, If):
            return If(
                self._rebuild(node.condition, effort),
                self._rebuild(node.then_branch, effort),
                self._rebuild(node.else_branch, effort),
            )
        raise TypeError(f"unknown WHILE node {node!r}")

    def _fold(self, node: WhileNode, faults: FaultSet, effort: list[int]) -> WhileNode:
        effort[0] += 1
        if isinstance(node, Var):
            return Var(node.name)
        if isinstance(node, (Num, BoolLit, Skip)):
            return node
        if isinstance(node, BinaryArith):
            return self._fold_arith(node, faults, effort)
        if isinstance(node, Compare):
            return self._fold_compare(node, faults, effort)
        if isinstance(node, BoolBinary):
            left = self._fold(node.left, faults, effort)
            right = self._fold(node.right, faults, effort)
            if isinstance(left, BoolLit):
                if node.op == "and":
                    return right if left.value else BoolLit(False)
                return BoolLit(True) if left.value else right
            if isinstance(right, BoolLit):
                # Expression evaluation is effect-free, so dropping the left
                # operand of `b and false` / `b or true` is sound.
                if node.op == "and" and not right.value:
                    return BoolLit(False)
                if node.op == "or" and right.value:
                    return BoolLit(True)
            return BoolBinary(node.op, left, right)
        if isinstance(node, Not):
            operand = self._fold(node.operand, faults, effort)
            if isinstance(operand, BoolLit):
                return BoolLit(not operand.value)
            return Not(operand)
        if isinstance(node, Assign):
            target = self._fold(node.target, faults, effort)
            assert isinstance(target, Var)
            return Assign(target, self._fold(node.value, faults, effort))
        if isinstance(node, Seq):
            statements = []
            for statement in node.statements:
                folded = self._fold(statement, faults, effort)
                if isinstance(folded, Skip):
                    continue
                statements.append(folded)
            if not statements:
                return Skip()
            if len(statements) == 1:
                return statements[0]
            return Seq(tuple(statements))
        if isinstance(node, While):
            condition = self._fold(node.condition, faults, effort)
            if isinstance(condition, BoolLit) and not condition.value:
                return Skip()
            return While(condition, self._fold(node.body, faults, effort))
        if isinstance(node, If):
            condition = self._fold(node.condition, faults, effort)
            then_branch = self._fold(node.then_branch, faults, effort)
            else_branch = self._fold(node.else_branch, faults, effort)
            if isinstance(condition, BoolLit):
                return then_branch if condition.value else else_branch
            return If(condition, then_branch, else_branch)
        raise TypeError(f"unknown WHILE node {node!r}")

    def _fold_arith(self, node: BinaryArith, faults: FaultSet, effort: list[int]) -> WhileNode:
        left = self._fold(node.left, faults, effort)
        right = self._fold(node.right, faults, effort)
        if isinstance(left, Num) and isinstance(right, Num):
            if node.op == "+":
                return Num(left.value + right.value)
            if node.op == "-":
                return Num(left.value - right.value)
            if node.op == "*":
                return Num(left.value * right.value)
            if right.value != 0:  # leave division by zero for the runtime
                return Num(int(left.value / right.value))
            return BinaryArith(node.op, left, right)
        if node.op == "-" and isinstance(left, Var) and isinstance(right, Var):
            if left.name == right.name:
                if faults.active("wfold-sub-self"):
                    faults.crash(
                        "wfold-sub-self", detail=f"'{left.name} - {right.name}'"
                    )
                return Num(0)
            if left.name > right.name and faults.active("wsub-name-commute"):
                # The seeded wrong-code bug: x - y "canonicalised" to y - x.
                faults.trigger("wsub-name-commute")
                return BinaryArith("-", right, left)
        if node.op == "+" and isinstance(right, Num) and right.value == 0:
            return left
        if node.op == "+" and isinstance(left, Num) and left.value == 0:
            return right
        if node.op == "-" and isinstance(right, Num) and right.value == 0:
            return left
        if node.op == "*" and isinstance(right, Num) and right.value == 1:
            return left
        if node.op == "*" and isinstance(left, Num) and left.value == 1:
            return right
        return BinaryArith(node.op, left, right)

    def _fold_compare(self, node: Compare, faults: FaultSet, effort: list[int]) -> WhileNode:
        left = self._fold(node.left, faults, effort)
        right = self._fold(node.right, faults, effort)
        if isinstance(left, Num) and isinstance(right, Num):
            value = {
                "==": left.value == right.value,
                "!=": left.value != right.value,
                "<": left.value < right.value,
                "<=": left.value <= right.value,
                ">": left.value > right.value,
                ">=": left.value >= right.value,
            }[node.op]
            return BoolLit(value)
        if isinstance(left, Var) and isinstance(right, Var) and left.name == right.name:
            if node.op in ("<", ">", "!="):
                return BoolLit(False)
            if node.op == "==":
                return BoolLit(True)
            # op is <= or >=: reflexively true -- unless the seeded fault
            # lumps them in with the strict comparisons.
            if faults.active("wcmp-self-reflexive"):
                faults.trigger("wcmp-self-reflexive")
                return BoolLit(False)
            return BoolLit(True)
        return Compare(node.op, left, right)


__all__ = [
    "WC_BUG_CATALOGUE",
    "WC_ORDER",
    "WhileCompiler",
    "WhileModule",
    "execute_while",
]
