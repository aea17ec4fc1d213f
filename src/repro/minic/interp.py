"""Reference interpreter for mini-C with undefined-behaviour detection.

This plays the role of CompCert's reference interpreter in the paper's
methodology (Section 5.4): enumerated variants are first executed here; only
variants that are free of undefined behaviour are eligible for wrong-code
differential comparison, and the interpreter's observable behaviour (stdout +
exit code) is the ground truth the compilers under test are compared against.

Detected undefined behaviours:

* reads of uninitialized scalars, array elements or heap cells;
* signed integer overflow in arithmetic and in ``++``/``--``;
* division or remainder by zero;
* shift counts that are negative or not smaller than the operand width;
* out-of-bounds array indexing and pointer dereference (including one-past-
  the-end dereference), null-pointer dereference;
* dereferencing a pointer to a variable whose lifetime ended;
* using the return value of a non-void function that fell off its end.

Non-termination is bounded by a step budget and reported as ``TIMEOUT``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.execution import ExecutionResult, ExecutionStatus
from repro.minic import ast
from repro.minic.ctypes import (
    ArrayType,
    CType,
    INT,
    IntType,
    LONG,
    PointerType,
    UINT,
)
from repro.minic.errors import MiniCRuntimeError
from repro.minic.parser import parse
from repro.minic.symbols import resolve


# ExecutionStatus / ExecutionResult live in repro.core.execution (they are
# shared by every frontend's reference interpreter and compiler backend);
# they are re-exported here for backwards compatibility.


class UndefinedBehaviour(Exception):
    """Raised internally when UB is detected; converted to an ExecutionResult."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _Timeout(Exception):
    pass


class _ExitProgram(Exception):
    def __init__(self, code: int) -> None:
        self.code = code


class _ReturnSignal(Exception):
    def __init__(self, value: "Value | None") -> None:
        self.value = value


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _GotoSignal(Exception):
    def __init__(self, label: str) -> None:
        self.label = label


# -- runtime values -----------------------------------------------------------


@dataclass(slots=True)
class Block:
    """A contiguous memory object (one scalar, or one array)."""

    id: int
    name: str
    elem_type: CType
    cells: list["int | Pointer | None"]
    alive: bool = True

    @property
    def size(self) -> int:
        return len(self.cells)


@dataclass(frozen=True, slots=True)
class Pointer:
    """A pointer value: a block plus an element offset."""

    block_id: int
    offset: int

    @staticmethod
    def null() -> "Pointer":
        return Pointer(-1, 0)

    @property
    def is_null(self) -> bool:
        return self.block_id == -1


@dataclass(slots=True)
class Value:
    """A typed runtime value (integer or pointer)."""

    ctype: CType
    payload: "int | Pointer"

    def as_int(self) -> int:
        if isinstance(self.payload, Pointer):
            raise UndefinedBehaviour("pointer used where an integer is required")
        return self.payload

    def truthy(self) -> bool:
        if isinstance(self.payload, Pointer):
            return not self.payload.is_null
        return self.payload != 0


# -- lvalues -------------------------------------------------------------------


@dataclass(slots=True)
class LValue:
    """A memory location: a block and an offset, plus the stored element type."""

    block: Block
    offset: int
    ctype: CType


class Interpreter:
    """AST-walking evaluator for mini-C translation units.

    Two execution tiers share identical semantics:

    * the *interpretive* tier dispatches per node through the
      ``_STMT_DISPATCH``/``_EXPR_DISPATCH`` tables (and alone handles
      ``goto`` re-entry, which needs resume labels);
    * the *compiled* tier translates each goto-free function body **once**
      into a tree of Python closures specialised per node type and operator
      (literals become pre-built values, operators are selected at compile
      time, scope forks are precomputed).  Compiled bodies are memoised in
      ``compiled`` -- pass the same dict across runs (the campaign passes a
      per-skeleton dict) and the translation is shared by every variant of a
      skeleton, because closures read ``Identifier.name``/``decl`` at
      execution time and therefore follow AST rebinding.
    """

    __slots__ = (
        "max_steps",
        "max_call_depth",
        "_compiled",
        "_steps",
        "_blocks",
        "_next_block",
        "_globals",
        "_stdout",
        "_unit",
        "_functions",
        "_call_depth",
        "executed_statements",
        "_needs_scope",
        "_label_memo",
    )

    def __init__(
        self,
        max_steps: int = 200_000,
        max_call_depth: int = 200,
        compiled: dict | None = None,
    ) -> None:
        self.max_steps = max_steps
        self.max_call_depth = max_call_depth
        # id(FunctionDef) -> list of compiled statement thunks, or None when
        # the function must run interpretively (it contains goto/labels).
        self._compiled = compiled if compiled is not None else {}
        self._steps = 0
        self._blocks: dict[int, Block] = {}
        self._next_block = 0
        self._globals: dict[str, Block] = {}
        self._stdout: list[str] = []
        self._unit: ast.TranslationUnit | None = None
        self._functions: dict[str, ast.FunctionDef] = {}
        self._call_depth = 0
        # Identity set of every statement node that was executed at least
        # once; the EMI-style mutation baseline uses it to find dead regions.
        self.executed_statements: set[int] = set()
        # Per-node memo: does this block/for statement declare variables
        # directly (so entering it must fork the environment dict)?  Keyed by
        # node identity; loops re-enter the same node every iteration, so the
        # answer is computed once instead of copying the environment each time.
        self._needs_scope: dict[int, bool] = {}
        # Memo for the goto-resume machinery: (node id, label) -> does the
        # subtree contain the label?  Re-entering a function at a label scans
        # the same statements repeatedly; without the memo each scan walks
        # whole subtrees.
        self._label_memo: dict[tuple[int, str], bool] = {}

    # -- public API -----------------------------------------------------------

    def run(self, unit: ast.TranslationUnit, entry: str = "main") -> ExecutionResult:
        """Execute ``entry`` (default ``main``) and return the observable result."""
        self._unit = unit
        self._functions = {
            fn.name: fn for fn in unit.functions() if fn.body.items or fn.body.loc.line != 0
        }
        try:
            self._initialize_globals(unit)
            if entry not in self._functions:
                return ExecutionResult(
                    ExecutionStatus.ERROR, detail=f"no function named {entry!r}"
                )
            value = self._call_function(self._functions[entry], [])
            exit_code = 0
            if value is not None and isinstance(value.payload, int):
                exit_code = value.payload & 0xFF
            return ExecutionResult(ExecutionStatus.OK, exit_code=exit_code, stdout=self.stdout)
        except UndefinedBehaviour as ub:
            return ExecutionResult(
                ExecutionStatus.UNDEFINED, stdout=self.stdout, detail=ub.reason
            )
        except _ExitProgram as stop:
            return ExecutionResult(
                ExecutionStatus.OK, exit_code=stop.code & 0xFF, stdout=self.stdout
            )
        except _Timeout:
            return ExecutionResult(ExecutionStatus.TIMEOUT, stdout=self.stdout, detail="step budget exhausted")
        except (MiniCRuntimeError, RecursionError) as error:
            return ExecutionResult(ExecutionStatus.ERROR, stdout=self.stdout, detail=str(error))

    @property
    def stdout(self) -> str:
        return "".join(self._stdout)

    # -- memory ---------------------------------------------------------------

    def _new_block(self, name: str, elem_type: CType, size: int, initialized: bool) -> Block:
        block = Block(
            id=self._next_block,
            name=name,
            elem_type=elem_type,
            cells=[0 if initialized else None] * size,
        )
        self._blocks[block.id] = block
        self._next_block += 1
        return block

    def _block(self, pointer: Pointer) -> Block:
        if pointer.is_null:
            raise UndefinedBehaviour("null pointer dereference")
        block = self._blocks.get(pointer.block_id)
        if block is None or not block.alive:
            raise UndefinedBehaviour("dereference of pointer to dead object")
        return block

    # -- globals --------------------------------------------------------------

    def _initialize_globals(self, unit: ast.TranslationUnit) -> None:
        for decl in unit.globals():
            self._declare_variable(decl, self._globals, is_global=True)

    def _declare_variable(
        self, decl: ast.VarDecl, environment: dict[str, Block], is_global: bool
    ) -> None:
        var_type = decl.var_type
        if isinstance(var_type, ArrayType):
            block = self._new_block(decl.name, var_type.base, var_type.size, initialized=is_global)
            if decl.init_list is not None:
                for index, item in enumerate(decl.init_list):
                    if index >= var_type.size:
                        raise UndefinedBehaviour("too many array initializers")
                    block.cells[index] = self._coerce(self._eval(item, environment), var_type.base)
                for index in range(len(decl.init_list), var_type.size):
                    block.cells[index] = 0
            elif not is_global and decl.init_list is None:
                # Local arrays without initializers stay uninitialized.
                if not is_global:
                    block.cells = [None] * var_type.size
        else:
            block = self._new_block(decl.name, var_type, 1, initialized=is_global)
            if decl.init is not None:
                value = self._eval(decl.init, environment)
                block.cells[0] = self._coerce(value, var_type)
            elif not is_global:
                block.cells[0] = None
        environment[decl.name] = block

    # -- function calls --------------------------------------------------------

    def _call_function(self, function: ast.FunctionDef, args: list[Value]) -> Value | None:
        self._call_depth += 1
        if self._call_depth > self.max_call_depth:
            self._call_depth -= 1
            raise MiniCRuntimeError("call depth limit exceeded")
        if len(args) != len(function.params):
            self._call_depth -= 1
            raise MiniCRuntimeError(
                f"call of {function.name!r} with {len(args)} arguments; expected {len(function.params)}"
            )
        frame: dict[str, Block] = {}
        for param, arg in zip(function.params, args):
            block = self._new_block(param.name, param.var_type, 1, initialized=True)
            block.cells[0] = self._coerce(arg, param.var_type)
            frame[param.name] = block
        local_blocks: list[Block] = list(frame.values())
        key = id(function)
        thunks = self._compiled.get(key, _UNCOMPILED)
        if thunks is _UNCOMPILED:
            thunks = compile_function(function)
            self._compiled[key] = thunks
        try:
            if thunks is not None:
                # Compiled tier (goto-free functions): straight-line closures.
                for thunk in thunks:
                    thunk(self, frame, local_blocks)
            else:
                try:
                    self._exec_block_items(function.body.items, frame, local_blocks)
                except _GotoSignal as signal:
                    self._run_with_goto(function, frame, local_blocks, signal.label)
            result: Value | None = None
        except _ReturnSignal as signal:
            result = signal.value
        finally:
            for block in local_blocks:
                block.alive = False
            self._call_depth -= 1
        if result is None and not function.return_type.is_void:
            # Falling off the end of a non-void function: the *use* of the
            # value is UB, represented by an "uninitialized" marker value.
            return Value(function.return_type, _MISSING_RETURN)
        return result

    def _run_with_goto(
        self,
        function: ast.FunctionDef,
        frame: dict[str, Block],
        local_blocks: list[Block],
        label: str,
    ) -> None:
        """Re-enter the function body at ``label`` (loops until no more gotos)."""
        remaining_jumps = 1000
        while True:
            remaining_jumps -= 1
            if remaining_jumps <= 0:
                raise _Timeout()
            try:
                self._exec_block_items(function.body.items, frame, local_blocks, resume_label=label)
                return
            except _GotoSignal as signal:
                label = signal.label

    # -- statements ------------------------------------------------------------

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise _Timeout()

    def _exec_block_items(
        self,
        items: list[ast.Stmt],
        environment: dict[str, Block],
        local_blocks: list[Block],
        resume_label: str | None = None,
    ) -> None:
        index = 0
        if resume_label is not None:
            index = self._find_resume_index(items, resume_label)
        while index < len(items):
            statement = items[index]
            if resume_label is not None and index == self._find_resume_index(items, resume_label):
                self._exec_stmt(statement, environment, local_blocks, resume_label=resume_label)
                resume_label = None
            else:
                self._exec_stmt(statement, environment, local_blocks)
            index += 1

    def _contains_label(self, stmt: ast.Node, label: str) -> bool:
        key = (id(stmt), label)
        found = self._label_memo.get(key)
        if found is None:
            found = self._label_memo[key] = _contains_label(stmt, label)
        return found

    def _find_resume_index(self, items: list[ast.Stmt], label: str) -> int:
        for index, statement in enumerate(items):
            if self._contains_label(statement, label):
                return index
        raise MiniCRuntimeError(f"goto to unknown label {label!r}")

    def _exec_stmt(
        self,
        stmt: ast.Stmt,
        environment: dict[str, Block],
        local_blocks: list[Block],
        resume_label: str | None = None,
    ) -> None:
        # _tick() inlined: this is one of the two hottest call sites.
        self._steps += 1
        if self._steps > self.max_steps:
            raise _Timeout()
        self.executed_statements.add(id(stmt))
        handler = _STMT_DISPATCH.get(stmt.__class__)
        if handler is None:
            raise MiniCRuntimeError(f"cannot execute statement {stmt!r}")
        handler(self, stmt, environment, local_blocks, resume_label)

    # Statement handlers, one per node type, selected through _STMT_DISPATCH
    # (built once at module load) instead of an isinstance chain.

    def _exec_block(self, stmt, environment, local_blocks, resume_label) -> None:
        needs_scope = self._needs_scope.get(id(stmt))
        if needs_scope is None:
            needs_scope = any(_declares_into_scope(item) for item in stmt.items)
            self._needs_scope[id(stmt)] = needs_scope
        # Fork the environment only when the block actually declares
        # variables; plain control-flow blocks (the common case inside loops)
        # share the caller's dict.
        scope_env = dict(environment) if needs_scope else environment
        self._exec_block_items(stmt.items, scope_env, local_blocks, resume_label)

    def _exec_decl_stmt(self, stmt, environment, local_blocks, resume_label) -> None:
        if resume_label is None:
            for decl in stmt.decls:
                self._declare_variable(decl, environment, is_global=False)
                local_blocks.append(environment[decl.name])

    def _exec_expr_stmt(self, stmt, environment, local_blocks, resume_label) -> None:
        if resume_label is None:
            self._eval(stmt.expr, environment)

    def _exec_empty(self, stmt, environment, local_blocks, resume_label) -> None:
        return

    def _exec_label(self, stmt, environment, local_blocks, resume_label) -> None:
        if resume_label is not None and stmt.name == resume_label:
            resume_label = None
        self._exec_stmt(stmt.statement, environment, local_blocks, resume_label)

    def _exec_if(self, stmt, environment, local_blocks, resume_label) -> None:
        if resume_label is not None:
            branch = (
                stmt.then_branch
                if self._contains_label(stmt.then_branch, resume_label)
                else stmt.else_branch
            )
            if branch is not None:
                self._exec_stmt(branch, environment, local_blocks, resume_label)
            return
        if self._eval(stmt.condition, environment).truthy():
            self._exec_stmt(stmt.then_branch, environment, local_blocks)
        elif stmt.else_branch is not None:
            self._exec_stmt(stmt.else_branch, environment, local_blocks)

    def _exec_while(self, stmt, environment, local_blocks, resume_label) -> None:
        first = True
        while True:
            self._tick()
            if resume_label is not None and first:
                # Jump into the body, then continue iterating normally.
                pass
            elif not self._eval(stmt.condition, environment).truthy():
                break
            try:
                self._exec_stmt(
                    stmt.body, environment, local_blocks, resume_label if first else None
                )
            except _BreakSignal:
                break
            except _ContinueSignal:
                pass
            first = False

    def _exec_do_while(self, stmt, environment, local_blocks, resume_label) -> None:
        first = True
        while True:
            self._tick()
            try:
                self._exec_stmt(
                    stmt.body, environment, local_blocks, resume_label if first else None
                )
            except _BreakSignal:
                break
            except _ContinueSignal:
                pass
            first = False
            if not self._eval(stmt.condition, environment).truthy():
                break

    def _exec_for(self, stmt, environment, local_blocks, resume_label) -> None:
        needs_scope = self._needs_scope.get(id(stmt))
        if needs_scope is None:
            needs_scope = _declares_into_scope(stmt.init) or _declares_into_scope(stmt.body)
            self._needs_scope[id(stmt)] = needs_scope
        scope_env = dict(environment) if needs_scope else environment
        entering_via_goto = resume_label is not None
        if stmt.init is not None and not entering_via_goto:
            self._exec_stmt(stmt.init, scope_env, local_blocks)
        first = True
        while True:
            self._tick()
            if not (first and entering_via_goto):
                if stmt.condition is not None and not self._eval(
                    stmt.condition, scope_env
                ).truthy():
                    break
            try:
                self._exec_stmt(
                    stmt.body, scope_env, local_blocks, resume_label if first else None
                )
            except _BreakSignal:
                break
            except _ContinueSignal:
                pass
            first = False
            if stmt.step is not None:
                self._eval(stmt.step, scope_env)

    def _exec_return(self, stmt, environment, local_blocks, resume_label) -> None:
        if resume_label is not None:
            return
        if stmt.value is None:
            raise _ReturnSignal(None)
        raise _ReturnSignal(self._eval(stmt.value, environment))

    def _exec_break(self, stmt, environment, local_blocks, resume_label) -> None:
        if resume_label is None:
            raise _BreakSignal()

    def _exec_continue(self, stmt, environment, local_blocks, resume_label) -> None:
        if resume_label is None:
            raise _ContinueSignal()

    def _exec_goto(self, stmt, environment, local_blocks, resume_label) -> None:
        if resume_label is None:
            raise _GotoSignal(stmt.label)

    # -- expressions -------------------------------------------------------------

    def _eval(self, expr: ast.Expr, environment: dict[str, Block]) -> Value:
        # _tick() inlined: this is the hottest call site in the interpreter.
        self._steps += 1
        if self._steps > self.max_steps:
            raise _Timeout()
        handler = _EXPR_DISPATCH.get(expr.__class__)
        if handler is None:
            raise MiniCRuntimeError(f"cannot evaluate expression {expr!r}")
        return handler(self, expr, environment)

    # Expression handlers, one per node type, selected through _EXPR_DISPATCH.

    def _eval_int_literal(self, expr: ast.IntLiteral, environment) -> Value:
        ctype = LONG if "l" in expr.suffix else (UINT if "u" in expr.suffix else INT)
        return Value(ctype, ctype.wrap(expr.value) if isinstance(ctype, IntType) else expr.value)

    def _eval_char_literal(self, expr: ast.CharLiteral, environment) -> Value:
        return Value(INT, expr.value)

    def _eval_string_literal(self, expr: ast.StringLiteral, environment) -> Value:
        # Only meaningful as printf formats; modelled as an opaque pointer.
        return Value(PointerType(INT), Pointer.null())

    def _eval_identifier(self, expr: ast.Identifier, environment) -> Value:
        # Inlined _lvalue + _load for the by-far hottest expression kind: a
        # scalar variable read is one dict lookup, one cell read, one Value.
        block = environment.get(expr.name) or self._globals.get(expr.name)
        if block is None:
            raise MiniCRuntimeError(f"unknown variable {expr.name!r}")
        declared = expr.decl.var_type if expr.decl is not None else block.elem_type
        if isinstance(declared, ArrayType):
            # Arrays decay to a pointer to their first element.
            return Value(PointerType(declared.base), Pointer(block.id, 0))
        if not block.cells:
            raise UndefinedBehaviour(f"out-of-bounds read of {block.name!r}")
        cell = block.cells[0]
        if cell is None:
            raise UndefinedBehaviour(f"read of uninitialized value {block.name!r}")
        if cell is _MISSING_RETURN:
            raise UndefinedBehaviour("use of the value of a function that did not return one")
        return Value(declared, cell)

    def _eval_index(self, expr: ast.Index, environment) -> Value:
        return self._load(self._lvalue(expr, environment))

    def _eval_conditional(self, expr: ast.Conditional, environment) -> Value:
        if self._eval(expr.condition, environment).truthy():
            return self._eval(expr.then_expr, environment)
        return self._eval(expr.else_expr, environment)

    def _eval_cast(self, expr: ast.Cast, environment) -> Value:
        value = self._eval(expr.operand, environment)
        return self._coerce_value(value, expr.target_type)

    def _eval_unary(self, expr: ast.Unary, environment: dict[str, Block]) -> Value:
        if expr.op == "&":
            lvalue = self._lvalue(expr.operand, environment)
            return Value(PointerType(lvalue.ctype), Pointer(lvalue.block.id, lvalue.offset))
        if expr.op == "*":
            pointer_value = self._eval(expr.operand, environment)
            if not isinstance(pointer_value.payload, Pointer):
                raise UndefinedBehaviour("dereference of a non-pointer value")
            block = self._block(pointer_value.payload)
            offset = pointer_value.payload.offset
            target = (
                pointer_value.ctype.base
                if isinstance(pointer_value.ctype, PointerType)
                else block.elem_type
            )
            return self._load(LValue(block, offset, target))
        if expr.op in ("++", "--"):
            lvalue = self._lvalue(expr.operand, environment)
            old = self._load(lvalue)
            delta = 1 if expr.op == "++" else -1
            if isinstance(old.payload, Pointer):
                new_payload: int | Pointer = Pointer(old.payload.block_id, old.payload.offset + delta)
                new = Value(old.ctype, new_payload)
            else:
                new = self._arith_int(old.ctype, old.payload, delta, "+")
            self._store(lvalue, new)
            return old if expr.postfix else new
        operand = self._eval(expr.operand, environment)
        if expr.op == "-":
            return self._arith_int(operand.ctype, 0, self._int_of(operand), "-")
        if expr.op == "+":
            return Value(operand.ctype, self._int_of(operand))
        if expr.op == "!":
            return Value(INT, 0 if operand.truthy() else 1)
        if expr.op == "~":
            ctype = operand.ctype if isinstance(operand.ctype, IntType) else INT
            return Value(ctype, ctype.wrap(~self._int_of(operand)))
        raise MiniCRuntimeError(f"unsupported unary operator {expr.op!r}")

    def _eval_binary(self, expr: ast.Binary, environment: dict[str, Block]) -> Value:
        op = expr.op
        if op == "&&":
            if not self._eval(expr.left, environment).truthy():
                return Value(INT, 0)
            return Value(INT, 1 if self._eval(expr.right, environment).truthy() else 0)
        if op == "||":
            if self._eval(expr.left, environment).truthy():
                return Value(INT, 1)
            return Value(INT, 1 if self._eval(expr.right, environment).truthy() else 0)
        if op == ",":
            self._eval(expr.left, environment)
            return self._eval(expr.right, environment)

        left = self._eval(expr.left, environment)
        right = self._eval(expr.right, environment)

        # Pointer comparisons and pointer arithmetic.
        if isinstance(left.payload, Pointer) or isinstance(right.payload, Pointer):
            return self._pointer_binary(op, left, right)

        compare = _COMPARISONS.get(op)
        if compare is not None:
            return Value(INT, 1 if compare(self._int_of(left), self._int_of(right)) else 0)

        result_type = _arithmetic_result_type(left.ctype, right.ctype)
        return self._arith_int(result_type, self._int_of(left), self._int_of(right), op)

    def _pointer_binary(self, op: str, left: Value, right: Value) -> Value:
        if op in ("==", "!="):
            equal = left.payload == right.payload
            return Value(INT, int(equal) if op == "==" else int(not equal))
        if op in ("+", "-") and isinstance(left.payload, Pointer) and isinstance(right.payload, int):
            delta = right.payload if op == "+" else -right.payload
            return Value(left.ctype, Pointer(left.payload.block_id, left.payload.offset + delta))
        if op == "+" and isinstance(right.payload, Pointer) and isinstance(left.payload, int):
            return Value(right.ctype, Pointer(right.payload.block_id, right.payload.offset + left.payload))
        if op == "-" and isinstance(left.payload, Pointer) and isinstance(right.payload, Pointer):
            if left.payload.block_id != right.payload.block_id:
                raise UndefinedBehaviour("subtraction of pointers into different objects")
            return Value(LONG, left.payload.offset - right.payload.offset)
        if op in ("<", "<=", ">", ">=") and isinstance(left.payload, Pointer) and isinstance(right.payload, Pointer):
            if left.payload.block_id != right.payload.block_id:
                raise UndefinedBehaviour("relational comparison of pointers into different objects")
            outcome = _COMPARISONS[op](left.payload.offset, right.payload.offset)
            return Value(INT, int(outcome))
        raise UndefinedBehaviour(f"unsupported pointer operation {op!r}")

    def _eval_assignment(self, expr: ast.Assignment, environment: dict[str, Block]) -> Value:
        lvalue = self._lvalue(expr.target, environment)
        value = self._eval(expr.value, environment)
        if expr.op != "=":
            current = self._load(lvalue)
            operator = expr.op[:-1]
            if isinstance(current.payload, Pointer):
                if operator not in ("+", "-"):
                    raise UndefinedBehaviour("invalid compound assignment on a pointer")
                delta = self._int_of(value) if operator == "+" else -self._int_of(value)
                value = Value(current.ctype, Pointer(current.payload.block_id, current.payload.offset + delta))
            else:
                result_type = (
                    current.ctype if isinstance(current.ctype, IntType) else INT
                )
                value = self._arith_int(result_type, self._int_of(current), self._int_of(value), operator)
        stored = self._coerce(value, lvalue.ctype)
        lvalue.block.cells[lvalue.offset] = stored
        return Value(lvalue.ctype, stored)

    def _eval_call(self, expr: ast.Call, environment: dict[str, Block]) -> Value:
        if expr.callee == "printf":
            return self._builtin_printf(expr, environment)
        if expr.callee in ("abort", "__builtin_abort"):
            raise _ExitProgram(134)
        if expr.callee == "exit":
            code = self._int_of(self._eval(expr.args[0], environment)) if expr.args else 0
            raise _ExitProgram(code)
        if expr.callee == "putchar":
            value = self._int_of(self._eval(expr.args[0], environment)) if expr.args else 0
            self._stdout.append(chr(value & 0xFF))
            return Value(INT, value)
        function = self._functions.get(expr.callee)
        if function is None:
            raise MiniCRuntimeError(f"call of undefined function {expr.callee!r}")
        args = [self._eval(arg, environment) for arg in expr.args]
        result = self._call_function(function, args)
        if result is None:
            return Value(INT, 0)
        return result

    def _builtin_printf(self, expr: ast.Call, environment: dict[str, Block]) -> Value:
        if not expr.args or not isinstance(expr.args[0], ast.StringLiteral):
            raise MiniCRuntimeError("printf requires a string-literal format")
        format_string = expr.args[0].value
        values = [self._eval(arg, environment) for arg in expr.args[1:]]
        output: list[str] = []
        value_index = 0
        position = 0
        while position < len(format_string):
            char = format_string[position]
            if char != "%":
                output.append(char)
                position += 1
                continue
            specifier = ""
            position += 1
            while position < len(format_string) and format_string[position] in "ldux%c":
                specifier += format_string[position]
                position += 1
                if specifier[-1] in "duxc%":
                    break
            if specifier == "%":
                output.append("%")
                continue
            if value_index >= len(values):
                raise UndefinedBehaviour("printf: not enough arguments for format")
            value = values[value_index]
            value_index += 1
            integer = self._int_of(value)
            if specifier.endswith("d"):
                output.append(str(integer))
            elif specifier.endswith("u"):
                bits = value.ctype.bits if isinstance(value.ctype, IntType) else 32
                output.append(str(integer % (1 << bits)))
            elif specifier.endswith("x"):
                bits = value.ctype.bits if isinstance(value.ctype, IntType) else 32
                output.append(format(integer % (1 << bits), "x"))
            elif specifier.endswith("c"):
                output.append(chr(integer & 0xFF))
            else:
                output.append(str(integer))
        self._stdout.append("".join(output))
        return Value(INT, len(output))

    # -- lvalues / loads / stores --------------------------------------------------

    def _lvalue(self, expr: ast.Expr, environment: dict[str, Block]) -> LValue:
        if isinstance(expr, ast.Identifier):
            block = environment.get(expr.name) or self._globals.get(expr.name)
            if block is None:
                raise MiniCRuntimeError(f"unknown variable {expr.name!r}")
            declared = expr.decl.var_type if expr.decl is not None else block.elem_type
            return LValue(block, 0, declared)
        if isinstance(expr, ast.Index):
            base = self._eval(expr.base, environment)
            index = self._int_of(self._eval(expr.index, environment))
            if not isinstance(base.payload, Pointer):
                raise UndefinedBehaviour("indexing a non-pointer value")
            pointer = Pointer(base.payload.block_id, base.payload.offset + index)
            block = self._block(pointer)
            if not (0 <= pointer.offset < block.size):
                raise UndefinedBehaviour(
                    f"out-of-bounds access to {block.name!r} at offset {pointer.offset}"
                )
            element = base.ctype.base if isinstance(base.ctype, PointerType) else block.elem_type
            return LValue(block, pointer.offset, element)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            pointer_value = self._eval(expr.operand, environment)
            if not isinstance(pointer_value.payload, Pointer):
                raise UndefinedBehaviour("dereference of a non-pointer value")
            block = self._block(pointer_value.payload)
            offset = pointer_value.payload.offset
            if not (0 <= offset < block.size):
                raise UndefinedBehaviour(
                    f"out-of-bounds dereference of pointer into {block.name!r}"
                )
            element = (
                pointer_value.ctype.base
                if isinstance(pointer_value.ctype, PointerType)
                else block.elem_type
            )
            return LValue(block, offset, element)
        raise UndefinedBehaviour("assignment target is not an lvalue")

    def _load(self, lvalue: LValue) -> Value:
        if not (0 <= lvalue.offset < lvalue.block.size):
            raise UndefinedBehaviour(f"out-of-bounds read of {lvalue.block.name!r}")
        cell = lvalue.block.cells[lvalue.offset]
        if cell is None:
            raise UndefinedBehaviour(f"read of uninitialized value {lvalue.block.name!r}")
        if cell is _MISSING_RETURN:
            raise UndefinedBehaviour("use of the value of a function that did not return one")
        return Value(lvalue.ctype, cell)

    def _store(self, lvalue: LValue, value: Value) -> None:
        if not (0 <= lvalue.offset < lvalue.block.size):
            raise UndefinedBehaviour(f"out-of-bounds write to {lvalue.block.name!r}")
        lvalue.block.cells[lvalue.offset] = self._coerce(value, lvalue.ctype)

    # -- arithmetic helpers -----------------------------------------------------------

    def _int_of(self, value: Value) -> int:
        if isinstance(value.payload, Pointer):
            raise UndefinedBehaviour("pointer used in integer arithmetic")
        if value.payload is _MISSING_RETURN:
            raise UndefinedBehaviour("use of the value of a function that did not return one")
        return value.payload

    def _arith_int(self, ctype: CType, left: int, right: int, op: str) -> Value:
        int_type = ctype if isinstance(ctype, IntType) else INT
        if op == "+":
            raw = left + right
        elif op == "-":
            raw = left - right
        elif op == "*":
            raw = left * right
        elif op in ("/", "%"):
            if right == 0:
                raise UndefinedBehaviour("division by zero")
            quotient = abs(left) // abs(right)
            if (left < 0) != (right < 0):
                quotient = -quotient
            remainder = left - quotient * right
            raw = quotient if op == "/" else remainder
            if op == "/" and int_type.signed and left == int_type.min_value and right == -1:
                raise UndefinedBehaviour("signed division overflow")
        elif op in ("<<", ">>"):
            if right < 0 or right >= int_type.bits:
                raise UndefinedBehaviour(f"shift amount {right} out of range for {int_type.name}")
            if op == "<<":
                if int_type.signed and left < 0:
                    raise UndefinedBehaviour("left shift of a negative value")
                raw = left << right
            else:
                raw = left >> right
        elif op == "&":
            raw = self._to_unsigned(left, int_type) & self._to_unsigned(right, int_type)
        elif op == "|":
            raw = self._to_unsigned(left, int_type) | self._to_unsigned(right, int_type)
        elif op == "^":
            raw = self._to_unsigned(left, int_type) ^ self._to_unsigned(right, int_type)
        else:
            raise MiniCRuntimeError(f"unsupported arithmetic operator {op!r}")

        if int_type.signed and op in ("+", "-", "*", "<<") and not int_type.in_range(raw):
            raise UndefinedBehaviour(
                f"signed integer overflow: {left} {op} {right} does not fit in {int_type.name}"
            )
        return Value(int_type, int_type.wrap(raw))

    @staticmethod
    def _to_unsigned(value: int, int_type: IntType) -> int:
        return value & ((1 << int_type.bits) - 1)

    def _coerce(self, value: Value, target: CType) -> "int | Pointer":
        return self._coerce_value(value, target).payload

    def _coerce_value(self, value: Value, target: CType) -> Value:
        if value.payload is _MISSING_RETURN:
            raise UndefinedBehaviour("use of the value of a function that did not return one")
        if isinstance(target, (PointerType, ArrayType)):
            if isinstance(value.payload, Pointer):
                return Value(target, value.payload)
            if value.payload == 0:
                return Value(target, Pointer.null())
            raise UndefinedBehaviour("conversion of a non-zero integer to a pointer")
        if isinstance(target, IntType):
            if isinstance(value.payload, Pointer):
                raise UndefinedBehaviour("conversion of a pointer to an integer")
            return Value(target, target.wrap(value.payload))
        return value


# Per-node-type dispatch tables.  Built once at module load from the handler
# methods above; ``type(node)`` lookup replaces the former ~25-arm isinstance
# chains on the two hottest paths of the reference interpreter.
_STMT_DISPATCH = {
    ast.Block: Interpreter._exec_block,
    ast.DeclStmt: Interpreter._exec_decl_stmt,
    ast.ExprStmt: Interpreter._exec_expr_stmt,
    ast.Empty: Interpreter._exec_empty,
    ast.Label: Interpreter._exec_label,
    ast.If: Interpreter._exec_if,
    ast.While: Interpreter._exec_while,
    ast.DoWhile: Interpreter._exec_do_while,
    ast.For: Interpreter._exec_for,
    ast.Return: Interpreter._exec_return,
    ast.Break: Interpreter._exec_break,
    ast.Continue: Interpreter._exec_continue,
    ast.Goto: Interpreter._exec_goto,
}

_EXPR_DISPATCH = {
    ast.IntLiteral: Interpreter._eval_int_literal,
    ast.CharLiteral: Interpreter._eval_char_literal,
    ast.StringLiteral: Interpreter._eval_string_literal,
    ast.Identifier: Interpreter._eval_identifier,
    ast.Index: Interpreter._eval_index,
    ast.Unary: Interpreter._eval_unary,
    ast.Binary: Interpreter._eval_binary,
    ast.Assignment: Interpreter._eval_assignment,
    ast.Conditional: Interpreter._eval_conditional,
    ast.Cast: Interpreter._eval_cast,
    ast.Call: Interpreter._eval_call,
}

_COMPARISONS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


# -- the compiled tier: AST -> closure trees ------------------------------------------
#
# ``compile_function`` translates a goto-free function body into nested
# closures, one per AST node, with everything that is invariant across
# executions -- node type, operator, literal values, whether a block declares
# variables -- resolved at translation time.  Tick accounting, UB checks and
# messages replicate the interpretive tier exactly (the two tiers are
# differentially tested against each other in the test-suite).  Identifier
# closures read ``node.name``/``node.decl`` at execution time, so one
# translation serves every characteristic vector a skeleton is rebound to.

_UNCOMPILED = object()


class _CannotCompile(Exception):
    """Raised during translation for nodes the compiled tier does not handle."""


def compile_function(function: ast.FunctionDef) -> list | None:
    """Compile a function body to statement thunks; None -> use the interpretive tier."""
    for node in function.body.walk():
        if isinstance(node, (ast.Goto, ast.Label)):
            return None
    try:
        cache: dict[int, object] = {}
        return [_compile_stmt(item, cache) for item in function.body.items]
    except _CannotCompile:
        return None


def _compile_stmt(stmt: ast.Stmt, cache: dict):
    thunk = cache.get(id(stmt))
    if thunk is None:
        compiler = _STMT_COMPILERS.get(stmt.__class__)
        if compiler is None:
            raise _CannotCompile(repr(stmt))
        thunk = compiler(stmt, cache)
        cache[id(stmt)] = thunk
    return thunk


def _compile_expr(expr: ast.Expr, cache: dict):
    thunk = cache.get(id(expr))
    if thunk is None:
        raw = _compile_raw(expr, cache)
        if raw is not None:
            # The whole subtree is raw ``int``: run it unboxed and box only
            # this final result (the raw thunk already did the node's tick).
            def thunk(I, env, _raw=raw):
                return Value(INT, _raw(I, env))

        else:
            compiler = _EXPR_COMPILERS.get(expr.__class__)
            if compiler is None:
                raise _CannotCompile(repr(expr))
            thunk = compiler(expr, cache)
        cache[id(expr)] = thunk
    return thunk


def _compile_condition(expr: ast.Expr, cache: dict):
    """Compile an expression used only for its truth value to a bool thunk."""
    raw = _compile_raw(expr, cache)
    if raw is not None:

        def run_raw(I, env):
            return raw(I, env) != 0

        return run_raw
    thunk = _compile_expr(expr, cache)

    def run(I, env):
        return thunk(I, env).truthy()

    return run


# -- the raw tier: unboxed int expressions ---------------------------------------------
#
# A subtree whose every leaf and operator is plain ``int`` (no suffixes,
# pointers, arrays, casts or calls) evaluates to Python ints flowing directly
# between closures -- no Value boxing at all.  Tick accounting and UB checks
# (with the exact interpretive-tier messages) are inlined per operator with
# the 32-bit signed constants folded in.  ``_compile_raw`` returns None when
# the subtree is not raw; callers then fall back to the boxed closures.

_INT_MIN = -(1 << 31)
_INT_MAX = (1 << 31) - 1


def _compile_raw(expr: ast.Expr, cache: dict):
    key = ("raw", id(expr))
    thunk = cache.get(key)
    if thunk is None:
        compiler = _RAW_COMPILERS.get(expr.__class__)
        thunk = compiler(expr, cache) if compiler is not None else False
        cache[key] = thunk
    return thunk if thunk is not False else None


def _is_plain_int(ctype) -> bool:
    return ctype == INT


def _r_int_literal(expr: ast.IntLiteral, cache):
    if expr.suffix:
        return False
    value = INT.wrap(expr.value)

    def run(I, env):
        I._steps += 1
        if I._steps > I.max_steps:
            raise _Timeout()
        return value

    return run


def _r_char_literal(expr: ast.CharLiteral, cache):
    value = expr.value

    def run(I, env):
        I._steps += 1
        if I._steps > I.max_steps:
            raise _Timeout()
        return value

    return run


def _r_identifier(expr: ast.Identifier, cache):
    if expr.decl is None or not _is_plain_int(expr.decl.var_type):
        return False

    def run(I, env):
        I._steps += 1
        if I._steps > I.max_steps:
            raise _Timeout()
        name = expr.name
        block = env.get(name) or I._globals.get(name)
        if block is None:
            raise MiniCRuntimeError(f"unknown variable {name!r}")
        cells = block.cells
        if not cells:
            raise UndefinedBehaviour(f"out-of-bounds read of {block.name!r}")
        cell = cells[0]
        if type(cell) is int:
            return cell
        if cell is None:
            raise UndefinedBehaviour(f"read of uninitialized value {block.name!r}")
        raise UndefinedBehaviour("use of the value of a function that did not return one")

    return run


def _r_index(expr: ast.Index, cache):
    # ``a[i]`` where ``a`` is statically an int array and ``i`` is raw.  The
    # +2 tick covers the Index node and the base identifier's array-decay
    # evaluation (no observable effect happens between the two ticks).
    base = expr.base
    if base.__class__ is not ast.Identifier or base.decl is None:
        return False
    base_type = base.decl.var_type
    if not (isinstance(base_type, ArrayType) and base_type.base == INT):
        return False
    index_thunk = _compile_raw(expr.index, cache)
    if index_thunk is None:
        return False

    def run(I, env):
        steps = I._steps + 2
        I._steps = steps
        if steps > I.max_steps:
            raise _Timeout()
        name = base.name
        block = env.get(name) or I._globals.get(name)
        if block is None:
            raise MiniCRuntimeError(f"unknown variable {name!r}")
        index = index_thunk(I, env)
        if not block.alive:
            raise UndefinedBehaviour("dereference of pointer to dead object")
        cells = block.cells
        if not 0 <= index < len(cells):
            raise UndefinedBehaviour(
                f"out-of-bounds access to {block.name!r} at offset {index}"
            )
        cell = cells[index]
        if type(cell) is int:
            return cell
        if cell is None:
            raise UndefinedBehaviour(f"read of uninitialized value {block.name!r}")
        raise UndefinedBehaviour("use of the value of a function that did not return one")

    return run


def _r_unary(expr: ast.Unary, cache):
    op = expr.op
    if op in ("&", "*"):
        return False
    if op in ("++", "--"):
        target = expr.operand
        if (
            target.__class__ is not ast.Identifier
            or target.decl is None
            or not _is_plain_int(target.decl.var_type)
        ):
            return False
        delta = 1 if op == "++" else -1
        postfix = expr.postfix

        def run_incr(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            name = target.name
            block = env.get(name) or I._globals.get(name)
            if block is None:
                raise MiniCRuntimeError(f"unknown variable {name!r}")
            cells = block.cells
            if not cells:
                raise UndefinedBehaviour(f"out-of-bounds read of {block.name!r}")
            old = cells[0]
            if type(old) is not int:
                if old is None:
                    raise UndefinedBehaviour(f"read of uninitialized value {block.name!r}")
                raise UndefinedBehaviour(
                    "use of the value of a function that did not return one"
                )
            new = old + delta
            if new < _INT_MIN or new > _INT_MAX:
                raise UndefinedBehaviour(
                    f"signed integer overflow: {old} + {delta} does not fit in int"
                )
            cells[0] = new
            return old if postfix else new

        return run_incr
    operand = _compile_raw(expr.operand, cache)
    if operand is None:
        return False
    if op == "-":

        def run_neg(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            value = operand(I, env)
            raw = -value
            if raw < _INT_MIN or raw > _INT_MAX:
                raise UndefinedBehaviour(
                    f"signed integer overflow: 0 - {value} does not fit in int"
                )
            return raw

        return run_neg
    if op == "+":

        def run_pos(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            return operand(I, env)

        return run_pos
    if op == "!":

        def run_not(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            return 0 if operand(I, env) != 0 else 1

        return run_not
    if op == "~":

        def run_inv(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            return ~operand(I, env)

        return run_inv
    return False


def _make_raw_binary(op: str, left_thunk, right_thunk):
    """One raw closure per operator; UB conditions and messages match _arith_int."""
    if op == "+":

        def run_add(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            left = left_thunk(I, env)
            right = right_thunk(I, env)
            raw = left + right
            if raw < _INT_MIN or raw > _INT_MAX:
                raise UndefinedBehaviour(
                    f"signed integer overflow: {left} + {right} does not fit in int"
                )
            return raw

        return run_add
    if op == "-":

        def run_sub(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            left = left_thunk(I, env)
            right = right_thunk(I, env)
            raw = left - right
            if raw < _INT_MIN or raw > _INT_MAX:
                raise UndefinedBehaviour(
                    f"signed integer overflow: {left} - {right} does not fit in int"
                )
            return raw

        return run_sub
    if op == "*":

        def run_mul(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            left = left_thunk(I, env)
            right = right_thunk(I, env)
            raw = left * right
            if raw < _INT_MIN or raw > _INT_MAX:
                raise UndefinedBehaviour(
                    f"signed integer overflow: {left} * {right} does not fit in int"
                )
            return raw

        return run_mul
    compare = _COMPARISONS.get(op)
    if compare is not None:

        def run_cmp(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            return 1 if compare(left_thunk(I, env), right_thunk(I, env)) else 0

        return run_cmp
    if op in ("/", "%"):
        is_div = op == "/"

        def run_div(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            left = left_thunk(I, env)
            right = right_thunk(I, env)
            if right == 0:
                raise UndefinedBehaviour("division by zero")
            quotient = abs(left) // abs(right)
            if (left < 0) != (right < 0):
                quotient = -quotient
            if is_div:
                if left == _INT_MIN and right == -1:
                    raise UndefinedBehaviour("signed division overflow")
                return quotient
            return left - quotient * right

        return run_div
    if op in ("<<", ">>"):
        is_left = op == "<<"

        def run_shift(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            left = left_thunk(I, env)
            right = right_thunk(I, env)
            if right < 0 or right >= 32:
                raise UndefinedBehaviour(f"shift amount {right} out of range for int")
            if is_left:
                if left < 0:
                    raise UndefinedBehaviour("left shift of a negative value")
                raw = left << right
                if raw > _INT_MAX:
                    raise UndefinedBehaviour(
                        f"signed integer overflow: {left} << {right} does not fit in int"
                    )
                return raw
            return left >> right

        return run_shift
    if op in ("&", "|", "^"):
        import operator as _operator

        bit_op = {"&": _operator.and_, "|": _operator.or_, "^": _operator.xor}[op]

        def run_bits(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            raw = bit_op(left_thunk(I, env) & 0xFFFFFFFF, right_thunk(I, env) & 0xFFFFFFFF)
            return raw - 0x100000000 if raw >= 0x80000000 else raw

        return run_bits
    return None


def _r_binary(expr: ast.Binary, cache):
    op = expr.op
    if op == "&&":
        left_thunk = _compile_raw(expr.left, cache)
        right_thunk = _compile_raw(expr.right, cache)
        if left_thunk is None or right_thunk is None:
            return False

        def run_and(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            if left_thunk(I, env) == 0:
                return 0
            return 1 if right_thunk(I, env) != 0 else 0

        return run_and
    if op == "||":
        left_thunk = _compile_raw(expr.left, cache)
        right_thunk = _compile_raw(expr.right, cache)
        if left_thunk is None or right_thunk is None:
            return False

        def run_or(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            if left_thunk(I, env) != 0:
                return 1
            return 1 if right_thunk(I, env) != 0 else 0

        return run_or
    if op == ",":
        left_thunk = _compile_raw(expr.left, cache)
        right_thunk = _compile_raw(expr.right, cache)
        if left_thunk is None or right_thunk is None:
            return False

        def run_comma(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            left_thunk(I, env)
            return right_thunk(I, env)

        return run_comma
    left_thunk = _compile_raw(expr.left, cache)
    if left_thunk is None:
        return False
    right_thunk = _compile_raw(expr.right, cache)
    if right_thunk is None:
        return False
    thunk = _make_raw_binary(op, left_thunk, right_thunk)
    return thunk if thunk is not None else False


def _r_assignment(expr: ast.Assignment, cache):
    target = expr.target
    if target.__class__ is ast.Index:
        return _r_index_assignment(expr, cache)
    if (
        target.__class__ is not ast.Identifier
        or target.decl is None
        or not _is_plain_int(target.decl.var_type)
    ):
        return False
    value_thunk = _compile_raw(expr.value, cache)
    if value_thunk is None:
        return False
    if expr.op == "=":

        def run_store(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            name = target.name
            block = env.get(name) or I._globals.get(name)
            if block is None:
                raise MiniCRuntimeError(f"unknown variable {name!r}")
            stored = value_thunk(I, env)
            block.cells[0] = stored
            return stored

        return run_store

    operator_ = expr.op[:-1]

    def run_compound(I, env):
        I._steps += 1
        if I._steps > I.max_steps:
            raise _Timeout()
        name = target.name
        block = env.get(name) or I._globals.get(name)
        if block is None:
            raise MiniCRuntimeError(f"unknown variable {name!r}")
        value = value_thunk(I, env)
        cells = block.cells
        if not cells:
            raise UndefinedBehaviour(f"out-of-bounds read of {block.name!r}")
        current = cells[0]
        if type(current) is not int:
            if current is None:
                raise UndefinedBehaviour(f"read of uninitialized value {block.name!r}")
            raise UndefinedBehaviour("use of the value of a function that did not return one")
        stored = I._arith_int(INT, current, value, operator_).payload
        cells[0] = stored
        return stored

    return run_compound


def _r_index_assignment(expr: ast.Assignment, cache):
    """``a[i] = v`` / ``a[i] op= v`` on a statically-int array, all-raw."""
    target = expr.target
    base = target.base
    if base.__class__ is not ast.Identifier or base.decl is None:
        return False
    base_type = base.decl.var_type
    if not (isinstance(base_type, ArrayType) and base_type.base == INT):
        return False
    index_thunk = _compile_raw(target.index, cache)
    if index_thunk is None:
        return False
    value_thunk = _compile_raw(expr.value, cache)
    if value_thunk is None:
        return False
    simple = expr.op == "="
    operator_ = expr.op[:-1]

    def run(I, env):
        # +2: the Assignment node plus the base identifier's decay eval
        # inside the target lvalue (evaluated before the value, as in the
        # interpretive tier).
        steps = I._steps + 2
        I._steps = steps
        if steps > I.max_steps:
            raise _Timeout()
        name = base.name
        block = env.get(name) or I._globals.get(name)
        if block is None:
            raise MiniCRuntimeError(f"unknown variable {name!r}")
        index = index_thunk(I, env)
        if not block.alive:
            raise UndefinedBehaviour("dereference of pointer to dead object")
        cells = block.cells
        if not 0 <= index < len(cells):
            raise UndefinedBehaviour(
                f"out-of-bounds access to {block.name!r} at offset {index}"
            )
        value = value_thunk(I, env)
        if simple:
            cells[index] = value
            return value
        current = cells[index]
        if type(current) is not int:
            if current is None:
                raise UndefinedBehaviour(f"read of uninitialized value {block.name!r}")
            raise UndefinedBehaviour("use of the value of a function that did not return one")
        stored = I._arith_int(INT, current, value, operator_).payload
        cells[index] = stored
        return stored

    return run


def _r_conditional(expr: ast.Conditional, cache):
    condition_thunk = _compile_raw(expr.condition, cache)
    then_thunk = _compile_raw(expr.then_expr, cache)
    else_thunk = _compile_raw(expr.else_expr, cache)
    if condition_thunk is None or then_thunk is None or else_thunk is None:
        return False

    def run(I, env):
        I._steps += 1
        if I._steps > I.max_steps:
            raise _Timeout()
        if condition_thunk(I, env) != 0:
            return then_thunk(I, env)
        return else_thunk(I, env)

    return run


_RAW_COMPILERS = {
    ast.IntLiteral: _r_int_literal,
    ast.CharLiteral: _r_char_literal,
    ast.Identifier: _r_identifier,
    ast.Unary: _r_unary,
    ast.Binary: _r_binary,
    ast.Assignment: _r_assignment,
    ast.Conditional: _r_conditional,
}


# -- compiled expressions --------------------------------------------------------------


def _c_int_literal(expr: ast.IntLiteral, cache):
    ctype = LONG if "l" in expr.suffix else (UINT if "u" in expr.suffix else INT)
    value = Value(ctype, ctype.wrap(expr.value) if isinstance(ctype, IntType) else expr.value)

    def run(I, env):
        I._steps += 1
        if I._steps > I.max_steps:
            raise _Timeout()
        return value

    return run


def _c_char_literal(expr: ast.CharLiteral, cache):
    value = Value(INT, expr.value)

    def run(I, env):
        I._steps += 1
        if I._steps > I.max_steps:
            raise _Timeout()
        return value

    return run


def _c_string_literal(expr: ast.StringLiteral, cache):
    value = Value(PointerType(INT), Pointer.null())

    def run(I, env):
        I._steps += 1
        if I._steps > I.max_steps:
            raise _Timeout()
        return value

    return run


def _c_identifier(expr: ast.Identifier, cache):
    # A hole's candidate variables all share one type spelling, so whether
    # this occurrence is an array is invariant under rebinding -- decide the
    # decay question at translation time and emit a scalar-only fast closure
    # for the overwhelmingly common scalar case.
    static_type = expr.decl.var_type if expr.decl is not None else None
    if static_type is not None and not isinstance(static_type, ArrayType):

        def run_scalar(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            name = expr.name
            block = env.get(name) or I._globals.get(name)
            if block is None:
                raise MiniCRuntimeError(f"unknown variable {name!r}")
            decl = expr.decl
            declared = decl.var_type if decl is not None else block.elem_type
            cells = block.cells
            if not cells:
                raise UndefinedBehaviour(f"out-of-bounds read of {block.name!r}")
            cell = cells[0]
            if cell is None:
                raise UndefinedBehaviour(f"read of uninitialized value {block.name!r}")
            if cell is _MISSING_RETURN:
                raise UndefinedBehaviour("use of the value of a function that did not return one")
            return Value(declared, cell)

        return run_scalar

    def run(I, env):
        I._steps += 1
        if I._steps > I.max_steps:
            raise _Timeout()
        name = expr.name
        block = env.get(name) or I._globals.get(name)
        if block is None:
            raise MiniCRuntimeError(f"unknown variable {name!r}")
        decl = expr.decl
        declared = decl.var_type if decl is not None else block.elem_type
        if isinstance(declared, ArrayType):
            return Value(PointerType(declared.base), Pointer(block.id, 0))
        cells = block.cells
        if not cells:
            raise UndefinedBehaviour(f"out-of-bounds read of {block.name!r}")
        cell = cells[0]
        if cell is None:
            raise UndefinedBehaviour(f"read of uninitialized value {block.name!r}")
        if cell is _MISSING_RETURN:
            raise UndefinedBehaviour("use of the value of a function that did not return one")
        return Value(declared, cell)

    return run


def _c_index(expr: ast.Index, cache):
    base_thunk = _compile_expr(expr.base, cache)
    index_thunk = _compile_expr(expr.index, cache)

    def run(I, env):
        I._steps += 1
        if I._steps > I.max_steps:
            raise _Timeout()
        base = base_thunk(I, env)
        index = I._int_of(index_thunk(I, env))
        payload = base.payload
        if not isinstance(payload, Pointer):
            raise UndefinedBehaviour("indexing a non-pointer value")
        pointer = Pointer(payload.block_id, payload.offset + index)
        block = I._block(pointer)
        offset = pointer.offset
        if not 0 <= offset < len(block.cells):
            raise UndefinedBehaviour(
                f"out-of-bounds access to {block.name!r} at offset {offset}"
            )
        element = base.ctype.base if isinstance(base.ctype, PointerType) else block.elem_type
        cell = block.cells[offset]
        if cell is None:
            raise UndefinedBehaviour(f"read of uninitialized value {block.name!r}")
        if cell is _MISSING_RETURN:
            raise UndefinedBehaviour("use of the value of a function that did not return one")
        return Value(element, cell)

    return run


def _c_unary(expr: ast.Unary, cache):
    op = expr.op
    if op == "&":
        lvalue_thunk = _compile_lvalue(expr.operand, cache)

        def run_addr(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            lvalue = lvalue_thunk(I, env)
            return Value(PointerType(lvalue.ctype), Pointer(lvalue.block.id, lvalue.offset))

        return run_addr
    if op == "*":
        operand_thunk = _compile_expr(expr.operand, cache)

        def run_deref(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            pointer_value = operand_thunk(I, env)
            payload = pointer_value.payload
            if not isinstance(payload, Pointer):
                raise UndefinedBehaviour("dereference of a non-pointer value")
            block = I._block(payload)
            target = (
                pointer_value.ctype.base
                if isinstance(pointer_value.ctype, PointerType)
                else block.elem_type
            )
            return I._load(LValue(block, payload.offset, target))

        return run_deref
    if op in ("++", "--"):
        lvalue_thunk = _compile_lvalue(expr.operand, cache)
        delta = 1 if op == "++" else -1
        postfix = expr.postfix

        def run_incr(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            lvalue = lvalue_thunk(I, env)
            old = I._load(lvalue)
            if isinstance(old.payload, Pointer):
                new = Value(old.ctype, Pointer(old.payload.block_id, old.payload.offset + delta))
            else:
                new = I._arith_int(old.ctype, old.payload, delta, "+")
            I._store(lvalue, new)
            return old if postfix else new

        return run_incr

    operand_thunk = _compile_expr(expr.operand, cache)
    if op == "-":

        def run_neg(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            operand = operand_thunk(I, env)
            return I._arith_int(operand.ctype, 0, I._int_of(operand), "-")

        return run_neg
    if op == "+":

        def run_pos(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            operand = operand_thunk(I, env)
            return Value(operand.ctype, I._int_of(operand))

        return run_pos
    if op == "!":

        def run_not(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            return Value(INT, 0 if operand_thunk(I, env).truthy() else 1)

        return run_not
    if op == "~":

        def run_inv(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            operand = operand_thunk(I, env)
            ctype = operand.ctype if isinstance(operand.ctype, IntType) else INT
            return Value(ctype, ctype.wrap(~I._int_of(operand)))

        return run_inv
    raise _CannotCompile(f"unary {op!r}")


def _c_binary(expr: ast.Binary, cache):
    op = expr.op
    if op == "&&":
        left_thunk = _compile_expr(expr.left, cache)
        right_thunk = _compile_expr(expr.right, cache)

        def run_and(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            if not left_thunk(I, env).truthy():
                return Value(INT, 0)
            return Value(INT, 1 if right_thunk(I, env).truthy() else 0)

        return run_and
    if op == "||":
        left_thunk = _compile_expr(expr.left, cache)
        right_thunk = _compile_expr(expr.right, cache)

        def run_or(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            if left_thunk(I, env).truthy():
                return Value(INT, 1)
            return Value(INT, 1 if right_thunk(I, env).truthy() else 0)

        return run_or
    if op == ",":
        left_thunk = _compile_expr(expr.left, cache)
        right_thunk = _compile_expr(expr.right, cache)

        def run_comma(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            left_thunk(I, env)
            return right_thunk(I, env)

        return run_comma

    left_thunk = _compile_expr(expr.left, cache)
    right_thunk = _compile_expr(expr.right, cache)
    compare = _COMPARISONS.get(op)
    if compare is not None:

        def run_cmp(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            left = left_thunk(I, env)
            right = right_thunk(I, env)
            lp = left.payload
            rp = right.payload
            if type(lp) is int and type(rp) is int:
                return Value(INT, 1 if compare(lp, rp) else 0)
            if isinstance(lp, Pointer) or isinstance(rp, Pointer):
                return I._pointer_binary(op, left, right)
            return Value(INT, 1 if compare(I._int_of(left), I._int_of(right)) else 0)

        return run_cmp

    # Operand types are almost always identity-stable across evaluations of
    # one node (they come from declarations and literals), so memoise the
    # usual-arithmetic-conversion by identity in the closure cells.
    memo_left = memo_right = memo_type = None

    def run_arith(I, env):
        nonlocal memo_left, memo_right, memo_type
        I._steps += 1
        if I._steps > I.max_steps:
            raise _Timeout()
        left = left_thunk(I, env)
        right = right_thunk(I, env)
        lp = left.payload
        rp = right.payload
        lc = left.ctype
        rc = right.ctype
        if lc is not memo_left or rc is not memo_right:
            memo_left, memo_right = lc, rc
            memo_type = _arithmetic_result_type(lc, rc)
        if type(lp) is int and type(rp) is int:
            return I._arith_int(memo_type, lp, rp, op)
        if isinstance(lp, Pointer) or isinstance(rp, Pointer):
            return I._pointer_binary(op, left, right)
        return I._arith_int(memo_type, I._int_of(left), I._int_of(right), op)

    return run_arith


def _c_assignment(expr: ast.Assignment, cache):
    value_thunk = _compile_expr(expr.value, cache)
    target = expr.target
    if expr.op == "=" and target.__class__ is ast.Identifier:
        # Scalar-store fast path: the by-far hottest assignment shape.
        def run_simple(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            name = target.name
            block = env.get(name) or I._globals.get(name)
            if block is None:
                raise MiniCRuntimeError(f"unknown variable {name!r}")
            decl = target.decl
            declared = decl.var_type if decl is not None else block.elem_type
            value = value_thunk(I, env)
            payload = value.payload
            if type(payload) is int and declared.__class__ is IntType:
                stored = declared.wrap(payload)
            else:
                stored = I._coerce(value, declared)
            block.cells[0] = stored
            return Value(declared, stored)

        return run_simple

    lvalue_thunk = _compile_lvalue(target, cache)
    if expr.op == "=":

        def run_store(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            lvalue = lvalue_thunk(I, env)
            value = value_thunk(I, env)
            stored = I._coerce(value, lvalue.ctype)
            lvalue.block.cells[lvalue.offset] = stored
            return Value(lvalue.ctype, stored)

        return run_store

    operator = expr.op[:-1]

    def run_compound(I, env):
        I._steps += 1
        if I._steps > I.max_steps:
            raise _Timeout()
        lvalue = lvalue_thunk(I, env)
        value = value_thunk(I, env)
        current = I._load(lvalue)
        if isinstance(current.payload, Pointer):
            if operator not in ("+", "-"):
                raise UndefinedBehaviour("invalid compound assignment on a pointer")
            delta = I._int_of(value) if operator == "+" else -I._int_of(value)
            value = Value(
                current.ctype, Pointer(current.payload.block_id, current.payload.offset + delta)
            )
        else:
            result_type = current.ctype if isinstance(current.ctype, IntType) else INT
            value = I._arith_int(result_type, I._int_of(current), I._int_of(value), operator)
        stored = I._coerce(value, lvalue.ctype)
        lvalue.block.cells[lvalue.offset] = stored
        return Value(lvalue.ctype, stored)

    return run_compound


def _c_conditional(expr: ast.Conditional, cache):
    condition_thunk = _compile_condition(expr.condition, cache)
    then_thunk = _compile_expr(expr.then_expr, cache)
    else_thunk = _compile_expr(expr.else_expr, cache)

    def run(I, env):
        I._steps += 1
        if I._steps > I.max_steps:
            raise _Timeout()
        if condition_thunk(I, env):
            return then_thunk(I, env)
        return else_thunk(I, env)

    return run


def _c_cast(expr: ast.Cast, cache):
    operand_thunk = _compile_expr(expr.operand, cache)
    target_type = expr.target_type

    def run(I, env):
        I._steps += 1
        if I._steps > I.max_steps:
            raise _Timeout()
        return I._coerce_value(operand_thunk(I, env), target_type)

    return run


def _c_call(expr: ast.Call, cache):
    callee = expr.callee
    if callee == "printf":

        def run_printf(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            return I._builtin_printf(expr, env)

        return run_printf
    if callee in ("abort", "__builtin_abort"):

        def run_abort(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            raise _ExitProgram(134)

        return run_abort
    if callee == "exit":
        arg_thunks = [_compile_expr(arg, cache) for arg in expr.args]

        def run_exit(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            code = I._int_of(arg_thunks[0](I, env)) if arg_thunks else 0
            raise _ExitProgram(code)

        return run_exit
    if callee == "putchar":
        arg_thunks = [_compile_expr(arg, cache) for arg in expr.args]

        def run_putchar(I, env):
            I._steps += 1
            if I._steps > I.max_steps:
                raise _Timeout()
            value = I._int_of(arg_thunks[0](I, env)) if arg_thunks else 0
            I._stdout.append(chr(value & 0xFF))
            return Value(INT, value)

        return run_putchar

    arg_thunks = [_compile_expr(arg, cache) for arg in expr.args]

    def run_call(I, env):
        I._steps += 1
        if I._steps > I.max_steps:
            raise _Timeout()
        function = I._functions.get(callee)
        if function is None:
            raise MiniCRuntimeError(f"call of undefined function {callee!r}")
        args = [thunk(I, env) for thunk in arg_thunks]
        result = I._call_function(function, args)
        if result is None:
            return Value(INT, 0)
        return result

    return run_call


_EXPR_COMPILERS = {
    ast.IntLiteral: _c_int_literal,
    ast.CharLiteral: _c_char_literal,
    ast.StringLiteral: _c_string_literal,
    ast.Identifier: _c_identifier,
    ast.Index: _c_index,
    ast.Unary: _c_unary,
    ast.Binary: _c_binary,
    ast.Assignment: _c_assignment,
    ast.Conditional: _c_conditional,
    ast.Cast: _c_cast,
    ast.Call: _c_call,
}


# -- compiled lvalues ------------------------------------------------------------------
# Lvalue thunks mirror Interpreter._lvalue: they tick only for sub-expression
# *evaluations*, never for the lvalue node itself.


def _compile_lvalue(expr: ast.Expr, cache: dict):
    if expr.__class__ is ast.Identifier:

        def run_var(I, env):
            block = env.get(expr.name) or I._globals.get(expr.name)
            if block is None:
                raise MiniCRuntimeError(f"unknown variable {expr.name!r}")
            declared = expr.decl.var_type if expr.decl is not None else block.elem_type
            return LValue(block, 0, declared)

        return run_var
    if expr.__class__ is ast.Index:
        base_thunk = _compile_expr(expr.base, cache)
        index_thunk = _compile_expr(expr.index, cache)

        def run_elem(I, env):
            base = base_thunk(I, env)
            index = I._int_of(index_thunk(I, env))
            if not isinstance(base.payload, Pointer):
                raise UndefinedBehaviour("indexing a non-pointer value")
            pointer = Pointer(base.payload.block_id, base.payload.offset + index)
            block = I._block(pointer)
            if not (0 <= pointer.offset < block.size):
                raise UndefinedBehaviour(
                    f"out-of-bounds access to {block.name!r} at offset {pointer.offset}"
                )
            element = base.ctype.base if isinstance(base.ctype, PointerType) else block.elem_type
            return LValue(block, pointer.offset, element)

        return run_elem
    if expr.__class__ is ast.Unary and expr.op == "*":
        operand_thunk = _compile_expr(expr.operand, cache)

        def run_deref(I, env):
            pointer_value = operand_thunk(I, env)
            if not isinstance(pointer_value.payload, Pointer):
                raise UndefinedBehaviour("dereference of a non-pointer value")
            block = I._block(pointer_value.payload)
            offset = pointer_value.payload.offset
            if not (0 <= offset < block.size):
                raise UndefinedBehaviour(
                    f"out-of-bounds dereference of pointer into {block.name!r}"
                )
            element = (
                pointer_value.ctype.base
                if isinstance(pointer_value.ctype, PointerType)
                else block.elem_type
            )
            return LValue(block, offset, element)

        return run_deref

    def run_invalid(I, env):
        raise UndefinedBehaviour("assignment target is not an lvalue")

    return run_invalid


# -- compiled statements ---------------------------------------------------------------
# Statement thunks take (I, env, local_blocks); control flow uses the same
# signal exceptions as the interpretive tier.  Every thunk ticks once and
# records itself in ``executed_statements``, exactly like _exec_stmt.


def _c_stmt_block(stmt: ast.Block, cache):
    item_thunks = [_compile_stmt(item, cache) for item in stmt.items]
    needs_scope = any(_declares_into_scope(item) for item in stmt.items)
    stmt_id = id(stmt)

    def run(I, env, local_blocks):
        I._steps += 1
        if I._steps > I.max_steps:
            raise _Timeout()
        I.executed_statements.add(stmt_id)
        scope_env = dict(env) if needs_scope else env
        for thunk in item_thunks:
            thunk(I, scope_env, local_blocks)

    return run


def _c_stmt_decl(stmt: ast.DeclStmt, cache):
    stmt_id = id(stmt)
    decls = stmt.decls

    def run(I, env, local_blocks):
        I._steps += 1
        if I._steps > I.max_steps:
            raise _Timeout()
        I.executed_statements.add(stmt_id)
        for decl in decls:
            I._declare_variable(decl, env, is_global=False)
            local_blocks.append(env[decl.name])

    return run


def _c_stmt_expr(stmt: ast.ExprStmt, cache):
    # The expression's value is discarded, so a raw subtree runs fully
    # unboxed -- for ``x = ...;`` statements not even the result is built.
    expr_thunk = _compile_raw(stmt.expr, cache) or _compile_expr(stmt.expr, cache)
    stmt_id = id(stmt)

    def run(I, env, local_blocks):
        I._steps += 1
        if I._steps > I.max_steps:
            raise _Timeout()
        I.executed_statements.add(stmt_id)
        expr_thunk(I, env)

    return run


def _c_stmt_empty(stmt: ast.Empty, cache):
    stmt_id = id(stmt)

    def run(I, env, local_blocks):
        I._steps += 1
        if I._steps > I.max_steps:
            raise _Timeout()
        I.executed_statements.add(stmt_id)

    return run


def _c_stmt_if(stmt: ast.If, cache):
    condition_thunk = _compile_condition(stmt.condition, cache)
    then_thunk = _compile_stmt(stmt.then_branch, cache)
    else_thunk = _compile_stmt(stmt.else_branch, cache) if stmt.else_branch is not None else None
    stmt_id = id(stmt)

    def run(I, env, local_blocks):
        I._steps += 1
        if I._steps > I.max_steps:
            raise _Timeout()
        I.executed_statements.add(stmt_id)
        if condition_thunk(I, env):
            then_thunk(I, env, local_blocks)
        elif else_thunk is not None:
            else_thunk(I, env, local_blocks)

    return run


def _c_stmt_while(stmt: ast.While, cache):
    condition_thunk = _compile_condition(stmt.condition, cache)
    body_thunk = _compile_stmt(stmt.body, cache)
    stmt_id = id(stmt)

    def run(I, env, local_blocks):
        I._steps += 1
        if I._steps > I.max_steps:
            raise _Timeout()
        I.executed_statements.add(stmt_id)
        max_steps = I.max_steps
        while True:
            I._steps += 1
            if I._steps > max_steps:
                raise _Timeout()
            if not condition_thunk(I, env):
                break
            try:
                body_thunk(I, env, local_blocks)
            except _BreakSignal:
                break
            except _ContinueSignal:
                pass

    return run


def _c_stmt_do_while(stmt: ast.DoWhile, cache):
    condition_thunk = _compile_condition(stmt.condition, cache)
    body_thunk = _compile_stmt(stmt.body, cache)
    stmt_id = id(stmt)

    def run(I, env, local_blocks):
        I._steps += 1
        if I._steps > I.max_steps:
            raise _Timeout()
        I.executed_statements.add(stmt_id)
        max_steps = I.max_steps
        while True:
            I._steps += 1
            if I._steps > max_steps:
                raise _Timeout()
            try:
                body_thunk(I, env, local_blocks)
            except _BreakSignal:
                break
            except _ContinueSignal:
                pass
            if not condition_thunk(I, env):
                break

    return run


def _c_stmt_for(stmt: ast.For, cache):
    init_thunk = _compile_stmt(stmt.init, cache) if stmt.init is not None else None
    condition_thunk = _compile_condition(stmt.condition, cache) if stmt.condition is not None else None
    step_thunk = (
        (_compile_raw(stmt.step, cache) or _compile_expr(stmt.step, cache))
        if stmt.step is not None
        else None
    )
    body_thunk = _compile_stmt(stmt.body, cache)
    needs_scope = _declares_into_scope(stmt.init) or _declares_into_scope(stmt.body)
    stmt_id = id(stmt)

    def run(I, env, local_blocks):
        I._steps += 1
        if I._steps > I.max_steps:
            raise _Timeout()
        I.executed_statements.add(stmt_id)
        scope_env = dict(env) if needs_scope else env
        if init_thunk is not None:
            init_thunk(I, scope_env, local_blocks)
        max_steps = I.max_steps
        while True:
            I._steps += 1
            if I._steps > max_steps:
                raise _Timeout()
            if condition_thunk is not None and not condition_thunk(I, scope_env):
                break
            try:
                body_thunk(I, scope_env, local_blocks)
            except _BreakSignal:
                break
            except _ContinueSignal:
                pass
            if step_thunk is not None:
                step_thunk(I, scope_env)

    return run


def _c_stmt_return(stmt: ast.Return, cache):
    value_thunk = _compile_expr(stmt.value, cache) if stmt.value is not None else None
    stmt_id = id(stmt)

    def run(I, env, local_blocks):
        I._steps += 1
        if I._steps > I.max_steps:
            raise _Timeout()
        I.executed_statements.add(stmt_id)
        if value_thunk is None:
            raise _ReturnSignal(None)
        raise _ReturnSignal(value_thunk(I, env))

    return run


def _c_stmt_break(stmt: ast.Break, cache):
    stmt_id = id(stmt)

    def run(I, env, local_blocks):
        I._steps += 1
        if I._steps > I.max_steps:
            raise _Timeout()
        I.executed_statements.add(stmt_id)
        raise _BreakSignal()

    return run


def _c_stmt_continue(stmt: ast.Continue, cache):
    stmt_id = id(stmt)

    def run(I, env, local_blocks):
        I._steps += 1
        if I._steps > I.max_steps:
            raise _Timeout()
        I.executed_statements.add(stmt_id)
        raise _ContinueSignal()

    return run


_STMT_COMPILERS = {
    ast.Block: _c_stmt_block,
    ast.DeclStmt: _c_stmt_decl,
    ast.ExprStmt: _c_stmt_expr,
    ast.Empty: _c_stmt_empty,
    ast.If: _c_stmt_if,
    ast.While: _c_stmt_while,
    ast.DoWhile: _c_stmt_do_while,
    ast.For: _c_stmt_for,
    ast.Return: _c_stmt_return,
    ast.Break: _c_stmt_break,
    ast.Continue: _c_stmt_continue,
}


def _declares_into_scope(stmt: ast.Stmt | None) -> bool:
    """Whether executing ``stmt`` can write a declaration into the *caller's*
    environment dict.

    DeclStmts count, including ones reachable as the un-braced body of an
    ``if``/``while``/``do`` or behind labels (those execute in the caller's
    environment).  Blocks and ``for`` statements fork (or decide for) their
    own scope, so they never declare into the caller's."""
    while True:
        if stmt is None:
            return False
        cls = stmt.__class__
        if cls is ast.DeclStmt:
            return True
        if cls is ast.Label:
            stmt = stmt.statement
            continue
        if cls is ast.If:
            return _declares_into_scope(stmt.then_branch) or _declares_into_scope(
                stmt.else_branch
            )
        if cls is ast.While or cls is ast.DoWhile:
            stmt = stmt.body
            continue
        return False


class _MissingReturn:
    """Sentinel payload for "function fell off its end"; any use is UB."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<missing-return>"


_MISSING_RETURN = _MissingReturn()


_ARITH_TYPE_CACHE: dict[tuple[CType, CType], CType] = {}


def _arithmetic_result_type(left: CType, right: CType) -> CType:
    """Memoised usual-arithmetic-conversion (few distinct type pairs, hot path)."""
    key = (left, right)
    result = _ARITH_TYPE_CACHE.get(key)
    if result is None:
        from repro.minic.ctypes import usual_arithmetic_conversion

        result = _ARITH_TYPE_CACHE[key] = usual_arithmetic_conversion(left, right)
    return result


def _contains_label(stmt: ast.Node, label: str) -> bool:
    for node in stmt.walk():
        if isinstance(node, ast.Label) and node.name == label:
            return True
    return False


def run_source(source: str, max_steps: int = 200_000) -> ExecutionResult:
    """Parse, resolve and interpret a mini-C program in one call."""
    unit = parse(source)
    resolve(unit)
    return Interpreter(max_steps=max_steps).run(unit)


def run_unit(
    unit: ast.TranslationUnit,
    max_steps: int = 200_000,
    entry: str = "main",
    compiled: dict | None = None,
) -> ExecutionResult:
    """Interpret an already-parsed *and resolved* translation unit.

    The parse-once campaign path uses this on skeleton ASTs rebound to a
    characteristic vector: the unit's identifier ``decl``/``ctype`` links
    must be up to date (``Skeleton.bind`` maintains them).  Pass the same
    ``compiled`` dict across calls to reuse the closure-compiled function
    bodies (the campaign keeps one per skeleton, shared by all variants).
    """
    return Interpreter(max_steps=max_steps, compiled=compiled).run(unit, entry=entry)


__all__ = [
    "ExecutionResult",
    "ExecutionStatus",
    "Interpreter",
    "UndefinedBehaviour",
    "run_source",
    "run_unit",
]
