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

from dataclasses import dataclass

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


#: Jumps one function call may take; the last one is a TIMEOUT.  The
#: generated skeleton bodies of :mod:`repro.minic.codegen` count the same way.
GOTO_JUMP_LIMIT = 1000


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

    The executable specification of mini-C semantics: every node is
    dispatched through the ``_STMT_DISPATCH``/``_EXPR_DISPATCH`` tables, one
    step tick per statement and expression, and ``goto`` re-enters the
    function body at its label.  The campaign's fast tier is the generated
    skeleton body of :mod:`repro.minic.codegen`, which must agree with this
    interpreter byte for byte; every run that tier refuses runs here.
    """

    __slots__ = (
        "max_steps",
        "max_call_depth",
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

    def __init__(self, max_steps: int = 200_000, max_call_depth: int = 200) -> None:
        self.max_steps = max_steps
        self.max_call_depth = max_call_depth
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
        try:
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
        """Re-enter the function body at ``label`` (loops until no more gotos);
        the call's ``GOTO_JUMP_LIMIT``-th jump is a timeout."""
        remaining_jumps = GOTO_JUMP_LIMIT
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
    unit: ast.TranslationUnit, max_steps: int = 200_000, entry: str = "main"
) -> ExecutionResult:
    """Interpret an already-parsed *and resolved* translation unit.

    The parse-once campaign path uses this on skeleton ASTs rebound to a
    characteristic vector: the unit's identifier ``decl``/``ctype`` links
    must be up to date (``Skeleton.bind`` maintains them).
    """
    return Interpreter(max_steps=max_steps).run(unit, entry=entry)


__all__ = [
    "ExecutionResult",
    "ExecutionStatus",
    "GOTO_JUMP_LIMIT",
    "Interpreter",
    "UndefinedBehaviour",
    "run_source",
    "run_unit",
]
