"""Batched skeleton execution: one generated Python function per skeleton.

The reference interpreter (:mod:`repro.minic.interp`) pays a dispatch per
AST node per step.  For the subset that dominates the generated corpus --
plain ``int`` scalars and arrays, ``long`` locals that are declared and
never read, structured control flow plus ``goto`` to labels at the top
level of ``main``, ``printf``/``putchar``/``exit``/``abort`` calls in
statement position -- a skeleton's whole ``main`` can instead be translated
**once** into a single Python function, with every hole site reading its
bound variable through a per-vector slot table.  Running a characteristic
vector is then one pass through the generated function: no per-node
dispatch, no AST rebinding, no interpreter object.

Exactness contract (the generated tier must be byte-identical to
``run_unit`` on every eligible unit):

* **Tick accounting.**  Every expression node ticks once (``Index`` reads
  and index assignments tick twice, covering the base identifier's array
  decay), every statement ticks once, and loops tick once more per
  iteration -- exactly the interpreter's counts.  Because
  :class:`~repro.core.execution.ExecutionResult` exposes no step count,
  ticks may be *consolidated* across operations that cannot raise and
  produce no output: the emitter accumulates pending ticks and flushes a
  single ``s += k``/budget check before any UB-capable operation, any
  output, any ``return``/``break``/``continue``/``goto`` and on every loop
  back-edge, so a TIMEOUT fires at the same observable boundary as the
  interpreter's per-node checks.
* **goto.**  ``main``'s top-level labels split its items into segments,
  run by one dispatch loop in which segment k runs under ``if _pc <= k``.
  A ``goto`` ticks once and raises the interpreter's goto signal; the
  handler spends one of the call's ``GOTO_JUMP_LIMIT`` jumps (the last is
  a TIMEOUT) and re-enters at the label's segment.  Skipped segments do not tick, and a
  label ticks once before its statement, as on fall-through.
* **UB semantics.**  Overflow/shift/division/uninitialized-read checks are
  emitted inline with the interpreter's exact messages (those of
  ``Interpreter._arith_int`` for ``int``).
* **Eligibility.**  ``compile_skeleton_runner`` returns ``None`` whenever
  any construct falls outside the subset (other integer types, pointers,
  casts, user function calls, labels below the top level of ``main``, a
  forward ``goto`` over a declaration, duplicate declared names,
  value-position builtin calls, ...); callers run those skeletons on the
  interpreter, so coverage gaps cost speed, never correctness.

Hole sites are compiled to reads/writes of ``HC[k]`` -- the k-th hole's
bound cell list, resolved per vector from the skeleton binder's
``binding_maps`` -- so one generated body serves every characteristic
vector, which is what makes ``SkeletonRunner.run_batch`` a tight loop over
vectors around a single compiled program.
"""

from __future__ import annotations

from repro.core.execution import ExecutionResult, ExecutionStatus
from repro.minic import ast
from repro.minic.ctypes import INT, LONG, ArrayType
from repro.minic.errors import MiniCRuntimeError
from repro.minic.interp import (
    GOTO_JUMP_LIMIT,
    UndefinedBehaviour,
    _declares_into_scope,
    _GotoSignal,
    _Timeout,
)

_INT_MIN = -(1 << 31)
_INT_MAX = (1 << 31) - 1

_COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")
_BITWISE = ("&", "|", "^")


class _Bail(Exception):
    """Raised during translation when a construct leaves the subset."""


def _is_plain_int(ctype) -> bool:
    return ctype == INT


def _is_int_array(ctype) -> bool:
    return isinstance(ctype, ArrayType) and ctype.base == INT


def _decl_initialized(decl: ast.VarDecl) -> bool:
    """Is every execution of this declaration fully initializing?"""
    if decl.is_global:
        return True
    if isinstance(decl.var_type, ArrayType):
        return decl.init_list is not None
    return decl.init is not None


class _Emitter:
    """Translates one eligible translation unit into Python source."""

    def __init__(self, unit: ast.TranslationUnit, hole_index: dict[int, int],
                 hole_initialized: list[bool], binding_maps):
        self._unit = unit
        self._hole_index = hole_index  # id(Identifier) -> hole position
        self._hole_initialized = hole_initialized
        self._binding_maps = binding_maps
        # The declaration whose initializer is currently being translated:
        # the interpreter publishes a name only *after* its initializer ran,
        # so a hole in the initializer bound to the declaring variable
        # itself is an "unknown variable" error, not a cell read.
        self._declaring: ast.VarDecl | None = None
        self._lines: list[str] = []
        self._indent = 1
        self._pending = 0
        self._temps = 0
        self._flags = 0
        self._slot_of: dict[int, int] = {}  # id(VarDecl) -> slot
        self._decls: list[ast.VarDecl] = []
        # Loop context stack: (break_code, continue_code) for the innermost
        # enclosing loop of the *generated* code.
        self._loops: list[tuple[str, str | None]] = []

    # -- low-level emission -------------------------------------------------

    def _emit(self, line: str) -> None:
        self._lines.append("    " * self._indent + line)

    def _tick(self, count: int = 1) -> None:
        self._pending += count

    def _flush(self) -> None:
        """Emit the accumulated tick count and its budget check."""
        if self._pending:
            self._emit(f"s += {self._pending}" if self._pending > 1 else "s += 1")
            self._emit("if s > _ms: raise _TO()")
            self._pending = 0

    def _temp(self) -> str:
        self._temps += 1
        return f"_t{self._temps}"

    @staticmethod
    def _is_simple(expr: str) -> bool:
        """Safe to re-evaluate / already a bare temp or constant?"""
        if expr.startswith("_t") and expr[2:].isdigit():
            return True
        stripped = expr[1:] if expr.startswith("-") else expr
        return stripped.isdigit()

    def _cap(self, expr: str) -> str:
        """Materialize an expression into a temp unless it already is one."""
        if self._is_simple(expr):
            return expr
        temp = self._temp()
        self._emit(f"{temp} = {expr}")
        return temp

    def _pair(self, left: ast.Expr, right: ast.Expr) -> tuple[str, str]:
        """Generate both operands preserving left-before-right evaluation.

        If the right operand emits statements, a still-inline left operand
        is captured *before* them, so stores on the right cannot be observed
        by a pure read on the left.
        """
        left_str = self._expr(left)
        mark = len(self._lines)
        right_str = self._expr(right)
        if len(self._lines) > mark and not self._is_simple(left_str):
            temp = self._temp()
            self._lines.insert(mark, "    " * self._indent + f"{temp} = {left_str}")
            left_str = temp
        return left_str, right_str

    # -- variable access ----------------------------------------------------

    def _slot(self, decl: ast.VarDecl) -> int:
        slot = self._slot_of.get(id(decl))
        if slot is None:
            raise _Bail("use of a declaration outside the translated scope")
        return slot

    def _site(self, node: ast.Identifier) -> tuple[str, str, bool]:
        """Resolve an identifier site to (cells_expr, name_expr, initialized).

        ``name_expr`` is a Python expression producing the bound variable's
        name (for UB messages); hole sites read it from ``HN``.
        """
        hole = self._hole_index.get(id(node))
        if hole is not None:
            declaring = self._declaring
            if declaring is not None and any(
                candidate is declaring for candidate in self._binding_maps[hole].values()
            ):
                self._flush()
                self._emit(
                    f"if H[{hole}] == {self._slot(declaring)}: "
                    f"raise _RE('unknown variable %r' % (HN[{hole}],))"
                )
            return f"HC[{hole}]", f"HN[{hole}]", self._hole_initialized[hole]
        decl = node.decl
        if decl is None:
            raise _Bail("unresolved identifier")
        return f"c{self._slot(decl)}", repr(decl.name), _decl_initialized(decl)

    def _site_decl(self, node: ast.Identifier) -> ast.VarDecl:
        decl = node.decl
        if decl is None:
            raise _Bail("unresolved identifier")
        return decl

    # -- expressions ---------------------------------------------------------
    # Each _expr call adds the node's ticks to the pending counter and
    # returns a Python expression string; non-inline-safe constructs emit
    # statements (flushing pending ticks before anything that can raise).

    def _expr(self, node: ast.Expr) -> str:
        cls = node.__class__
        if cls is ast.IntLiteral:
            if node.suffix:
                raise _Bail("suffixed literal")
            self._tick()
            return repr(INT.wrap(node.value))
        if cls is ast.CharLiteral:
            self._tick()
            return repr(node.value)
        if cls is ast.Identifier:
            return self._scalar_read(node)
        if cls is ast.Index:
            return self._index_read(node)
        if cls is ast.Unary:
            return self._unary(node)
        if cls is ast.Binary:
            return self._binary(node)
        if cls is ast.Assignment:
            return self._assignment(node)
        if cls is ast.Conditional:
            return self._conditional(node)
        raise _Bail(f"expression {cls.__name__}")

    def _scalar_read(self, node: ast.Identifier) -> str:
        decl = self._site_decl(node)
        if not _is_plain_int(decl.var_type):
            raise _Bail("non-int scalar read")
        cells, name, initialized = self._site(node)
        self._tick()
        if initialized:
            return f"{cells}[0]"
        temp = self._temp()
        self._flush()
        self._emit(f"{temp} = {cells}[0]")
        self._emit(f"if {temp} is None: raise _UB('read of uninitialized value %r' % ({name},))")
        return temp

    def _array_site(self, node: ast.Expr) -> tuple[str, str, int, bool]:
        """An Index base: (cells_expr, name_expr, static size, initialized)."""
        if node.__class__ is not ast.Identifier:
            raise _Bail("index base is not an identifier")
        decl = self._site_decl(node)
        if not _is_int_array(decl.var_type):
            raise _Bail("index base is not an int array")
        cells, name, initialized = self._site(node)
        return cells, name, decl.var_type.size, initialized

    def _index_read(self, node: ast.Index) -> str:
        cells, name, size, initialized = self._array_site(node.base)
        self._tick(2)  # the Index node plus the base identifier's decay
        index = self._cap(self._expr(node.index))
        self._flush()
        self._emit(
            f"if not 0 <= {index} < {size}: "
            f"raise _UB('out-of-bounds access to %r at offset %d' % ({name}, {index}))"
        )
        temp = self._temp()
        self._emit(f"{temp} = {cells}[{index}]")
        if not initialized:
            self._emit(
                f"if {temp} is None: raise _UB('read of uninitialized value %r' % ({name},))"
            )
        return temp

    def _unary(self, node: ast.Unary) -> str:
        op = node.op
        if op in ("++", "--"):
            target = node.operand
            if target.__class__ is not ast.Identifier:
                raise _Bail("++/-- of a non-identifier")
            decl = self._site_decl(target)
            if not _is_plain_int(decl.var_type):
                raise _Bail("++/-- of a non-int")
            cells, name, initialized = self._site(target)
            self._tick()
            self._flush()
            old = self._temp()
            self._emit(f"{old} = {cells}[0]")
            if not initialized:
                self._emit(
                    f"if {old} is None: raise _UB('read of uninitialized value %r' % ({name},))"
                )
            delta = 1 if op == "++" else -1
            new = self._temp()
            self._emit(f"{new} = {old} + {delta}")
            self._emit(
                f"if {new} < {_INT_MIN} or {new} > {_INT_MAX}: "
                f"raise _UB('signed integer overflow: %d + %d does not fit in int' % ({old}, {delta}))"
            )
            self._emit(f"{cells}[0] = {new}")
            return old if node.postfix else new
        if op == "+":
            self._tick()
            return self._expr(node.operand)
        if op == "!":
            self._tick()
            operand = self._expr(node.operand)
            return f"(0 if ({operand}) != 0 else 1)"
        if op == "~":
            self._tick()
            operand = self._expr(node.operand)
            return f"(~({operand}))"
        if op == "-":
            self._tick()
            operand = self._cap(self._expr(node.operand))
            self._flush()
            temp = self._temp()
            self._emit(f"{temp} = -{operand}")
            self._emit(
                f"if {temp} < {_INT_MIN} or {temp} > {_INT_MAX}: "
                f"raise _UB('signed integer overflow: 0 - %d does not fit in int' % ({operand},))"
            )
            return temp
        raise _Bail(f"unary {op!r}")

    def _binary(self, node: ast.Binary) -> str:
        op = node.op
        if op in ("&&", "||"):
            self._tick()
            left = self._expr(node.left)
            self._flush()
            temp = self._temp()
            zero_result, test = ("0", "==") if op == "&&" else ("1", "!=")
            self._emit(f"if ({left}) {test} 0:")
            self._indent += 1
            self._emit(f"{temp} = {zero_result}")
            self._indent -= 1
            self._emit("else:")
            self._indent += 1
            right = self._expr(node.right)
            self._flush()
            self._emit(f"{temp} = 1 if ({right}) != 0 else 0")
            self._indent -= 1
            return temp
        if op == ",":
            self._tick()
            left = self._expr(node.left)
            if not self._is_simple(left):
                self._emit(f"{self._temp()} = {left}")
            return self._expr(node.right)
        if op in _COMPARISONS:
            self._tick()
            left, right = self._pair(node.left, node.right)
            return f"(1 if ({left}) {op} ({right}) else 0)"
        if op in _BITWISE:
            self._tick()
            left, right = self._pair(node.left, node.right)
            temp = self._temp()
            self._emit(f"{temp} = (({left}) & 0xFFFFFFFF) {op} (({right}) & 0xFFFFFFFF)")
            self._emit(f"if {temp} >= 0x80000000: {temp} -= 0x100000000")
            return temp
        if op in ("+", "-", "*", "/", "%", "<<", ">>"):
            self._tick()
            left_str = self._expr(node.left)
            left = self._cap(left_str)
            right = self._cap(self._expr(node.right))
            self._flush()
            return self._arith(op, left, right)
        raise _Bail(f"binary {op!r}")

    def _arith(self, op: str, left: str, right: str) -> str:
        """Emit one ``int`` arithmetic operation (operands already in temps,
        pending ticks flushed); mirrors ``Interpreter._arith_int`` exactly."""
        temp = self._temp()
        if op in ("+", "-", "*"):
            self._emit(f"{temp} = {left} {op} {right}")
            self._emit(
                f"if {temp} < {_INT_MIN} or {temp} > {_INT_MAX}: "
                f"raise _UB('signed integer overflow: %d {op} %d does not fit in int'"
                f" % ({left}, {right}))"
            )
            return temp
        if op in ("/", "%"):
            self._emit(f"if {right} == 0: raise _UB('division by zero')")
            quotient = self._temp()
            self._emit(f"{quotient} = abs({left}) // abs({right})")
            self._emit(f"if ({left} < 0) != ({right} < 0): {quotient} = -{quotient}")
            if op == "/":
                self._emit(
                    f"if {left} == {_INT_MIN} and {right} == -1: "
                    "raise _UB('signed division overflow')"
                )
                return quotient
            self._emit(f"{temp} = {left} - {quotient} * {right}")
            return temp
        if op in ("<<", ">>"):
            self._emit(
                f"if {right} < 0 or {right} >= 32: "
                f"raise _UB('shift amount %d out of range for int' % ({right},))"
            )
            if op == "<<":
                self._emit(f"if {left} < 0: raise _UB('left shift of a negative value')")
                self._emit(f"{temp} = {left} << {right}")
                self._emit(
                    f"if {temp} > {_INT_MAX}: "
                    f"raise _UB('signed integer overflow: %d << %d does not fit in int'"
                    f" % ({left}, {right}))"
                )
            else:
                self._emit(f"{temp} = {left} >> {right}")
            return temp
        raise _Bail(f"arithmetic {op!r}")

    def _compound_value(self, op: str, current: str, value: str) -> str:
        """``current op value`` with ``_arith_int(INT, ...)`` semantics: like
        the raw operators, plus the final 32-bit wrap (observable for ``%``)."""
        if op in _BITWISE:
            temp = self._temp()
            self._emit(f"{temp} = (({current}) & 0xFFFFFFFF) {op} (({value}) & 0xFFFFFFFF)")
            self._emit(f"if {temp} >= 0x80000000: {temp} -= 0x100000000")
            return temp
        result = self._arith(op, current, value)
        if op == "%":
            self._emit(f"{result} &= 0xFFFFFFFF")
            self._emit(f"if {result} >= 0x80000000: {result} -= 0x100000000")
        return result

    def _assignment(self, node: ast.Assignment) -> str:
        target = node.target
        if target.__class__ is ast.Index:
            return self._index_assignment(node)
        if target.__class__ is not ast.Identifier:
            raise _Bail("assignment target is not an identifier")
        decl = self._site_decl(target)
        if not _is_plain_int(decl.var_type):
            raise _Bail("assignment to a non-int scalar")
        cells, name, initialized = self._site(target)
        self._tick()
        if node.op == "=":
            value = self._cap(self._expr(node.value))
            self._emit(f"{cells}[0] = {value}")
            return value
        value = self._cap(self._expr(node.value))
        self._flush()
        current = self._temp()
        self._emit(f"{current} = {cells}[0]")
        if not initialized:
            self._emit(
                f"if {current} is None: raise _UB('read of uninitialized value %r' % ({name},))"
            )
        stored = self._compound_value(node.op[:-1], current, value)
        self._emit(f"{cells}[0] = {stored}")
        return stored

    def _index_assignment(self, node: ast.Assignment) -> str:
        cells, name, size, initialized = self._array_site(node.target.base)
        self._tick(2)  # the Assignment node plus the base identifier decay
        index = self._cap(self._expr(node.target.index))
        self._flush()
        self._emit(
            f"if not 0 <= {index} < {size}: "
            f"raise _UB('out-of-bounds access to %r at offset %d' % ({name}, {index}))"
        )
        value = self._cap(self._expr(node.value))
        if node.op == "=":
            self._emit(f"{cells}[{index}] = {value}")
            return value
        self._flush()
        current = self._temp()
        self._emit(f"{current} = {cells}[{index}]")
        if not initialized:
            self._emit(
                f"if {current} is None: raise _UB('read of uninitialized value %r' % ({name},))"
            )
        stored = self._compound_value(node.op[:-1], current, value)
        self._emit(f"{cells}[{index}] = {stored}")
        return stored

    def _conditional(self, node: ast.Conditional) -> str:
        self._tick()
        condition = self._expr(node.condition)
        self._flush()
        temp = self._temp()
        self._emit(f"if ({condition}) != 0:")
        self._indent += 1
        then_value = self._expr(node.then_expr)
        self._flush()
        self._emit(f"{temp} = {then_value}")
        self._indent -= 1
        self._emit("else:")
        self._indent += 1
        else_value = self._expr(node.else_expr)
        self._flush()
        self._emit(f"{temp} = {else_value}")
        self._indent -= 1
        return temp

    # -- builtin calls in statement position ---------------------------------

    def _call_stmt(self, call: ast.Call) -> None:
        callee = call.callee
        self._tick()  # the Call node
        if callee == "printf":
            self._printf(call)
            return
        if callee in ("abort", "__builtin_abort"):
            self._flush()
            self._emit("return 134")
            return
        if callee == "exit":
            if call.args:
                code = self._cap(self._expr(call.args[0]))
            else:
                code = "0"
            self._flush()
            self._emit(f"return {code}")
            return
        if callee == "putchar":
            value = self._cap(self._expr(call.args[0])) if call.args else "0"
            self._flush()
            self._emit(f"_out.append(chr(({value}) & 0xFF))")
            return
        raise _Bail(f"call of {callee!r}")

    def _printf(self, call: ast.Call) -> None:
        if not call.args or not isinstance(call.args[0], ast.StringLiteral):
            raise _Bail("printf without a string-literal format")
        # Arguments are evaluated first (each captured so a later argument's
        # side effects cannot reorder an earlier pure read), then the format
        # is expanded; output is appended in one piece only if no conversion
        # ran out of arguments -- exactly _builtin_printf.
        values = [self._cap(self._expr(arg)) for arg in call.args[1:]]
        segments = _parse_printf_format(call.args[0].value)
        parts: list[str] = []
        value_index = 0
        for kind, text in segments:
            if kind == "lit":
                parts.append(repr(text))
                continue
            if value_index >= len(values):
                self._flush()
                self._emit("raise _UB('printf: not enough arguments for format')")
                return
            value = values[value_index]
            value_index += 1
            if kind == "d":
                parts.append(f"str({value})")
            elif kind == "u":
                parts.append(f"str({value} % 4294967296)")
            elif kind == "x":
                parts.append(f"format({value} % 4294967296, 'x')")
            else:  # "c"
                parts.append(f"chr({value} & 0xFF)")
        self._flush()
        if parts:
            self._emit(f"_out.append({' + '.join(parts)})")
        else:
            self._emit("_out.append('')")

    # -- statements ----------------------------------------------------------

    def _stmt(self, node: ast.Stmt) -> None:
        cls = node.__class__
        if cls is ast.Block:
            self._tick()
            for item in node.items:
                self._stmt(item)
            return
        if cls is ast.DeclStmt:
            self._tick()
            for decl in node.decls:
                self._declare(decl)
            return
        if cls is ast.ExprStmt:
            self._tick()
            expr = node.expr
            if expr.__class__ is ast.Call:
                self._call_stmt(expr)
                return
            value = self._expr(expr)
            if not self._is_simple(value):
                self._emit(f"{self._temp()} = {value}")
            return
        if cls is ast.Empty:
            self._tick()
            return
        if cls is ast.If:
            self._if(node)
            return
        if cls is ast.While:
            self._while(node)
            return
        if cls is ast.DoWhile:
            self._do_while(node)
            return
        if cls is ast.For:
            self._for(node)
            return
        if cls is ast.Return:
            self._return(node)
            return
        if cls is ast.Break:
            self._tick()
            self._flush()
            break_code = self._loops[-1][0] if self._loops else None
            if break_code is None:
                raise _Bail("break outside a loop")
            for line in break_code.split("\n"):
                self._emit(line)
            return
        if cls is ast.Continue:
            self._tick()
            self._flush()
            continue_code = self._loops[-1][1] if self._loops else None
            if continue_code is None:
                raise _Bail("continue outside a loop")
            self._emit(continue_code)
            return
        if cls is ast.Goto:
            self._tick()
            self._flush()
            self._emit(f"raise _J({node.label!r})")
            return
        if cls is ast.Label:  # only top-level labels of main get this far
            self._tick()
            self._stmt(node.statement)
            return
        raise _Bail(f"statement {cls.__name__}")

    def _declare(self, decl: ast.VarDecl) -> None:
        cells = f"c{self._slot(decl)}"
        var_type = decl.var_type
        self._declaring = decl
        try:
            if isinstance(var_type, ArrayType):
                if not _is_int_array(var_type):
                    raise _Bail("non-int array declaration")
                size = var_type.size
                if decl.init_list is not None:
                    if len(decl.init_list) > size:
                        raise _Bail("too many array initializers")
                    for index, item in enumerate(decl.init_list):
                        value = self._cap(self._expr(item))
                        self._emit(f"{cells}[{index}] = {value}")
                    remaining = size - len(decl.init_list)
                    if remaining:
                        self._emit(f"{cells}[{len(decl.init_list)}:] = (0,) * {remaining}")
                elif not decl.is_global:
                    self._emit(f"{cells}[:] = (None,) * {size}")
                return
            if var_type not in (INT, LONG):
                raise _Bail("non-int scalar declaration")
            # A long's int initializer stores the same value: LONG.wrap(v)
            # is v for every int v, and reads of a long bail.
            if decl.init is not None:
                value = self._expr(decl.init)
                self._emit(f"{cells}[0] = {value}")
            elif not decl.is_global:
                self._emit(f"{cells}[0] = None")
        finally:
            self._declaring = None

    def _if(self, node: ast.If) -> None:
        self._tick()
        condition = self._expr(node.condition)
        self._flush()
        self._emit(f"if ({condition}) != 0:")
        self._indent += 1
        self._stmt(node.then_branch)
        self._flush()
        self._emit("pass")
        self._indent -= 1
        if node.else_branch is not None:
            self._emit("else:")
            self._indent += 1
            self._stmt(node.else_branch)
            self._flush()
            self._emit("pass")
            self._indent -= 1

    def _while(self, node: ast.While) -> None:
        self._tick()  # the While node itself
        self._flush()
        self._emit("while True:")
        self._indent += 1
        self._tick()  # per-iteration tick, checked before the condition
        condition = self._expr(node.condition)
        self._flush()
        self._emit(f"if ({condition}) == 0: break")
        self._loops.append(("break", "continue"))
        self._stmt(node.body)
        self._loops.pop()
        self._flush()
        self._emit("pass")
        self._indent -= 1

    def _region(self, body: ast.Stmt) -> None:
        """Emit a loop body whose ``continue`` must fall through to trailing
        loop code (the do-while condition / for step): run it in a dummy
        single-iteration ``for`` so ``continue`` exits the region, with a
        flag carrying a real ``break`` across the region boundary."""
        if not _binds_continue(body):
            self._loops.append(("break", None))
            self._stmt(body)
            self._loops.pop()
            self._flush()
            return
        self._flags += 1
        flag = f"_brk{self._flags}"
        self._emit(f"{flag} = False")
        self._emit("for _ in _ONCE:")
        self._indent += 1
        self._loops.append((f"{flag} = True\nbreak", "continue"))
        self._stmt(body)
        self._loops.pop()
        self._flush()
        self._emit("pass")
        self._indent -= 1
        self._emit(f"if {flag}: break")

    def _do_while(self, node: ast.DoWhile) -> None:
        self._tick()
        self._flush()
        self._emit("while True:")
        self._indent += 1
        self._tick()  # per-iteration tick, checked before the body
        self._flush()
        self._region(node.body)
        condition = self._expr(node.condition)
        self._flush()
        self._emit(f"if ({condition}) == 0: break")
        self._indent -= 1

    def _for(self, node: ast.For) -> None:
        self._tick()
        if node.init is not None:
            self._stmt(node.init)
        self._flush()
        self._emit("while True:")
        self._indent += 1
        self._tick()  # per-iteration tick, checked before the condition
        if node.condition is not None:
            condition = self._expr(node.condition)
            self._flush()
            self._emit(f"if ({condition}) == 0: break")
        else:
            self._flush()
        self._region(node.body)
        if node.step is not None:
            step = self._expr(node.step)
            if not self._is_simple(step):
                self._emit(f"{self._temp()} = {step}")
        self._flush()
        self._emit("pass")
        self._indent -= 1

    def _return(self, node: ast.Return) -> None:
        self._tick()
        if node.value is None:
            self._flush()
            self._emit("return None")
            return
        self._flush()  # the Return tick is checked before the value runs
        value = self._expr(node.value)
        self._flush()
        self._emit(f"return {value}")

    # -- whole-unit translation ----------------------------------------------

    def translate(self) -> tuple[str, dict[int, int]]:
        """Build the generated function source; returns (source, slot map)."""
        unit = self._unit
        # Mirror the interpreter's entry lookup: prototype-like empty bodies
        # are not definitions, and a later definition shadows an earlier one.
        main = None
        for fn in unit.functions():
            if fn.name == "main" and (fn.body.items or fn.body.loc.line != 0):
                main = fn
        if main is None:
            raise _Bail("no main definition")
        if main.params:
            raise _Bail("main has parameters")
        # Only an unread long is in the subset: no slot table may point a
        # hole at a long cell, whatever site the hole sits at.
        if any(
            decl.var_type == LONG
            for candidates in self._binding_maps
            for decl in candidates.values()
        ):
            raise _Bail("a hole with a long candidate")
        segments = _jump_segments(main.body)

        # Collect every declaration the generated code can touch (globals +
        # main's locals, in declaration order) and reject duplicate names:
        # with unique names, environment-dict scoping collapses to one fixed
        # cell list per declaration.  A declaration that is the un-braced
        # body of an if/while/do may never run, leaving its name undeclared
        # in the interpreter, which no fixed cell can mirror.
        names: set[str] = set()
        for decl in unit.globals():
            self._register(decl, names)
        for node in main.body.walk():
            cls = node.__class__
            if cls is ast.VarDecl:
                self._register(node, names)
            elif cls in (ast.If, ast.While, ast.DoWhile) and _declares_into_scope(node):
                raise _Bail("declaration as an un-braced if/loop body")

        header: list[str] = []
        for decl in self._decls:
            slot = self._slot_of[id(decl)]
            if isinstance(decl.var_type, ArrayType):
                fill = "0" if decl.is_global else "None"
                header.append(f"    c{slot} = [{fill}] * {decl.var_type.size}")
            else:
                fill = "0" if decl.is_global else "None"
                header.append(f"    c{slot} = [{fill}]")
        slots = ", ".join(f"c{self._slot_of[id(decl)]}" for decl in self._decls)
        if self._decls:
            trailing = "," if len(self._decls) == 1 else ""
            header.append(f"    _S = ({slots}{trailing})")
            header.append("    HC = [_S[i] for i in H]")
        header.append("    s = 0")

        # Global initializers run before main, in declaration order, with
        # ordinary expression ticks (the interpreter evaluates them through
        # the same per-node accounting).
        for decl in unit.globals():
            self._declare(decl)
        if segments is None:
            self._stmt_list(main.body.items)
            self._flush()
            self._emit("return None")
        else:
            self._dispatch(segments)

        body = "\n".join(header + self._lines)
        source = f"def _skeleton_main(H, HN, _ms, _out):\n{body}\n"
        return source, dict(self._slot_of)

    def _stmt_list(self, items: list[ast.Stmt]) -> None:
        for item in items:
            self._stmt(item)

    def _dispatch(self, segments: list[list[ast.Stmt]]) -> None:
        """Emit main's body as a dispatch loop over its goto segments: a
        jump re-enters at its label's segment, skipping the earlier ones
        without ticking."""
        segment_of = {
            segment[0].name: index
            for index, segment in enumerate(segments)
            if segment[0].__class__ is ast.Label
        }
        self._flush()  # global initializers tick once, outside the loop
        self._emit(f"_seg = {segment_of!r}")
        self._emit("_pc = 0")
        self._emit(f"_jl = {GOTO_JUMP_LIMIT}")
        self._emit("while True:")
        self._indent += 1
        self._emit("try:")
        self._indent += 1
        for index, segment in enumerate(segments):
            self._emit(f"if _pc <= {index}:")
            self._indent += 1
            self._stmt_list(segment)
            self._flush()
            self._emit("pass")
            self._indent -= 1
        self._emit("return None")
        self._indent -= 1
        self._emit("except _J as _j:")
        self._indent += 1
        self._emit("_jl -= 1")
        self._emit("if _jl <= 0: raise _TO()")
        self._emit("_pc = _seg[_j.label]")
        self._indent -= 2

    def _register(self, decl: ast.VarDecl, names: set[str]) -> None:
        if decl.is_param:
            raise _Bail("parameters are outside the subset")
        if decl.name in names:
            raise _Bail(f"duplicate declared name {decl.name!r}")
        names.add(decl.name)
        var_type = decl.var_type
        if var_type not in (INT, LONG) and not _is_int_array(var_type):
            raise _Bail(f"declaration of type {var_type.spelling()!r}")
        self._slot_of[id(decl)] = len(self._decls)
        self._decls.append(decl)


def _jump_segments(body: ast.Block) -> list[list[ast.Stmt]] | None:
    """Split ``main``'s top-level items into dispatch segments, each label
    starting one; ``None`` when ``main`` has no goto or label.

    Bails on a label below the top level or a repeated one (the
    interpreter resumes at the first top-level item holding the name), a
    goto to no top-level label of ``main``, and a forward goto over a
    top-level item that declares (a label-wrapped declaration included):
    the jump leaves that name undeclared, or bound to a global, in the
    interpreter, while the generated body keeps one fixed cell per
    declaration.
    """
    items = body.items
    labels = sum(1 for node in body.walk() if node.__class__ is ast.Label)
    gotos = [
        (index, node)
        for index, item in enumerate(items)
        for node in item.walk()
        if node.__class__ is ast.Goto
    ]
    if not labels and not gotos:
        return None
    position = {
        item.name: index for index, item in enumerate(items) if item.__class__ is ast.Label
    }
    if len(position) != labels:
        raise _Bail("a repeated label, or one below the top level of main")
    segments: list[list[ast.Stmt]] = [[]]
    for item in items:
        if item.__class__ is ast.Label and segments[-1]:
            segments.append([])
        segments[-1].append(item)
    for index, goto in gotos:
        target = position.get(goto.label)
        if target is None:
            raise _Bail(f"goto to {goto.label!r}, not a top-level label of main")
        if any(_declares_into_scope(items[skipped]) for skipped in range(index, target)):
            raise _Bail("a forward goto over a declaration")
    return segments


def _binds_continue(body: ast.Stmt) -> bool:
    """Does ``body`` lexically contain a ``continue`` bound to this loop?"""
    stack = [body]
    while stack:
        node = stack.pop()
        cls = node.__class__
        if cls is ast.Continue:
            return True
        if cls in (ast.While, ast.DoWhile, ast.For):
            continue  # an inner loop captures its own continues
        stack.extend(child for child in node.children() if isinstance(child, ast.Stmt))
    return False


def _parse_printf_format(format_string: str) -> list[tuple[str, str]]:
    """Split a printf format into ('lit', text) and conversion segments,
    mirroring ``_builtin_printf``'s specifier scanner exactly."""
    segments: list[tuple[str, str]] = []
    literal: list[str] = []
    position = 0
    while position < len(format_string):
        char = format_string[position]
        if char != "%":
            literal.append(char)
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
            literal.append("%")
            continue
        if literal:
            segments.append(("lit", "".join(literal)))
            literal = []
        if specifier.endswith("d"):
            segments.append(("d", specifier))
        elif specifier.endswith("u"):
            segments.append(("u", specifier))
        elif specifier.endswith("x"):
            segments.append(("x", specifier))
        elif specifier.endswith("c"):
            segments.append(("c", specifier))
        else:
            # A bare/length-only specifier ("%l", "%" at end) consumes an
            # argument and prints it as decimal, like the interpreter's
            # fall-through branch.
            segments.append(("d", specifier))
    if literal:
        segments.append(("lit", "".join(literal)))
    return segments


#: The vectorized trampoline, compiled once into each skeleton's namespace
#: (next to ``_skeleton_main``): a whole chunk of characteristic vectors runs
#: through one Python-level entry call, with the per-vector try/except and
#: :class:`ExecutionResult` construction inside compiled code.  The exception
#: ladder, the detail strings and the exit-code normalisation mirror
#: :meth:`repro.minic.interp.Interpreter.run` exactly.
_BATCH_SOURCE = """\
def _skeleton_batch(_frames, _ms, _results):
    _append = _results.append
    _join = ''.join
    _main = _skeleton_main
    for H, HN in _frames:
        _out = []
        try:
            _code = _main(H, HN, _ms, _out)
        except _UB as _e:
            _append(_R(_UNDEFINED, None, _join(_out), _e.reason))
            continue
        except _TO:
            _append(_R(_TIMEOUT, None, _join(_out), 'step budget exhausted'))
            continue
        except _RE as _e:
            _append(_R(_ERROR, None, _join(_out), str(_e)))
            continue
        _append(_R(_OK, _code & 0xFF if type(_code) is int else 0, _join(_out)))
"""


class SkeletonRunner:
    """One compiled skeleton body plus per-vector hole-slot resolution."""

    __slots__ = ("_batch", "_hole_slots")

    def __init__(self, batch, hole_slots: list[dict[str, int]]):
        self._batch = batch
        self._hole_slots = hole_slots

    def run_batch(self, vectors, max_steps: int = 200_000) -> list[ExecutionResult]:
        """Execute a whole batch of characteristic vectors through the one
        compiled body -- the tight loop the campaign's batch tier calls.

        The argument frames (hole-slot tuple + name tuple per vector) are
        precomputed in bulk, then the whole batch enters the generated
        ``_skeleton_batch`` trampoline in **one** Python call.
        """
        hole_slots = self._hole_slots
        frames = []
        append = frames.append
        for vector in vectors:
            names = tuple(vector)
            append(
                (tuple(slots[name] for slots, name in zip(hole_slots, names)), names)
            )
        results: list[ExecutionResult] = []
        self._batch(frames, max_steps, results)
        return results


def compile_skeleton_runner(unit: ast.TranslationUnit, identifiers, binding_maps) -> SkeletonRunner | None:
    """Translate one skeleton's unit into a :class:`SkeletonRunner`.

    Args:
        unit: the skeleton's parsed + resolved translation unit.
        identifiers: the hole ``Identifier`` nodes, in hole order.
        binding_maps: per hole, ``candidate name -> VarDecl``.

    Returns ``None`` when any construct is outside the subset; callers run
    such skeletons on the interpreter.
    """
    hole_index = {id(node): k for k, node in enumerate(identifiers)}
    hole_initialized = [
        bool(candidates) and all(_decl_initialized(decl) for decl in candidates.values())
        for candidates in binding_maps
    ]
    emitter = _Emitter(unit, hole_index, hole_initialized, binding_maps)
    try:
        source, slot_of = emitter.translate()
    except _Bail:
        return None
    namespace = {
        "_UB": UndefinedBehaviour,
        "_TO": _Timeout,
        "_RE": MiniCRuntimeError,
        "_J": _GotoSignal,
        "_ONCE": (0,),
        "_R": ExecutionResult,
        "_OK": ExecutionStatus.OK,
        "_UNDEFINED": ExecutionStatus.UNDEFINED,
        "_TIMEOUT": ExecutionStatus.TIMEOUT,
        "_ERROR": ExecutionStatus.ERROR,
    }
    try:
        exec(compile(source, "<skeleton-codegen>", "exec"), namespace)
        exec(compile(_BATCH_SOURCE, "<skeleton-codegen-batch>", "exec"), namespace)
    except SyntaxError:  # loops nested over 20 deep: "too many statically nested blocks"
        return None
    hole_slots = [
        {name: slot_of.get(id(decl), 0) for name, decl in candidates.items()}
        for candidates in binding_maps
    ]
    return SkeletonRunner(namespace["_skeleton_batch"], hole_slots)


def runner_for_skeleton(skeleton) -> SkeletonRunner | None:
    """The memoised per-skeleton runner (``False`` sentinel caches bails)."""
    cached = skeleton.metadata.get("codegen_runner", None)
    if cached is None:
        binder = skeleton.metadata.get("binder")
        if binder is None:
            cached = False
        else:
            runner = compile_skeleton_runner(
                binder.unit, binder.identifiers, binder.binding_maps
            )
            cached = runner if runner is not None else False
        skeleton.metadata["codegen_runner"] = cached
    return cached if cached is not False else None


__all__ = ["SkeletonRunner", "compile_skeleton_runner", "runner_for_skeleton"]
