"""Batched reference execution for WHILE skeletons: one generated Python
function per skeleton.

The campaign's reference side pays the tree-walking interpreter
(:mod:`repro.lang.interp`) once per variant even though every variant of a
skeleton shares the *same* program structure -- only the names at the hole
sites (the ``Var`` occurrences) change.  This module translates the
skeleton's program **once** into a Python function parameterised by the
characteristic vector; each variant then costs one call into already-compiled
bytecode instead of ~steps dictionary dispatches.

Exactness contract -- the generated code must be observably
indistinguishable from ``execute_while(variant.program, max_steps)``
(:func:`repro.lang.compile.execute_while`) for every vector and step budget:

* the store is a plain dict, reads default to 0 (``store.get(name, 0)``),
  and the OK observable is the sorted ``name=value`` rendering with exit 0;
* step accounting mirrors :class:`~repro.lang.interp.WhileInterpreter`
  exactly: +1 at every statement-node entry (``Skip``/``Assign``/``Seq``/
  ``While``/``If`` -- expressions never tick) and +1 per loop iteration
  after the body.  Pending ticks are kept in a local counter and *flushed*
  (checked against the budget) at every point where the interpreter could
  observably raise before the next flush: before evaluating any expression
  containing a division (the sole runtime error, and ``TIMEOUT`` must win
  over ``ERROR`` exactly when the interpreter's earlier tick would have
  fired), at every loop back-edge (so non-terminating loops still exhaust
  the budget), and at function exit (so a straight-line overrun still times
  out instead of returning OK);
* division is ``int(left / right)`` after a zero check, byte-for-byte the
  interpreter's semantics (including C-style truncation toward zero and any
  ``OverflowError`` a huge quotient would raise);
* ``and``/``or`` short-circuit exactly as the interpreter's Python
  ``and``/``or`` do -- WHILE expressions are pure, so evaluation order is
  unobservable beyond short-circuiting.

Every WHILE program is eligible (the language is closed over the node set
below); an unknown node type bails to the interpreter fallback rather than
guessing.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.execution import ExecutionResult, ExecutionStatus
from repro.core.holes import CharacteristicVector, Skeleton
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


class _Bail(Exception):
    """The skeleton is outside the translatable subset (defensive only)."""


class _Timeout(Exception):
    """Internal: step budget exhausted (maps to TIMEOUT)."""


class _RuntimeFault(Exception):
    """Internal: WHILE runtime error (maps to ERROR, e.g. division by zero)."""


def _div(left: int, right: int) -> int:
    if right == 0:
        raise _RuntimeFault("division by zero")
    return int(left / right)  # C-style truncation toward zero


def _has_division(node: WhileNode) -> bool:
    return any(
        isinstance(child, BinaryArith) and child.op == "/" for child in node.walk()
    )


class _Emitter:
    """Translates one skeleton program into the body of a Python function.

    ``hole_of`` maps ``id(var_node)`` to the hole index; every ``Var``
    occurrence is a hole in WHILE, so a site reads/writes ``_s[N[k]]`` where
    ``N`` is the vector's name tuple.  A ``hole_of`` of ``None`` selects
    *concrete* mode: the program has no holes to parameterise, so every
    name is embedded as a string literal (the vector argument is ignored)
    -- used to compile the optimizer's *output* for oracle-side execution.
    """

    def __init__(self, hole_of: dict[int, int] | None) -> None:
        self._hole_of = hole_of
        self._lines: list[str] = []
        self._indent = 1
        self._pending = 0

    def _emit(self, line: str) -> None:
        self._lines.append("    " * self._indent + line)

    def _tick(self, count: int = 1) -> None:
        self._pending += count

    def _flush(self) -> None:
        """Materialise pending ticks and check the budget."""
        if self._pending:
            self._emit(f"s += {self._pending}" if self._pending > 1 else "s += 1")
            self._pending = 0
        self._emit("if s > _ms: raise _TO()")

    def _spill(self) -> None:
        """Materialise pending ticks without a budget check (before emitting
        a control-flow construct whose branches flush independently)."""
        if self._pending:
            self._emit(f"s += {self._pending}" if self._pending > 1 else "s += 1")
            self._pending = 0

    # -- expressions -------------------------------------------------------

    def _site(self, node: Var) -> str:
        if self._hole_of is None:
            return repr(node.name)
        return f"N[{self._hole_of[id(node)]}]"

    def _expr(self, node: WhileNode) -> str:
        if isinstance(node, Num):
            return repr(node.value)
        if isinstance(node, Var):
            return f"_s.get({self._site(node)}, 0)"
        if isinstance(node, BinaryArith):
            left, right = self._expr(node.left), self._expr(node.right)
            if node.op == "/":
                return f"_div({left}, {right})"
            return f"({left} {node.op} {right})"
        if isinstance(node, BoolLit):
            return "True" if node.value else "False"
        if isinstance(node, Not):
            return f"(not {self._expr(node.operand)})"
        if isinstance(node, BoolBinary):
            return f"({self._expr(node.left)} {node.op} {self._expr(node.right)})"
        if isinstance(node, Compare):
            return f"({self._expr(node.left)} {node.op} {self._expr(node.right)})"
        raise _Bail(f"untranslatable expression node {type(node).__name__}")

    # -- statements --------------------------------------------------------

    def _stmt(self, node: WhileNode) -> None:
        self._tick()  # _exec entry tick, for every statement node
        if isinstance(node, Skip):
            return
        if isinstance(node, Assign):
            if _has_division(node.value):
                self._flush()
            self._emit(f"_s[{self._site(node.target)}] = {self._expr(node.value)}")
            return
        if isinstance(node, Seq):
            for statement in node.statements:
                self._stmt(statement)
            return
        if isinstance(node, While):
            self._spill()
            condition_divides = _has_division(node.condition)
            self._emit("while True:")
            self._indent += 1
            if condition_divides:
                self._flush()
            self._emit(f"if not {self._expr(node.condition)}: break")
            self._stmt_block(node.body)
            self._tick()  # per-iteration tick, after the body
            self._flush()  # back-edge: budget check every iteration
            self._indent -= 1
            return
        if isinstance(node, If):
            if _has_division(node.condition):
                self._flush()
            else:
                self._spill()
            self._emit(f"if {self._expr(node.condition)}:")
            self._indent += 1
            self._stmt_block(node.then_branch)
            self._spill()
            self._indent -= 1
            self._emit("else:")
            self._indent += 1
            self._stmt_block(node.else_branch)
            self._spill()
            self._indent -= 1
            return
        raise _Bail(f"untranslatable statement node {type(node).__name__}")

    def _stmt_block(self, node: WhileNode) -> None:
        """One branch/body statement, guaranteed to emit at least one line."""
        before = len(self._lines)
        self._stmt(node)
        if len(self._lines) == before:
            self._emit("pass")

    # -- entry -------------------------------------------------------------

    def translate(self, program: WhileNode) -> str:
        self._emit("_s = {}")
        self._emit("s = 0")
        self._stmt(program)
        self._flush()  # a straight-line overrun must still time out
        self._emit("return _s")
        body = "\n".join(self._lines)
        return f"def _skeleton_main(N, _ms):\n{body}\n"


#: Vectorized trampoline, compiled once into each skeleton's namespace: a
#: whole chunk of vectors enters the generated code in one Python call, with
#: the try/except ladder, the detail strings and the sorted-store rendering
#: inside compiled code -- observationally identical to calling
#: :meth:`WhileSkeletonRunner.run` per vector (``'%s=%s\\n' %`` renders the
#: same text as the scalar path's f-string for the str/int store).
_BATCH_SOURCE = """\
def _skeleton_batch(_frames, _ms, _results):
    _append = _results.append
    _join = ''.join
    _main = _skeleton_main
    _to_detail = 'exceeded %s steps' % (_ms,)
    for N in _frames:
        try:
            _store = _main(N, _ms)
        except _TO:
            _append(_R(_TIMEOUT, None, '', _to_detail))
            continue
        except _RF as _e:
            _append(_R(_ERROR, None, '', str(_e)))
            continue
        _append(_R(_OK, 0, _join(['%s=%s\\n' % _kv for _kv in sorted(_store.items())])))
"""


class WhileSkeletonRunner:
    """Executes characteristic vectors through a compiled skeleton body."""

    __slots__ = ("_fn", "_batch")

    def __init__(self, fn, batch) -> None:
        self._fn = fn
        self._batch = batch

    def run(self, vector: Sequence[str], max_steps: int = 200_000) -> ExecutionResult:
        try:
            store = self._fn(tuple(vector), max_steps)
        except _Timeout:
            return ExecutionResult(
                ExecutionStatus.TIMEOUT, detail=f"exceeded {max_steps} steps"
            )
        except _RuntimeFault as error:
            return ExecutionResult(ExecutionStatus.ERROR, detail=str(error))
        stdout = "".join(f"{name}={value}\n" for name, value in sorted(store.items()))
        return ExecutionResult(ExecutionStatus.OK, exit_code=0, stdout=stdout)

    def run_batch(
        self, vectors: Sequence[CharacteristicVector], max_steps: int = 200_000
    ) -> list[ExecutionResult]:
        """One generated-trampoline call for the whole batch (argument frames
        precomputed in bulk)."""
        frames = [tuple(vector) for vector in vectors]
        results: list[ExecutionResult] = []
        self._batch(frames, max_steps, results)
        return results


def _compile_runner(source: str, filename: str) -> WhileSkeletonRunner | None:
    namespace = {
        "_TO": _Timeout,
        "_div": _div,
        "_RF": _RuntimeFault,
        "_R": ExecutionResult,
        "_OK": ExecutionStatus.OK,
        "_TIMEOUT": ExecutionStatus.TIMEOUT,
        "_ERROR": ExecutionStatus.ERROR,
    }
    try:
        code = compile(source, filename, "exec")
    except SyntaxError:  # loops nested over 20 deep: "too many statically nested blocks"
        return None
    exec(code, namespace)  # noqa: S102
    exec(compile(_BATCH_SOURCE, filename + "-batch", "exec"), namespace)  # noqa: S102
    return WhileSkeletonRunner(namespace["_skeleton_main"], namespace["_skeleton_batch"])


def compile_skeleton_runner(program: WhileNode, identifiers: Sequence[Var]) -> WhileSkeletonRunner | None:
    """Translate one skeleton program; ``None`` when outside the subset or too deep."""
    hole_of = {id(node): index for index, node in enumerate(identifiers)}
    try:
        source = _Emitter(hole_of).translate(program)
    except (_Bail, KeyError):
        return None
    return _compile_runner(source, "<while-skeleton>")


def compile_program_runner(program: WhileNode) -> WhileSkeletonRunner | None:
    """Translate one concrete (hole-free) program; names become literals.

    This is the oracle-side twin of :func:`compile_skeleton_runner`, under
    the same exactness contract with the interpreter.
    :meth:`repro.lang.compile.WhileCompiler.run` calls it only for an
    optimized program whose run outlived
    :data:`~repro.compiler.driver.TIER_UP_STEPS` on the interpreter.  Call
    ``run(())`` -- the vector argument is ignored.  ``None`` when the
    program is outside the subset or nests too deep for CPython.
    """
    try:
        source = _Emitter(None).translate(program)
    except _Bail:
        return None
    return _compile_runner(source, "<while-program>")


def runner_for_skeleton(skeleton: Skeleton) -> WhileSkeletonRunner | None:
    """The skeleton's compiled runner, built once and memoised in metadata.

    ``False`` caches "not translatable" so ineligible skeletons are probed
    exactly once.
    """
    cached = skeleton.metadata.get("codegen_runner")
    if cached is not None:
        return cached or None
    binder = skeleton.metadata.get("binder")
    runner = (
        compile_skeleton_runner(binder.unit, binder.identifiers)
        if binder is not None
        else None
    )
    skeleton.metadata["codegen_runner"] = runner if runner is not None else False
    return runner


__all__ = [
    "WhileSkeletonRunner",
    "compile_program_runner",
    "compile_skeleton_runner",
    "runner_for_skeleton",
]
