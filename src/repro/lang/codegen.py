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
  the budget or are proved non-terminating), and at function exit (so a
  straight-line overrun still times out instead of returning OK);
* a run past :data:`~repro.compiler.driver.TIER_UP_STEPS` that a back-edge
  probe proves can never leave its loop returns the budget's ``TIMEOUT`` at
  once: its stdout is empty and its detail is ``exceeded N steps`` whenever
  the run stops, so stopping early changes nothing observable (see
  :class:`_Probe`);
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

from repro.compiler.driver import TIER_UP_STEPS
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


# -- non-termination proofs ----------------------------------------------------

#: Brent save points a run's probe passes without a proof before it gives up
#: and leaves the run to the plain budget check: at most
#: ``2 ** (_PROBE_ROUNDS + 1) - 1`` probed back-edges past ``TIER_UP_STEPS``.
_PROBE_ROUNDS = 10

#: The bounds of a name missing from the store, which reads as 0.
_ZERO = (0, 0)


class _Refuse(Exception):
    """Internal: the abstract pass cannot bound a loop body (a division, a
    product, an inner loop, or a condition other than a comparison)."""


class _Probe:
    """One run's non-termination check at its loop back-edges.

    Generated code calls it at a back-edge once the step count passes
    :data:`~repro.compiler.driver.TIER_UP_STEPS`, with the loop's site
    index and the store at the loop head; the call returns the step count
    at which the back-edge calls it again.  It raises the budget's
    :class:`_Timeout` when the budget is spent or when it proves that the
    run never leaves the loop:

    (a) Brent's cycle check finds the loop head with a store equal to a
        saved one.  WHILE is closed, structured and deterministic, so a
        repeated (loop head, store) state repeats forever;
    (b) at a Brent save point, the interval box between the saved and the
        current store, left open in the direction each variable moved, makes
        the guard definitely true and holds one abstract pass of the body
        (:func:`_recurrent`): no state the loop can reach leaves it.

    Either proof is exact: a WHILE ``TIMEOUT`` carries empty stdout and the
    constant detail, whenever the budget would have run out.  After
    ``_PROBE_ROUNDS`` save points without a proof it returns the budget, so
    the back-edge falls back to a single comparison.
    """

    __slots__ = ("_loops", "_names", "_ms", "_site", "_saved", "_power", "_lam", "_rounds")

    def __init__(self, loops: Sequence[While], names: dict[int, str], max_steps: int) -> None:
        self._loops = loops
        #: ``id(var)`` -> the name the run reads or writes at that site.
        self._names = names
        self._ms = max_steps
        self._site = -1
        self._saved: dict[str, int] | None = None
        self._power = 1
        self._lam = 0
        self._rounds = 0

    def __call__(self, site: int, store: dict[str, int], steps: int) -> int:
        if steps > self._ms:
            raise _Timeout()
        same_loop = site == self._site
        if same_loop and store == self._saved:
            raise _Timeout()  # (a)
        self._lam += 1
        if self._lam < self._power:
            return steps
        if same_loop and _recurrent(self._loops[site], self._saved, store, self._names):
            raise _Timeout()  # (b)
        if self._rounds == _PROBE_ROUNDS:
            return self._ms
        self._rounds += 1
        self._site, self._saved = site, dict(store)
        self._power *= 2
        self._lam = 0
        return steps


def _recurrent(loop: While, saved: dict[str, int], current: dict[str, int], names) -> bool:
    """Rule (b): whether the box spanned by ``saved`` and ``current`` proves
    that ``loop``, at its head with store ``current``, never exits."""
    box = {}
    for name in saved.keys() | current.keys():
        old, new = saved.get(name, 0), current.get(name, 0)
        box[name] = (old, None) if new > old else (None, old) if new < old else (old, old)
    try:
        return _truth(loop.condition, box, names) is True and _within(
            _post(loop.body, box, names), box
        )
    except _Refuse:
        return False


def _bounds(node: WhileNode, box, names) -> tuple[int | None, int | None]:
    """Bounds of a sum or difference over ``box``; ``None`` is unbounded."""
    if isinstance(node, Num):
        return node.value, node.value
    if isinstance(node, Var):
        return box.get(names[id(node)], _ZERO)
    if isinstance(node, BinaryArith) and node.op in ("+", "-"):
        (a, b), (c, d) = _bounds(node.left, box, names), _bounds(node.right, box, names)
        if node.op == "-":
            c, d = (None if d is None else -d), (None if c is None else -c)
        return (
            None if a is None or c is None else a + c,
            None if b is None or d is None else b + d,
        )
    raise _Refuse()


def _truth(node: WhileNode, box, names) -> bool | None:
    """``True``/``False`` when an ordering comparison is decided over
    ``box``, else ``None``."""
    if not isinstance(node, Compare):
        raise _Refuse()
    (a, b), (c, d) = _bounds(node.left, box, names), _bounds(node.right, box, names)
    if node.op in ("==", "!="):
        return None
    if node.op in (">", ">="):
        (a, b), (c, d) = (c, d), (a, b)
    strict = node.op in ("<", ">")
    # left < right (or <=) at every point of the box, or at none
    if b is not None and c is not None and (b < c if strict else b <= c):
        return True
    if a is not None and d is not None and (a >= d if strict else a > d):
        return False
    return None


def _post(node: WhileNode, box, names):
    """The box after one abstract pass of a loop body statement."""
    if isinstance(node, Skip):
        return box
    if isinstance(node, Assign):
        box = dict(box)
        box[names[id(node.target)]] = _bounds(node.value, box, names)
        return box
    if isinstance(node, Seq):
        for statement in node.statements:
            box = _post(statement, box, names)
        return box
    if isinstance(node, If):
        decided = _truth(node.condition, box, names)
        if decided is not None:
            return _post(node.then_branch if decided else node.else_branch, box, names)
        then_box = _post(node.then_branch, box, names)
        else_box = _post(node.else_branch, box, names)
        joined = {}
        for name in then_box.keys() | else_box.keys():
            (a, b), (c, d) = then_box.get(name, _ZERO), else_box.get(name, _ZERO)
            joined[name] = (
                None if a is None or c is None else min(a, c),
                None if b is None or d is None else max(b, d),
            )
        return joined
    raise _Refuse()  # an inner loop


def _within(inner, outer) -> bool:
    for name in inner.keys() | outer.keys():
        (a, b), (c, d) = inner.get(name, _ZERO), outer.get(name, _ZERO)
        if c is not None and (a is None or a < c):
            return False
        if d is not None and (b is None or b > d):
            return False
    return True


class _Emitter:
    """Translates one skeleton program into the body of a Python function.

    ``hole_of`` maps ``id(var_node)`` to the hole index; every ``Var``
    occurrence is a hole in WHILE, so a site reads/writes ``_s[N[k]]`` where
    ``N`` is the vector's name tuple.  A ``hole_of`` of ``None`` selects
    *concrete* mode: the program has no holes to parameterise, so every
    name is embedded as a string literal (the vector argument is ignored)
    -- used to compile the optimizer's *output* for oracle-side execution.

    Every loop back-edge checks the step count against ``_lim``, which is
    the budget capped at ``TIER_UP_STEPS``; past it the back-edge calls the
    run's :class:`_Probe` with its loop's site index.
    """

    def __init__(self, hole_of: dict[int, int] | None) -> None:
        self._hole_of = hole_of
        self._lines: list[str] = []
        self._indent = 1
        self._pending = 0
        #: The ``While`` nodes by site index, in the order their back-edges
        #: were emitted.
        self._loops: list[While] = []

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

    def _backedge(self, loop: While) -> None:
        """Materialise the iteration's ticks; past ``_lim`` the run's probe
        checks the budget and looks for a proof that the loop never exits."""
        self._spill()
        self._emit("if s > _lim:")
        self._emit("    if _pb is None: _pb = _PB(N, _ms)")
        self._emit(f"    _lim = _pb({len(self._loops)}, _s, s)")
        self._loops.append(loop)

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
            self._backedge(node)
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
        self._emit("_lim = _ms if _ms < _TU else _TU")
        self._emit("_pb = None")
        self._stmt(program)
        self._flush()  # a straight-line overrun must still time out
        self._emit("return _s")
        body = "\n".join(self._lines)
        return f"def _skeleton_main(N, _ms):\n{body}\n"

    def probe_factory(self):
        """``_PB(N, max_steps)``: a fresh :class:`_Probe` for one run, naming
        each loop variable as the run does -- through the vector in skeleton
        mode, because the binder rebinds the shared AST in place."""
        loops = tuple(self._loops)
        sites = {id(var): var for loop in loops for var in loop.walk() if isinstance(var, Var)}
        if self._hole_of is None:
            names = {key: var.name for key, var in sites.items()}
            return lambda N, max_steps: _Probe(loops, names, max_steps)
        holes = [(key, self._hole_of[key]) for key in sites]
        return lambda N, max_steps: _Probe(
            loops, {key: N[index] for key, index in holes}, max_steps
        )


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


def _compile_runner(source: str, filename: str, probe_factory) -> WhileSkeletonRunner | None:
    namespace = {
        "_TO": _Timeout,
        "_TU": TIER_UP_STEPS,
        "_PB": probe_factory,
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
    emitter = _Emitter({id(node): index for index, node in enumerate(identifiers)})
    try:
        source = emitter.translate(program)
        probe_factory = emitter.probe_factory()
    except (_Bail, KeyError):
        return None
    return _compile_runner(source, "<while-skeleton>", probe_factory)


def compile_program_runner(program: WhileNode) -> WhileSkeletonRunner | None:
    """Translate one concrete (hole-free) program; names become literals.

    This is the oracle-side twin of :func:`compile_skeleton_runner`, under
    the same exactness contract with the interpreter.
    :meth:`repro.compiler.driver.CompileDriver.run` calls it, through
    ``WhileCompiler._generated``, only for an optimized program whose run
    outlived :data:`~repro.compiler.driver.TIER_UP_STEPS` on the
    interpreter.  Call
    ``run(())`` -- the vector argument is ignored.  ``None`` when the
    program is outside the subset or nests too deep for CPython.
    """
    emitter = _Emitter(None)
    try:
        source = emitter.translate(program)
    except _Bail:
        return None
    return _compile_runner(source, "<while-program>", emitter.probe_factory())


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
