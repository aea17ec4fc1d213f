"""Generated-code tier for optimized IR modules, entered by tier-up.

The closure VM (:mod:`repro.compiler.vm`) pays a Python call per executed
instruction.  That is the right cost for the runs a campaign makes -- on the
seed corpora every VM run either stops within 75 steps or exhausts the
whole step budget -- but the budget-exhausting runs (miscompiled loops such
as ``if.end: %t5 = &@y; jump if.end``) spend 500,000 steps each in that
loop.  Translating a module to Python and compiling it costs ~570 us, an
order of magnitude more than a whole short run, so translation is not done
up front: ``CompileDriver.run`` runs the closure VM with its budget capped at
``driver.TIER_UP_STEPS`` and only a run that reaches the cap is restarted
from scratch here, at the full budget.  The restart is exact because the VM
is deterministic and its only output is the buffered result.

Each IR function becomes one Python function ``f<k>(A, D)`` (arguments,
call depth), nested in a per-run ``_setup(MS)`` that allocates the globals
and holds the shared state as closure cells: the step counter ``S``, the
next block id ``NB``, the block table ``B`` and the stdout buffer ``O``.
Temps are locals ``t<k>`` (all 0 on entry), scalar slots are their cell
lists ``c<k>``/``g<k>``, blocks run from a ``while True`` dispatch over
block indices (a binary ``if`` tree), and IR calls are direct calls.
Pointer arithmetic, the uncommon operators, memory checks and ``printf``
formatting call the VM's own helpers.

Exactness contract -- :meth:`GeneratedModule.run` returns an
``ExecutionResult`` equal to ``VirtualMachine.run`` for every module, entry
and budget:

* **Block ids** are allocated in the VM's order (globals, then each call's
  slots in declaration order); pointer-to-int conversion, pointer equality
  and trap details expose them.
* **Ticks.** One per instruction, TIMEOUT exactly when the
  (max_steps+1)-th instruction would run.  Ticks over instructions that
  cannot trap, print, call or exit are batched in a translation-time
  ``pending`` count and flushed (``s += k`` plus the budget check) before
  every call, print, exit and terminator; an instruction that can trap
  checks ``s + pending`` against the budget before its trapping path.  The
  local counter ``s`` is synced with ``S`` around calls, since callees
  share it.  This is the flush rule of :mod:`repro.minic.codegen` and
  :mod:`repro.lang.codegen`.
* **Traps** are raised only when reached, in the VM's order and with its
  detail strings: ``Store``/``StoreElem`` check their target before reading
  the source, unknown variables, blocks and functions trap only if
  executed, and a block the VM's translator rejects raises the same error
  on entry (it is translated by the VM's translator first).  Stdout at
  TIMEOUT and ERROR is whatever was printed so far.
* **Values.** Unassigned temps read as 0.  Fast paths apply only when
  ``type(x) is int``; everything else goes through the helpers.  The call
  depth limit traps identically.
* **Program text** (names, labels, ``printf`` formats, constants that are
  not plain ints) enters the generated source only through ``repr`` or the
  exec namespace; identifiers are all index-derived.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.compiler.ir import (
    AddrOf,
    BinOp,
    CJump,
    Call,
    Const,
    Copy,
    IRFunction,
    IRModule,
    Jump,
    Load,
    LoadElem,
    LoadPtr,
    Return,
    Store,
    StoreElem,
    StorePtr,
    Temp,
    UnOp,
    VarRef,
)
from repro.compiler.vm import (
    _COMPARISONS,
    VirtualMachine,
    VMPointer,
    VMTrap,
    _as_int,
    _binop_values,
    _cell,
    _Exit,
    _format_printf,
    _initial_cells,
    _int_type_of,
    _run_entry,
    _StepLimit,
    _translate_instr,
    _truthy,
    _unop_value,
    _wrapped,
)
from repro.minic.ctypes import IntType
from repro.minic.interp import ExecutionResult, ExecutionStatus


class GeneratedModule:
    """An IR module translated to Python; ``run`` mirrors ``VirtualMachine.run``.

    Construction translates and compiles the module: the tier's entry.
    """

    def __init__(self, module: IRModule) -> None:
        emitter = _ModuleEmitter(module)
        #: The generated Python source, kept for inspection.
        self.source = emitter.source()
        namespace = emitter.namespace
        exec(compile(self.source, "<ir-codegen>", "exec"), namespace)
        self._setup = namespace["_setup"]
        self._entries = {name: index for index, name in enumerate(module.functions)}

    def run(self, entry: str = "main", max_steps: int = 500_000) -> ExecutionResult:
        # Globals are allocated (and may trap) before the entry is looked up.
        functions, stdout = self._setup(max_steps)
        index = self._entries.get(entry)
        if index is None:
            return ExecutionResult(ExecutionStatus.ERROR, detail=f"no function named {entry!r}")
        function = functions[index]
        return _run_entry(lambda: function([], 0), stdout)


def _unknown_variable(name: str):
    raise VMTrap(f"unknown variable {name!r}")


def _reraise(error: BaseException):
    raise error.with_traceback(None)


class _Read(NamedTuple):
    """One operand read in generated source.

    ``kind`` is ``"int"`` (a plain ``int`` literal, whose value is
    ``literal``), ``"any"`` (a side-effect-free local or constant of unknown
    type), ``"cell"`` (a scalar slot read, bound to a scratch local before a
    guard reads it twice) or ``"trap"`` (raises the VM's trap when evaluated).
    """

    source: str
    kind: str
    literal: int | None = None


def _offset(base: str, index: int) -> str:
    return f"{base} + {index}" if index else base


def _int_read(value: int) -> _Read:
    return _Read(repr(value) if value >= 0 else f"({value!r})", "int", value)


_UNARY_FAST = ("-", "~", "!", "cast")


class _ModuleEmitter:
    """Builds the ``_setup`` source and its exec namespace for one module."""

    def __init__(self, module: IRModule) -> None:
        self.module = module
        self.namespace: dict = {
            "_P": VMPointer,
            "_Trap": VMTrap,
            "_TO": _StepLimit,
            "_Exit": _Exit,
            "_cell": _cell,
            "_as_int": _as_int,
            "_wrapped": _wrapped,
            "_truthy": _truthy,
            "_bin": _binop_values,
            "_un": _unop_value,
            "_fmt": _format_printf,
            "_unk": _unknown_variable,
            "_reraise": _reraise,
            "_init": _initial_cells,
            "_G": tuple(module.globals.values()),
        }
        self._constants: dict[int, str] = {}
        self.global_index = {name: index for index, name in enumerate(module.globals)}
        self.function_index = {name: index for index, name in enumerate(module.functions)}
        #: Globals whose VMPointer some function uses (``q<k>``).
        self.global_pointers: set[int] = set()

    def constant(self, value) -> str:
        """A namespace name bound to ``value`` (int types, odd constants, errors)."""
        name = self._constants.get(id(value))
        if name is None:
            name = self._constants[id(value)] = f"_K{len(self._constants)}"
            self.namespace[name] = value
        return name

    def source(self) -> str:
        functions = [
            _FunctionEmitter(self, function).emit_function(index)
            for index, function in enumerate(self.module.functions.values())
        ]
        lines = ["def _setup(MS):", "    S = 0", "    B = {}", "    O = []"]
        for index in range(len(self.module.globals)):
            lines.append(f"    g{index} = B[{index}] = _init({index}, _G[{index}])")
        for index in sorted(self.global_pointers):
            lines.append(f"    q{index} = _P({index}, 0)")
        lines.append(f"    NB = {len(self.module.globals)}")
        for function_lines in functions:
            lines.extend("    " + line for line in function_lines)
        names = "".join(f"f{index}, " for index in range(len(functions)))
        lines.append(f"    return ({names}), O")
        return "\n".join(lines) + "\n"


class _FunctionEmitter:
    """Translates one IR function to the lines of ``def f<k>(A, D)``."""

    def __init__(self, program: _ModuleEmitter, function: IRFunction) -> None:
        self.program = program
        self.function = function
        self.local_index = {name: index for index, name in enumerate(function.slots)}
        self.block_index = {label: index for index, label in enumerate(function.blocks)}
        self.temps: dict[str, str] = {}
        #: Local slots whose VMPointer the body uses (``p<k>``).
        self.pointers: set[int] = set()
        self.lines: list[str] = []
        #: Ticks of this block's instructions not yet added to ``s``.
        self.pending = 0

    # -- emission primitives ------------------------------------------------------

    def emit(self, *lines: str, indent: int = 0) -> None:
        self.lines.extend("    " * indent + line for line in lines)

    def flush(self) -> None:
        """Add the pending ticks to ``s`` and check the budget."""
        if self.pending:
            self.emit(f"s += {self.pending}", "if s > MS: raise _TO()")
            self.pending = 0

    def check(self) -> str:
        """The budget check before a trapping path, pending ticks included."""
        return f"if s + {self.pending} > MS: raise _TO()"

    def guarded(self, guard: str, fast: list[str], slow: list[str]) -> None:
        """``fast`` under ``guard``; otherwise the budget check, then ``slow``."""
        if not guard:
            self.emit(*fast)
            return
        self.emit(f"if {guard}:")
        self.emit(*fast, indent=1)
        self.emit("else:", "    " + self.check())
        self.emit(*slow, indent=1)

    def checked(self, reads: tuple[_Read, ...]) -> None:
        """Precede an instruction that can trap: flush if an operand read
        certainly traps, else check the budget and keep the ticks pending."""
        if any(read.kind == "trap" for read in reads):
            self.flush()
        else:
            self.emit(self.check())

    def type_name(self, int_type: IntType) -> str:
        return self.program.constant(int_type)

    @staticmethod
    def wrap(int_type: IntType, expr: str) -> str:
        """Source of ``int_type.wrap(expr)`` for a plain ``int`` expression."""
        mask = (1 << int_type.bits) - 1
        if int_type.signed:
            half = 1 << (int_type.bits - 1)
            return f"(({expr}) + {half} & {mask}) - {half}"
        return f"({expr}) & {mask}"

    def wrapped(self, int_type: IntType, read: _Read) -> str:
        """Source of ``_wrapped(read, int_type)`` for a non-trapping read."""
        if read.literal is not None:
            return _int_read(int_type.wrap(read.literal)).source
        x = read.source
        return f"{self.wrap(int_type, x)} if type({x}) is int else _wrapped({x}, {self.type_name(int_type)})"

    # -- operands -------------------------------------------------------------------

    def temp(self, name: str) -> str:
        local = self.temps.get(name)
        if local is None:
            local = self.temps[name] = f"t{len(self.temps)}"
        return local

    def slot(self, name: str) -> tuple[str, int] | None:
        """(cells local, size) of a variable, local slots before globals."""
        index = self.local_index.get(name)
        if index is not None:
            return f"c{index}", self.function.slots[name].size
        index = self.program.global_index.get(name)
        if index is not None:
            return f"g{index}", self.program.module.globals[name].size
        return None

    def pointer(self, name: str) -> str:
        """The VMPointer local of a known variable, marked as used."""
        index = self.local_index.get(name)
        if index is not None:
            self.pointers.add(index)
            return f"p{index}"
        index = self.program.global_index[name]
        self.program.global_pointers.add(index)
        return f"q{index}"

    def operand(self, operand) -> _Read:
        cls = operand.__class__
        if cls is Temp:
            return _Read(self.temp(operand.name), "any")
        if cls is Const:
            if type(operand.value) is int:
                return _int_read(operand.value)
            return _Read(self.program.constant(operand.value), "any")
        return self.scalar_read(operand.name)

    def scalar_read(self, name: str) -> _Read:
        """A scalar slot read: unknown variables and empty slots trap."""
        slot = self.slot(name)
        if slot is None:
            return _Read(f"_unk({name!r})", "trap")
        cells, size = slot
        if size < 1:
            return _Read(f"_cell(B, {self.pointer(name)})", "trap")
        return _Read(f"{cells}[0]", "cell")

    def bind(self, read: _Read, scratch: str) -> _Read:
        """Bind a cell read to ``scratch`` so a guard and its use read it once."""
        if read.kind != "cell":
            return read
        self.emit(f"{scratch} = {read.source}")
        return _Read(scratch, "any")

    @staticmethod
    def guard(*reads: _Read) -> str:
        return " and ".join(f"type({read.source}) is int" for read in reads if read.kind != "int")

    # -- instructions ------------------------------------------------------------------

    def copy(self, instr: Copy) -> None:
        src = self.operand(instr.src)
        if src.kind == "trap":
            self.flush()
        self.emit(f"{self.temp(instr.dest.name)} = {src.source}")

    def binop(self, instr: BinOp) -> None:
        op = instr.op
        int_type = _int_type_of(instr.ctype)
        left = self.operand(instr.left)
        right = self.operand(instr.right)
        if left.kind == "trap" or right.kind == "trap" or (op not in _COMPARISONS and op not in ("+", "-", "*")):
            # Through the VM's helper: division, shifts, bitwise, ptradd,
            # unknown operators, and operand reads that trap.
            self.checked((left, right))
            dest = self.temp(instr.dest.name)
            self.emit(f"{dest} = _bin({op!r}, {self.type_name(int_type)}, {left.source}, {right.source})")
            return
        left = self.bind(left, "_a")
        right = self.bind(right, "_b")
        dest = self.temp(instr.dest.name)
        if op in _COMPARISONS:
            fast = f"{dest} = 1 if {left.source} {op} {right.source} else 0"
        else:
            fast = f"{dest} = {self.wrap(int_type, f'{left.source} {op} {right.source}')}"
        slow = f"{dest} = _bin({op!r}, {self.type_name(int_type)}, {left.source}, {right.source})"
        self.guarded(self.guard(left, right), [fast], [slow])

    def unop(self, instr: UnOp) -> None:
        op = instr.op
        int_type = _int_type_of(instr.ctype)
        value = self.operand(instr.operand)
        if value.kind == "trap" or op not in _UNARY_FAST:
            self.checked((value,))
            dest = self.temp(instr.dest.name)
            self.emit(f"{dest} = _un({op!r}, {self.type_name(int_type)}, {value.source})")
            return
        value = self.bind(value, "_a")
        dest = self.temp(instr.dest.name)
        x = value.source
        if op == "!":
            fast = f"{dest} = 1 if {x} == 0 else 0"
        elif op == "cast":
            fast = f"{dest} = {self.wrap(int_type, x)}"
        else:
            fast = f"{dest} = {self.wrap(int_type, op + x)}"
        slow = f"{dest} = _un({op!r}, {self.type_name(int_type)}, {x})"
        self.guarded(self.guard(value), [fast], [slow])

    def load(self, instr: Load) -> None:
        src = self.scalar_read(instr.var.name)
        if src.kind == "trap":
            self.flush()
        self.emit(f"{self.temp(instr.dest.name)} = {src.source}")

    def store(self, instr: Store) -> None:
        int_type = _int_type_of(instr.ctype)
        target = self.scalar_read(instr.var.name)
        if target.kind == "trap":
            # The target is checked before the source is read.
            self.flush()
            self.emit(target.source)
            return
        src = self.operand(instr.src)
        if src.kind == "trap":
            self.flush()
            self.emit(f"{target.source} = {src.source}")
            return
        src = self.bind(src, "_v")
        self.emit(f"{target.source} = {self.wrapped(int_type, src)}")

    def addr_of(self, instr: AddrOf) -> None:
        name = instr.var.name
        if self.slot(name) is None:
            self.flush()
            self.emit(f"{self.temp(instr.dest.name)} = _unk({name!r})")
            return
        self.emit(f"{self.temp(instr.dest.name)} = {self.pointer(name)}")

    def element(self, base, index: _Read) -> tuple[list[str], str, int | None]:
        """Element addressing like the VM's: (lines leaving ``_c``/``_o``
        bound, the slot's cells local, its size) -- no cells for a non-slot base."""
        if base.__class__ is VarRef:
            slot = self.slot(base.name)
            pointer = self.pointer(base.name)
            address = f"_P({pointer}.block_id, {pointer}.offset + _as_int({index.source}))"
            return [f"_c, _o = _cell(B, {address})"], slot[0], slot[1]
        read = self.operand(base)
        return [
            f"_p = {read.source}",
            "if not isinstance(_p, _P): raise _Trap('indexing a non-pointer value')",
            f"_c, _o = _cell(B, _P(_p.block_id, _p.offset + _as_int({index.source})))",
        ], "", None

    def element_access(self, base, index: _Read, reads: tuple[_Read, ...], fast, slow: str) -> None:
        """Emit an element load or store: ``fast(cells, index)`` for an
        in-range int index into a named slot, else the VM's addressing
        followed by ``slow``."""
        if base.__class__ is VarRef and self.slot(base.name) is None:
            self.flush()
            self.emit(f"_unk({base.name!r})")
            return
        if any(read.kind == "trap" for read in reads):
            lines, _, _ = self.element(base, index)
            self.flush()
            self.emit(*lines, slow)
            return
        index = self.bind(index, "_i")
        lines, cells, size = self.element(base, index)
        general = [*lines, slow]
        if size is None or size < 1:
            self.emit(self.check(), *general)
            return
        access = fast(cells, index.source)
        if index.literal is not None:
            if 0 <= index.literal < size:
                self.emit(access)
            else:
                self.emit(self.check(), *general)
            return
        self.guarded(f"type({index.source}) is int and 0 <= {index.source} < {size}", [access], general)

    def load_elem(self, instr: LoadElem) -> None:
        index = self.operand(instr.index)
        dest = self.temp(instr.dest.name)
        self.element_access(
            instr.base, index, (index,), lambda cells, i: f"{dest} = {cells}[{i}]", f"{dest} = _c[_o]"
        )

    def store_elem(self, instr: StoreElem) -> None:
        int_type = _int_type_of(instr.ctype)
        index = self.operand(instr.index)
        src = self.operand(instr.src)
        if src.kind != "trap":
            src = self.bind(src, "_v")
        store = self.wrapped(int_type, src) if src.kind != "trap" else ""
        self.element_access(
            instr.base,
            index,
            (index, src),
            lambda cells, i: f"{cells}[{i}] = {store}",
            f"_c[_o] = _wrapped({src.source}, {self.type_name(int_type)})",
        )

    def dereference(self, pointer: _Read, reads: tuple[_Read, ...], detail: str) -> None:
        self.checked(reads)
        self.emit(
            f"_p = {pointer.source}",
            f"if not isinstance(_p, _P): raise _Trap({detail!r})",
            "_c, _o = _cell(B, _p)",
        )

    def load_ptr(self, instr: LoadPtr) -> None:
        pointer = self.operand(instr.ptr)
        self.dereference(pointer, (pointer,), "dereference of a non-pointer value")
        self.emit(f"{self.temp(instr.dest.name)} = _c[_o]")

    def store_ptr(self, instr: StorePtr) -> None:
        int_type = _int_type_of(instr.ctype)
        pointer = self.operand(instr.ptr)
        src = self.operand(instr.src)
        self.dereference(pointer, (pointer, src), "store through a non-pointer value")
        self.emit(f"_c[_o] = _wrapped({src.source}, {self.type_name(int_type)})")

    def call(self, instr: Call) -> None:
        args = [self.operand(arg).source for arg in instr.args]
        arg_list = f"[{', '.join(args)}]"
        name = instr.name
        self.flush()
        if name == "printf":
            self.emit(f"O.append(_fmt({(instr.format or '')!r}, {arg_list}))")
            if instr.dest is not None:
                self.emit(f"{self.temp(instr.dest.name)} = {len(args)}")
        elif name in ("abort", "__builtin_abort"):
            if args:
                self.emit(arg_list)
            self.emit("raise _Exit(134)")
        elif name == "exit":
            self.emit(f"_v = {arg_list}", f"raise _Exit({'_as_int(_v[0])' if args else '0'})")
        elif name == "putchar":
            self.emit(f"_v = {arg_list}", f"_i = {'_as_int(_v[0])' if args else '0'}", "O.append(chr(_i & 255))")
            if instr.dest is not None:
                self.emit(f"{self.temp(instr.dest.name)} = _i")
        elif name not in self.program.function_index:
            if args:
                self.emit(arg_list)
            self.emit(f"raise _Trap({f'call of undefined function {name!r}'!r})")
        else:
            call = f"f{self.program.function_index[name]}({arg_list}, D + 1)"
            if instr.dest is not None:
                call = f"{self.temp(instr.dest.name)} = {call}"
            self.emit("S = s", call, "s = S")

    def goto(self, label: str, indent: int = 0) -> None:
        index = self.block_index.get(label)
        if index is None:
            self.emit(f"raise _Trap({f'jump to unknown block {label!r}'!r})", indent=indent)
        else:
            self.emit(f"L = {index}", "continue", indent=indent)

    def jump(self, instr: Jump) -> None:
        self.flush()
        self.goto(instr.target)

    def cjump(self, instr: CJump) -> None:
        self.flush()
        cond = self.operand(instr.cond)
        if cond.kind == "trap":
            self.emit(cond.source)
            return
        if cond.literal is not None:
            self.goto(instr.true_target if cond.literal != 0 else instr.false_target)
            return
        x = self.bind(cond, "_v").source
        self.emit(f"if ({x} if type({x}) is int else _truthy({x})):")
        self.goto(instr.true_target, indent=1)
        self.goto(instr.false_target)

    def ret(self, instr: Return) -> None:
        self.flush()
        value = "0" if instr.value is None else self.operand(instr.value).source
        self.emit("S = s", f"return {value}")

    # -- blocks and functions -----------------------------------------------------------

    def emit_block(self, label: str) -> list[str]:
        """The lines of one block; every path ends in a jump, return or raise."""
        block = self.function.blocks[label]
        try:
            for instr in block.instructions:
                _translate_instr(instr)
        except Exception as error:
            # The VM translates a whole block on entry, before any tick, and
            # fails there with this error.
            return [f"_reraise({self.program.constant(error)})"]
        self.lines = []
        self.pending = 0
        for instr in block.instructions:
            self.pending += 1
            _HANDLERS[instr.__class__](self, instr)
            if instr.__class__ in (Jump, CJump, Return):
                return self.lines
        # Fell off the end of the block: implicit return 0.
        self.flush()
        self.emit("S = s", "return 0")
        return self.lines

    def dispatch(self, blocks: list[list[str]], low: int, high: int, depth: int, out: list[str]) -> None:
        """A binary ``if L < k`` tree selecting block ``L`` of ``blocks[low:high]``."""
        indent = "    " * depth
        if high - low == 1:
            out.extend(indent + line for line in blocks[low])
            return
        middle = (low + high) // 2
        out.append(f"{indent}if L < {middle}:")
        self.dispatch(blocks, low, middle, depth + 1, out)
        out.append(f"{indent}else:")
        self.dispatch(blocks, middle, high, depth + 1, out)

    def emit_function(self, index: int) -> list[str]:
        function = self.function
        blocks = [self.emit_block(label) for label in function.blocks]
        entry = self.block_index.get(function.entry)
        if entry is None:
            body = [f"raise _Trap({f'jump to unknown block {function.entry!r}'!r})"]
        else:
            body = ["s = S", f"L = {entry}", "while True:"]
            self.dispatch(blocks, 0, len(blocks), 1, body)
        lines = [f"def f{index}(A, D):", "    nonlocal S, NB"]
        lines.extend("    " + line for line in self.prologue() + body)
        return lines

    def prologue(self) -> list[str]:
        """Depth check, slot allocation in declaration order, parameter binding."""
        function = self.function
        # Parameters bind like zip(params, args); a parameter without a
        # slot raises the VM's KeyError, an empty slot its memory trap.
        binding = []
        for position, name in enumerate(function.params):
            binding.append(f"if len(A) > {position}:")
            index = self.local_index.get(name)
            if index is None:
                binding.append(f"    raise KeyError({name!r})")
            elif function.slots[name].size < 1:
                self.pointers.add(index)
                binding.append(f"    _cell(B, p{index})")
            else:
                binding.append(f"    _v = A[{position}]")
                binding.append(f"    c{index}[0] = 0 if _v is None else _v")
        lines = [f"if D > {VirtualMachine.max_call_depth}: raise _Trap('call depth limit exceeded')"]
        if function.slots:
            lines.append("n = NB")
            lines.append(f"NB = n + {len(function.slots)}")
        for index, slot in enumerate(function.slots.values()):
            lines.append(f"c{index} = B[{_offset('n', index)}] = [0] * {slot.size!r}")
        lines.extend(f"p{index} = _P({_offset('n', index)}, 0)" for index in sorted(self.pointers))
        if self.temps:
            lines.append(" = ".join(self.temps.values()) + " = 0")
        return lines + binding


_HANDLERS = {
    Copy: _FunctionEmitter.copy,
    BinOp: _FunctionEmitter.binop,
    UnOp: _FunctionEmitter.unop,
    Load: _FunctionEmitter.load,
    Store: _FunctionEmitter.store,
    AddrOf: _FunctionEmitter.addr_of,
    LoadElem: _FunctionEmitter.load_elem,
    StoreElem: _FunctionEmitter.store_elem,
    LoadPtr: _FunctionEmitter.load_ptr,
    StorePtr: _FunctionEmitter.store_ptr,
    Call: _FunctionEmitter.call,
    Jump: _FunctionEmitter.jump,
    CJump: _FunctionEmitter.cjump,
    Return: _FunctionEmitter.ret,
}


__all__ = ["GeneratedModule"]
