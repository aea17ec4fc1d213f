"""The IR virtual machine: "executes the binary" the compiler produced.

The VM provides the second half of differential testing: the reference
interpreter runs the source, the VM runs the optimized IR, and for UB-free
programs the two observable behaviours (stdout, exit code) must agree.  The
VM itself is intentionally forgiving about undefined behaviour (it wraps
arithmetic, reads of uninitialized cells yield 0, out-of-range accesses trap
as runtime errors) -- just like running a real miscompiled binary.

Execution translates each basic block to closures on first entry: every
instruction becomes one closure with its operand accessors, destination
name, operator and integer type resolved at translation time, so the hot
loop is "tick, call closure" with no per-step dispatch or attribute
traversal.  A closure returns ``None`` to fall through, a label string to
jump, or a ``("return", value)`` pair.

This closure VM is the executable specification of IR semantics and the
tier every run starts in.  ``CompileDriver.run`` caps its budget at a tier-up
threshold and restarts only the runs that reach it in generated Python
(:mod:`repro.compiler.codegen`); the semantics both tiers share (memory
cells and their checks, pointer arithmetic, the operators the generated
code does not inline, ``printf`` formatting, the result protocol) live
once, in the module-level helpers below the VM class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    Operand,
    Return,
    Store,
    StoreElem,
    StorePtr,
    Temp,
    UnOp,
    VariableSlot,
    VarRef,
)
from repro.minic.ctypes import INT, IntType
from repro.minic.interp import ExecutionResult, ExecutionStatus


@dataclass(frozen=True, slots=True)
class VMPointer:
    """A pointer value inside the VM: a memory cell array plus an offset."""

    block_id: int
    offset: int

    @property
    def is_null(self) -> bool:
        return self.block_id < 0


class VMTrap(Exception):
    """Raised when the produced code performs an operation the VM cannot honour."""


class _Exit(Exception):
    def __init__(self, code: int) -> None:
        self.code = code


class _StepLimit(Exception):
    pass


@dataclass
class VirtualMachine:
    """Execute an :class:`~repro.compiler.ir.IRModule` starting from ``main``."""

    module: IRModule
    max_steps: int = 500_000
    max_call_depth: int = 200
    # Block id -> cell list.  Blocks are never freed, so a pointer into a
    # returned call's frame stays dereferenceable (a dangling read, like a
    # miscompiled binary's).
    _blocks: dict[int, list] = field(default_factory=dict, init=False)
    _next_block: int = field(default=0, init=False)
    _globals: dict[str, VMPointer] = field(default_factory=dict, init=False)
    _stdout: list[str] = field(default_factory=list, init=False)
    _steps: int = field(default=0, init=False)
    # Per-function, per-label lists of instruction closures, translated on
    # first entry into a block (see _call and _translate_instr).
    _prepared: dict[int, dict[str, list]] = field(default_factory=dict, init=False)

    # -- memory -----------------------------------------------------------------

    def _alloc(self, cells: list) -> VMPointer:
        block_id = self._next_block
        self._blocks[block_id] = cells
        self._next_block = block_id + 1
        return VMPointer(block_id, 0)

    # -- execution ------------------------------------------------------------------

    def run(self, entry: str = "main") -> ExecutionResult:
        """Execute the module and return an observable-behaviour result."""
        for name, slot in self.module.globals.items():
            self._globals[name] = self._alloc(_initial_cells(self._next_block, slot))
        function = self.module.functions.get(entry)
        if function is None:
            return ExecutionResult(ExecutionStatus.ERROR, detail=f"no function named {entry!r}")
        return _run_entry(lambda: self._call(function, [], depth=0), self._stdout)

    @property
    def stdout(self) -> str:
        return "".join(self._stdout)

    def _call(self, function: IRFunction, args: list, depth: int):
        if depth > self.max_call_depth:
            raise VMTrap("call depth limit exceeded")
        slots: dict[str, VMPointer] = {}
        for name, slot in function.slots.items():
            slots[name] = self._alloc([0] * slot.size)
        for name, value in zip(function.params, args):
            cells, offset = _cell(self._blocks, slots[name])
            cells[offset] = 0 if value is None else value

        temps: dict[str, object] = {}
        label = function.entry
        prepared_blocks = self._prepared.get(id(function))
        if prepared_blocks is None:
            prepared_blocks = self._prepared[id(function)] = {}
        max_steps = self.max_steps
        while True:
            prepared = prepared_blocks.get(label)
            if prepared is None:
                block = function.blocks.get(label)
                if block is None:
                    raise VMTrap(f"jump to unknown block {label!r}")
                prepared = prepared_blocks[label] = [
                    _translate_instr(instr) for instr in block.instructions
                ]
            next_label: str | None = None
            for thunk in prepared:
                # _tick() inlined: the hottest loop of the produced-code path.
                self._steps += 1
                if self._steps > max_steps:
                    raise _StepLimit()
                outcome = thunk(self, slots, temps, depth)
                if outcome is None:
                    continue
                if outcome.__class__ is str:
                    next_label = outcome
                    break
                return outcome[1]
            if next_label is None:
                # Fell off the end of a block without a terminator: implicit return 0.
                return 0
            label = next_label

    # -- helpers ------------------------------------------------------------------------

    def _call_named(self, name: str, args: list, depth: int):
        callee = self.module.functions.get(name)
        if callee is None:
            raise VMTrap(f"call of undefined function {name!r}")
        return self._call(callee, args, depth + 1)

    def _slot_pointer(self, name: str, slots) -> VMPointer:
        pointer = slots.get(name) or self._globals.get(name)
        if pointer is None:
            raise VMTrap(f"unknown variable {name!r}")
        return pointer


# -- semantics shared with the generated tier (repro.compiler.codegen) --------------
# Memory, pointer arithmetic, the uncommon operators, printf formatting and
# the result protocol have one implementation, called by the closures below
# and by generated code alike.  Cells never hold ``None``: the two writes that
# could store one (global initializers, parameter binding) store 0, the value
# a ``None`` cell reads as, so no read checks for it.


def _initial_cells(block_id: int, slot: VariableSlot) -> list:
    """The cell list of a global slot, allocated as block ``block_id``."""
    cells = [0] * slot.size
    if not cells:
        # Initialisation writes from offset 0, so an empty global traps
        # before the entry function is looked up.
        raise VMTrap(f"invalid memory access at {VMPointer(block_id, 0)}")
    if slot.initial is not None:
        for index, value in enumerate(slot.initial[: slot.size]):
            cells[index] = 0 if value is None else value
    return cells


def _run_entry(call, stdout: list[str]) -> ExecutionResult:
    """Run ``call`` (the entry function) and map its outcome to a result."""
    try:
        value = call()
    except _Exit as stop:
        return ExecutionResult(ExecutionStatus.OK, exit_code=stop.code & 0xFF, stdout="".join(stdout))
    except VMTrap as trap:
        return ExecutionResult(ExecutionStatus.ERROR, stdout="".join(stdout), detail=str(trap))
    except _StepLimit:
        return ExecutionResult(ExecutionStatus.TIMEOUT, stdout="".join(stdout), detail="step budget exhausted")
    exit_code = int(value) & 0xFF if isinstance(value, int) else 0
    return ExecutionResult(ExecutionStatus.OK, exit_code=exit_code, stdout="".join(stdout))


def _cell(blocks: dict[int, list], pointer: VMPointer) -> tuple[list, int]:
    cells = blocks.get(pointer.block_id)
    if cells is None or not (0 <= pointer.offset < len(cells)):
        raise VMTrap(f"invalid memory access at {pointer}")
    return cells, pointer.offset


def _as_int(value) -> int:
    if isinstance(value, VMPointer):
        # Pointer-to-integer conversions happen only in already-UB programs.
        return value.block_id * 4096 + value.offset
    return int(value)


def _wrapped(value, int_type: IntType):
    if isinstance(value, VMPointer):
        return value
    return int_type.wrap(int(value))


def _truthy(value) -> bool:
    """Branch condition of a non-``int`` value."""
    if isinstance(value, VMPointer):
        return not value.is_null
    return _as_int(value) != 0


def _binop_values(op: str, int_type: IntType, left, right):
    """Evaluate one binary operation on already-fetched operands."""
    if op == "ptradd":
        if isinstance(left, VMPointer):
            return VMPointer(left.block_id, left.offset + _as_int(right))
        raise VMTrap("ptradd on a non-pointer")
    if isinstance(left, VMPointer) or isinstance(right, VMPointer):
        return _pointer_binop(op, left, right)
    left = int(left)
    right = int(right)
    compare = _COMPARISONS.get(op)
    if compare is not None:
        return int(compare(left, right))
    if op in ("/", "%"):
        if right == 0:
            raise VMTrap("division by zero")
        quotient = abs(left) // abs(right)
        if (left < 0) != (right < 0):
            quotient = -quotient
        remainder = left - quotient * right
        return int_type.wrap(quotient if op == "/" else remainder)
    if op in ("<<", ">>"):
        shift = right % max(1, int_type.bits)
        return int_type.wrap(left << shift if op == "<<" else left >> shift)
    if op in ("&", "|", "^"):
        mask = (1 << int_type.bits) - 1
        unsigned = {
            "&": (left & mask) & (right & mask),
            "|": (left & mask) | (right & mask),
            "^": (left & mask) ^ (right & mask),
        }[op]
        return int_type.wrap(unsigned)
    result = {"+": left + right, "-": left - right, "*": left * right}.get(op)
    if result is None:
        raise VMTrap(f"unknown binary operator {op!r}")
    return int_type.wrap(result)


def _pointer_binop(op: str, left, right):
    if op in ("==", "!="):
        if isinstance(left, int) and left == 0:
            left = VMPointer(-1, 0)
        if isinstance(right, int) and right == 0:
            right = VMPointer(-1, 0)
        equal = left == right
        return int(equal) if op == "==" else int(not equal)
    if op == "+" and isinstance(left, VMPointer):
        return VMPointer(left.block_id, left.offset + _as_int(right))
    if op == "+" and isinstance(right, VMPointer):
        return VMPointer(right.block_id, right.offset + _as_int(left))
    if op == "-" and isinstance(left, VMPointer) and isinstance(right, VMPointer):
        return left.offset - right.offset
    if op == "-" and isinstance(left, VMPointer):
        return VMPointer(left.block_id, left.offset - _as_int(right))
    if op in ("<", "<=", ">", ">=") and isinstance(left, VMPointer) and isinstance(right, VMPointer):
        return int(_COMPARISONS[op](left.offset, right.offset))
    raise VMTrap(f"unsupported pointer operation {op!r}")


def _unop_value(op: str, int_type: IntType, value):
    if isinstance(value, VMPointer):
        if op == "!":
            return int(value.is_null)
        raise VMTrap(f"unary {op!r} on a pointer")
    value = int(value)
    if op == "-":
        return int_type.wrap(-value)
    if op == "~":
        return int_type.wrap(~value)
    if op == "!":
        return int(value == 0)
    if op == "cast":
        return int_type.wrap(value)
    raise VMTrap(f"unknown unary operator {op!r}")


_COMPARISONS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


# -- instruction translation -------------------------------------------------------
# Each maker folds the instruction's fields into a closure taking
# (vm, slots, temps, depth).  Operand reads go through operand thunks that
# are themselves specialised per operand class at translation time.


def _operand_thunk(operand: Operand):
    cls = operand.__class__
    if cls is Temp:
        name = operand.name

        def read_temp(vm, slots, temps):
            return temps.get(name, 0)

        return read_temp
    if cls is Const:
        value = operand.value

        def read_const(vm, slots, temps):
            return value

        return read_const
    if cls is VarRef:
        name = operand.name

        def read_var(vm, slots, temps):
            pointer = slots.get(name) or vm._globals.get(name)
            if pointer is None:
                raise VMTrap(f"unknown variable {name!r}")
            cells, offset = _cell(vm._blocks, pointer)
            return cells[offset]

        return read_var
    raise VMTrap(f"unknown operand {operand!r}")


def _base_thunk(operand: Operand):
    """Element-access base: a named array slot decays to its address."""
    if operand.__class__ is VarRef:
        name = operand.name

        def read_slot(vm, slots, temps):
            return vm._slot_pointer(name, slots)

        return read_slot
    return _operand_thunk(operand)


def _int_type_of(ctype) -> IntType:
    return ctype if isinstance(ctype, IntType) else INT


def _vmc_copy(instr: Copy):
    dest = instr.dest.name
    src = _operand_thunk(instr.src)

    def run(vm, slots, temps, depth):
        temps[dest] = src(vm, slots, temps)

    return run


def _vmc_binop(instr: BinOp):
    dest = instr.dest.name
    op = instr.op
    int_type = _int_type_of(instr.ctype)
    left_thunk = _operand_thunk(instr.left)
    right_thunk = _operand_thunk(instr.right)
    compare = _COMPARISONS.get(op) if op != "ptradd" else None
    if compare is not None:

        def run_cmp(vm, slots, temps, depth):
            left = left_thunk(vm, slots, temps)
            right = right_thunk(vm, slots, temps)
            if type(left) is int and type(right) is int:
                temps[dest] = 1 if compare(left, right) else 0
            else:
                temps[dest] = _binop_values(op, int_type, left, right)

        return run_cmp
    if op in ("+", "-", "*"):
        arith = {"+": int.__add__, "-": int.__sub__, "*": int.__mul__}[op]

        def run_arith(vm, slots, temps, depth):
            left = left_thunk(vm, slots, temps)
            right = right_thunk(vm, slots, temps)
            if type(left) is int and type(right) is int:
                temps[dest] = int_type.wrap(arith(left, right))
            else:
                temps[dest] = _binop_values(op, int_type, left, right)

        return run_arith

    def run(vm, slots, temps, depth):
        temps[dest] = _binop_values(
            op, int_type, left_thunk(vm, slots, temps), right_thunk(vm, slots, temps)
        )

    return run


def _vmc_unop(instr: UnOp):
    dest = instr.dest.name
    op = instr.op
    int_type = _int_type_of(instr.ctype)
    operand_thunk = _operand_thunk(instr.operand)

    def run(vm, slots, temps, depth):
        temps[dest] = _unop_value(op, int_type, operand_thunk(vm, slots, temps))

    return run


def _vmc_load(instr: Load):
    dest = instr.dest.name
    var = instr.var.name

    def run(vm, slots, temps, depth):
        pointer = slots.get(var) or vm._globals.get(var)
        if pointer is None:
            raise VMTrap(f"unknown variable {var!r}")
        cells, offset = _cell(vm._blocks, pointer)
        temps[dest] = cells[offset]

    return run


def _vmc_store(instr: Store):
    var = instr.var.name
    src = _operand_thunk(instr.src)
    int_type = _int_type_of(instr.ctype)

    def run(vm, slots, temps, depth):
        pointer = slots.get(var) or vm._globals.get(var)
        if pointer is None:
            raise VMTrap(f"unknown variable {var!r}")
        cells, offset = _cell(vm._blocks, pointer)
        value = src(vm, slots, temps)
        if type(value) is int:
            cells[offset] = int_type.wrap(value)
        else:
            cells[offset] = _wrapped(value, int_type)

    return run


def _vmc_addr_of(instr: AddrOf):
    dest = instr.dest.name
    var = instr.var.name

    def run(vm, slots, temps, depth):
        pointer = slots.get(var) or vm._globals.get(var)
        if pointer is None:
            raise VMTrap(f"unknown variable {var!r}")
        temps[dest] = pointer

    return run


def _vmc_load_elem(instr: LoadElem):
    dest = instr.dest.name
    base_thunk = _base_thunk(instr.base)
    index_thunk = _operand_thunk(instr.index)

    def run(vm, slots, temps, depth):
        base = base_thunk(vm, slots, temps)
        if not isinstance(base, VMPointer):
            raise VMTrap("indexing a non-pointer value")
        index = _as_int(index_thunk(vm, slots, temps))
        cells, offset = _cell(vm._blocks, VMPointer(base.block_id, base.offset + index))
        temps[dest] = cells[offset]

    return run


def _vmc_store_elem(instr: StoreElem):
    base_thunk = _base_thunk(instr.base)
    index_thunk = _operand_thunk(instr.index)
    src = _operand_thunk(instr.src)
    int_type = _int_type_of(instr.ctype)

    def run(vm, slots, temps, depth):
        base = base_thunk(vm, slots, temps)
        if not isinstance(base, VMPointer):
            raise VMTrap("indexing a non-pointer value")
        index = _as_int(index_thunk(vm, slots, temps))
        cells, offset = _cell(vm._blocks, VMPointer(base.block_id, base.offset + index))
        cells[offset] = _wrapped(src(vm, slots, temps), int_type)

    return run


def _vmc_load_ptr(instr: LoadPtr):
    dest = instr.dest.name
    ptr_thunk = _operand_thunk(instr.ptr)

    def run(vm, slots, temps, depth):
        pointer = ptr_thunk(vm, slots, temps)
        if not isinstance(pointer, VMPointer):
            raise VMTrap("dereference of a non-pointer value")
        cells, offset = _cell(vm._blocks, pointer)
        temps[dest] = cells[offset]

    return run


def _vmc_store_ptr(instr: StorePtr):
    ptr_thunk = _operand_thunk(instr.ptr)
    src = _operand_thunk(instr.src)
    int_type = _int_type_of(instr.ctype)

    def run(vm, slots, temps, depth):
        pointer = ptr_thunk(vm, slots, temps)
        if not isinstance(pointer, VMPointer):
            raise VMTrap("store through a non-pointer value")
        cells, offset = _cell(vm._blocks, pointer)
        cells[offset] = _wrapped(src(vm, slots, temps), int_type)

    return run


def _vmc_call(instr: Call):
    dest = instr.dest.name if instr.dest is not None else None
    arg_thunks = [_operand_thunk(arg) for arg in instr.args]
    name = instr.name
    if name == "printf":
        format_string = instr.format or ""

        def run_printf(vm, slots, temps, depth):
            args = [thunk(vm, slots, temps) for thunk in arg_thunks]
            vm._stdout.append(_format_printf(format_string, args))
            if dest is not None:
                temps[dest] = len(args)

        return run_printf
    if name in ("abort", "__builtin_abort"):

        def run_abort(vm, slots, temps, depth):
            for thunk in arg_thunks:
                thunk(vm, slots, temps)
            raise _Exit(134)

        return run_abort
    if name == "exit":

        def run_exit(vm, slots, temps, depth):
            args = [thunk(vm, slots, temps) for thunk in arg_thunks]
            raise _Exit(_as_int(args[0]) if args else 0)

        return run_exit
    if name == "putchar":

        def run_putchar(vm, slots, temps, depth):
            args = [thunk(vm, slots, temps) for thunk in arg_thunks]
            value = _as_int(args[0]) if args else 0
            vm._stdout.append(chr(value & 0xFF))
            if dest is not None:
                temps[dest] = value

        return run_putchar

    def run_call(vm, slots, temps, depth):
        args = [thunk(vm, slots, temps) for thunk in arg_thunks]
        value = vm._call_named(name, args, depth)
        if dest is not None:
            temps[dest] = value

    return run_call


def _vmc_jump(instr: Jump):
    target = instr.target

    def run(vm, slots, temps, depth):
        return target

    return run


def _vmc_cjump(instr: CJump):
    cond_thunk = _operand_thunk(instr.cond)
    true_target = instr.true_target
    false_target = instr.false_target

    def run(vm, slots, temps, depth):
        condition = cond_thunk(vm, slots, temps)
        if type(condition) is int:
            return true_target if condition != 0 else false_target
        return true_target if _truthy(condition) else false_target

    return run


def _vmc_return(instr: Return):
    if instr.value is None:

        def run_void(vm, slots, temps, depth):
            return ("return", 0)

        return run_void
    value_thunk = _operand_thunk(instr.value)

    def run(vm, slots, temps, depth):
        return ("return", value_thunk(vm, slots, temps))

    return run


_VM_TRANSLATORS = {
    Copy: _vmc_copy,
    BinOp: _vmc_binop,
    UnOp: _vmc_unop,
    Load: _vmc_load,
    Store: _vmc_store,
    AddrOf: _vmc_addr_of,
    LoadElem: _vmc_load_elem,
    StoreElem: _vmc_store_elem,
    LoadPtr: _vmc_load_ptr,
    StorePtr: _vmc_store_ptr,
    Call: _vmc_call,
    Jump: _vmc_jump,
    CJump: _vmc_cjump,
    Return: _vmc_return,
}


def _translate_instr(instr):
    maker = _VM_TRANSLATORS.get(instr.__class__)
    if maker is None:
        raise VMTrap(f"unknown instruction {instr!r}")
    return maker(instr)


def _format_printf(format_string: str, args: list) -> str:
    output: list[str] = []
    position = 0
    value_index = 0
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
        value = args[value_index] if value_index < len(args) else 0
        value_index += 1
        integer = value if isinstance(value, int) else 0
        if specifier.endswith("u"):
            width = 64 if "l" in specifier else 32
            output.append(str(integer % (1 << width)))
        elif specifier.endswith("x"):
            width = 64 if "l" in specifier else 32
            output.append(format(integer % (1 << width), "x"))
        elif specifier.endswith("c"):
            output.append(chr(integer & 0xFF))
        else:
            output.append(str(integer))
    return "".join(output)


__all__ = ["VMPointer", "VMTrap", "VirtualMachine"]
