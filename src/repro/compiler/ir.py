"""Three-address intermediate representation.

A module holds global variable definitions and functions; a function holds an
ordered collection of basic blocks; a block holds straight-line instructions
and ends with exactly one terminator (jump, conditional jump, or return).

Operands are either virtual registers (:class:`Temp`), named memory slots
(:class:`VarRef`, for scalar variables), or constants (:class:`Const`).
Memory-touching instructions (Load/Store/LoadElem/StoreElem/LoadPtr/StorePtr/
AddrOf) make variable accesses explicit so dataflow passes can reason about
them; everything else is pure register arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.minic.ctypes import CType, INT


# -- operands -------------------------------------------------------------------


@dataclass(frozen=True)
class Temp:
    """A virtual register."""

    name: str

    def __str__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True)
class Const:
    """An integer constant operand."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class VarRef:
    """A reference to a named variable (global or local scalar/array slot)."""

    name: str

    def __str__(self) -> str:
        return f"@{self.name}"


Operand = Temp | Const | VarRef


# -- instructions ------------------------------------------------------------------


@dataclass
class Instr:
    """Base class for IR instructions."""

    def uses(self) -> list[Operand]:
        """Operands read by this instruction."""
        return []

    def defs(self) -> list[Temp]:
        """Temps written by this instruction."""
        return []

    def replace_uses(self, mapping: dict[Operand, Operand]) -> None:
        """Substitute operands in place according to ``mapping``."""


@dataclass
class BinOp(Instr):
    dest: Temp
    op: str
    left: Operand
    right: Operand
    ctype: CType = INT

    def uses(self) -> list[Operand]:
        return [self.left, self.right]

    def defs(self) -> list[Temp]:
        return [self.dest]

    def replace_uses(self, mapping: dict[Operand, Operand]) -> None:
        self.left = mapping.get(self.left, self.left)
        self.right = mapping.get(self.right, self.right)

    def __str__(self) -> str:
        return f"{self.dest} = {self.left} {self.op} {self.right}"


@dataclass
class UnOp(Instr):
    dest: Temp
    op: str
    operand: Operand
    ctype: CType = INT

    def uses(self) -> list[Operand]:
        return [self.operand]

    def defs(self) -> list[Temp]:
        return [self.dest]

    def replace_uses(self, mapping: dict[Operand, Operand]) -> None:
        self.operand = mapping.get(self.operand, self.operand)

    def __str__(self) -> str:
        return f"{self.dest} = {self.op}{self.operand}"


@dataclass
class Copy(Instr):
    """``dest = src`` register copy (also used to materialise constants)."""

    dest: Temp
    src: Operand

    def uses(self) -> list[Operand]:
        return [self.src]

    def defs(self) -> list[Temp]:
        return [self.dest]

    def replace_uses(self, mapping: dict[Operand, Operand]) -> None:
        self.src = mapping.get(self.src, self.src)

    def __str__(self) -> str:
        return f"{self.dest} = {self.src}"


@dataclass
class Load(Instr):
    """``dest = @var`` -- read a scalar variable."""

    dest: Temp
    var: VarRef
    ctype: CType = INT

    def uses(self) -> list[Operand]:
        return [self.var]

    def defs(self) -> list[Temp]:
        return [self.dest]

    def __str__(self) -> str:
        return f"{self.dest} = load {self.var}"


@dataclass
class Store(Instr):
    """``@var = src`` -- write a scalar variable."""

    var: VarRef
    src: Operand
    ctype: CType = INT

    def uses(self) -> list[Operand]:
        return [self.src]

    def replace_uses(self, mapping: dict[Operand, Operand]) -> None:
        self.src = mapping.get(self.src, self.src)

    def __str__(self) -> str:
        return f"store {self.var} = {self.src}"


@dataclass
class AddrOf(Instr):
    """``dest = &var`` -- the address of a variable or array."""

    dest: Temp
    var: VarRef

    def uses(self) -> list[Operand]:
        return [self.var]

    def defs(self) -> list[Temp]:
        return [self.dest]

    def __str__(self) -> str:
        return f"{self.dest} = &{self.var}"


@dataclass
class LoadElem(Instr):
    """``dest = base[index]`` where ``base`` is a pointer-valued operand."""

    dest: Temp
    base: Operand
    index: Operand
    ctype: CType = INT

    def uses(self) -> list[Operand]:
        return [self.base, self.index]

    def defs(self) -> list[Temp]:
        return [self.dest]

    def replace_uses(self, mapping: dict[Operand, Operand]) -> None:
        self.base = mapping.get(self.base, self.base)
        self.index = mapping.get(self.index, self.index)

    def __str__(self) -> str:
        return f"{self.dest} = {self.base}[{self.index}]"


@dataclass
class StoreElem(Instr):
    """``base[index] = src``."""

    base: Operand
    index: Operand
    src: Operand
    ctype: CType = INT

    def uses(self) -> list[Operand]:
        return [self.base, self.index, self.src]

    def replace_uses(self, mapping: dict[Operand, Operand]) -> None:
        self.base = mapping.get(self.base, self.base)
        self.index = mapping.get(self.index, self.index)
        self.src = mapping.get(self.src, self.src)

    def __str__(self) -> str:
        return f"{self.base}[{self.index}] = {self.src}"


@dataclass
class LoadPtr(Instr):
    """``dest = *ptr``."""

    dest: Temp
    ptr: Operand
    ctype: CType = INT

    def uses(self) -> list[Operand]:
        return [self.ptr]

    def defs(self) -> list[Temp]:
        return [self.dest]

    def replace_uses(self, mapping: dict[Operand, Operand]) -> None:
        self.ptr = mapping.get(self.ptr, self.ptr)

    def __str__(self) -> str:
        return f"{self.dest} = *{self.ptr}"


@dataclass
class StorePtr(Instr):
    """``*ptr = src``."""

    ptr: Operand
    src: Operand
    ctype: CType = INT

    def uses(self) -> list[Operand]:
        return [self.ptr, self.src]

    def replace_uses(self, mapping: dict[Operand, Operand]) -> None:
        self.ptr = mapping.get(self.ptr, self.ptr)
        self.src = mapping.get(self.src, self.src)

    def __str__(self) -> str:
        return f"*{self.ptr} = {self.src}"


@dataclass
class Call(Instr):
    """``dest = call name(args...)``; dest may be None for void-ish calls."""

    dest: Temp | None
    name: str
    args: list[Operand] = field(default_factory=list)
    # printf calls carry their format string separately.
    format: str | None = None

    def uses(self) -> list[Operand]:
        return list(self.args)

    def defs(self) -> list[Temp]:
        return [self.dest] if self.dest is not None else []

    def replace_uses(self, mapping: dict[Operand, Operand]) -> None:
        self.args = [mapping.get(arg, arg) for arg in self.args]

    def __str__(self) -> str:
        args = ", ".join(str(arg) for arg in self.args)
        prefix = f"{self.dest} = " if self.dest is not None else ""
        return f"{prefix}call {self.name}({args})"


# -- terminators ----------------------------------------------------------------------


@dataclass
class Jump(Instr):
    target: str

    def __str__(self) -> str:
        return f"jump {self.target}"


@dataclass
class CJump(Instr):
    cond: Operand
    true_target: str
    false_target: str

    def uses(self) -> list[Operand]:
        return [self.cond]

    def replace_uses(self, mapping: dict[Operand, Operand]) -> None:
        self.cond = mapping.get(self.cond, self.cond)

    def __str__(self) -> str:
        return f"cjump {self.cond} ? {self.true_target} : {self.false_target}"


@dataclass
class Return(Instr):
    value: Operand | None = None

    def uses(self) -> list[Operand]:
        return [self.value] if self.value is not None else []

    def replace_uses(self, mapping: dict[Operand, Operand]) -> None:
        if self.value is not None:
            self.value = mapping.get(self.value, self.value)

    def __str__(self) -> str:
        return f"return {self.value}" if self.value is not None else "return"


TERMINATORS = (Jump, CJump, Return)


# -- containers ------------------------------------------------------------------------


@dataclass
class BasicBlock:
    """A straight-line sequence of instructions ending in one terminator."""

    label: str
    instructions: list[Instr] = field(default_factory=list)

    @property
    def terminator(self) -> Instr | None:
        if self.instructions and isinstance(self.instructions[-1], TERMINATORS):
            return self.instructions[-1]
        return None

    @property
    def body(self) -> list[Instr]:
        """Instructions excluding the terminator."""
        if self.terminator is not None:
            return self.instructions[:-1]
        return list(self.instructions)

    def successors(self) -> list[str]:
        terminator = self.terminator
        if isinstance(terminator, Jump):
            return [terminator.target]
        if isinstance(terminator, CJump):
            return [terminator.true_target, terminator.false_target]
        return []

    def __str__(self) -> str:
        lines = [f"{self.label}:"]
        lines.extend(f"  {instr}" for instr in self.instructions)
        return "\n".join(lines)


@dataclass
class VariableSlot:
    """A named memory slot of a function or module (scalar or array)."""

    name: str
    ctype: CType
    size: int = 1  # number of elements; 1 for scalars
    initial: list[int] | None = None  # globals only
    is_param: bool = False


@dataclass
class IRFunction:
    """One function in IR form."""

    name: str
    params: list[str] = field(default_factory=list)
    slots: dict[str, VariableSlot] = field(default_factory=dict)
    blocks: dict[str, BasicBlock] = field(default_factory=dict)
    entry: str = "entry"
    return_type: CType = INT

    def block(self, label: str) -> BasicBlock:
        return self.blocks[label]

    def instructions(self) -> Iterator[Instr]:
        for block in self.blocks.values():
            yield from block.instructions

    def new_label(self, hint: str) -> str:
        index = 0
        label = hint
        while label in self.blocks:
            index += 1
            label = f"{hint}.{index}"
        return label

    def add_block(self, label: str) -> BasicBlock:
        block = BasicBlock(label)
        self.blocks[label] = block
        return block

    def __str__(self) -> str:
        header = f"function {self.name}({', '.join(self.params)})"
        chunks = [header]
        for slot in self.slots.values():
            chunks.append(f"  slot {slot.name}: {slot.ctype} x{slot.size}")
        for block in self.blocks.values():
            chunks.append(str(block))
        return "\n".join(chunks)


@dataclass
class IRModule:
    """A whole translation unit in IR form."""

    globals: dict[str, VariableSlot] = field(default_factory=dict)
    functions: dict[str, IRFunction] = field(default_factory=dict)

    def function(self, name: str) -> IRFunction:
        return self.functions[name]

    def __str__(self) -> str:
        chunks = [f"global {slot.name}: {slot.ctype} x{slot.size} = {slot.initial}" for slot in self.globals.values()]
        chunks.extend(str(function) for function in self.functions.values())
        return "\n\n".join(chunks)


def instruction_count(module: IRModule) -> int:
    """Total instruction count across all functions (a simple size metric)."""
    return sum(len(block.instructions) for function in module.functions.values() for block in function.blocks.values())


# -- structural cloning ------------------------------------------------------------------

# Per-type instruction cloners (a dispatch table, like the interpreter's).
# Operands (Temp/Const/VarRef) and CTypes are frozen/immutable and therefore
# shared between the original and the clone; everything mutable -- the
# instruction objects themselves, argument lists, block instruction lists,
# slot dicts -- is fresh.  This is what makes one lowering shareable across a
# whole compiler-configuration matrix: each configuration's pass pipeline
# mutates its own clone.
_INSTR_CLONERS = {
    BinOp: lambda i: BinOp(i.dest, i.op, i.left, i.right, i.ctype),
    UnOp: lambda i: UnOp(i.dest, i.op, i.operand, i.ctype),
    Copy: lambda i: Copy(i.dest, i.src),
    Load: lambda i: Load(i.dest, i.var, i.ctype),
    Store: lambda i: Store(i.var, i.src, i.ctype),
    AddrOf: lambda i: AddrOf(i.dest, i.var),
    LoadElem: lambda i: LoadElem(i.dest, i.base, i.index, i.ctype),
    StoreElem: lambda i: StoreElem(i.base, i.index, i.src, i.ctype),
    LoadPtr: lambda i: LoadPtr(i.dest, i.ptr, i.ctype),
    StorePtr: lambda i: StorePtr(i.ptr, i.src, i.ctype),
    Call: lambda i: Call(i.dest, i.name, list(i.args), i.format),
    Jump: lambda i: Jump(i.target),
    CJump: lambda i: CJump(i.cond, i.true_target, i.false_target),
    Return: lambda i: Return(i.value),
}


def clone_instr(instr: Instr) -> Instr:
    """A fresh instruction object with the same (shared, immutable) operands."""
    return _INSTR_CLONERS[instr.__class__](instr)


def clone_slot(slot: VariableSlot) -> VariableSlot:
    return VariableSlot(
        slot.name,
        slot.ctype,
        size=slot.size,
        initial=list(slot.initial) if slot.initial is not None else None,
        is_param=slot.is_param,
    )


def clone_function(function: IRFunction) -> IRFunction:
    return IRFunction(
        name=function.name,
        params=list(function.params),
        slots={name: clone_slot(slot) for name, slot in function.slots.items()},
        blocks={
            label: BasicBlock(label, [clone_instr(instr) for instr in block.instructions])
            for label, block in function.blocks.items()
        },
        entry=function.entry,
        return_type=function.return_type,
    )


def clone_module(module: IRModule) -> IRModule:
    """Deep-enough copy of a module for an independent optimization pipeline.

    Much faster than ``copy.deepcopy``: immutable leaves (operands, types)
    are shared, and no memo bookkeeping is needed.
    """
    return IRModule(
        globals={name: clone_slot(slot) for name, slot in module.globals.items()},
        functions={name: clone_function(fn) for name, fn in module.functions.items()},
    )


__all__ = [
    "AddrOf",
    "BasicBlock",
    "BinOp",
    "CJump",
    "Call",
    "Const",
    "Copy",
    "IRFunction",
    "IRModule",
    "Instr",
    "Jump",
    "Load",
    "LoadElem",
    "LoadPtr",
    "Operand",
    "Return",
    "Store",
    "StoreElem",
    "StorePtr",
    "TERMINATORS",
    "Temp",
    "UnOp",
    "VarRef",
    "VariableSlot",
    "clone_function",
    "clone_instr",
    "clone_module",
    "clone_slot",
    "instruction_count",
]
