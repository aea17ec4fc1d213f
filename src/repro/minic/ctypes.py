"""Type representation for the mini-C subset.

Supported types:

* integer types: ``char``, ``int``, ``long``, ``unsigned`` (= unsigned int),
  ``unsigned char``, ``unsigned long`` -- each with a bit width and
  signedness, two's-complement representation;
* pointer types ``T *``;
* array types ``T name[N]`` (fixed, compile-time size);
* ``void`` for function return types only.

Types are value objects; ``str(type)`` renders the C spelling, and the
spelling doubles as the hole "type" string used by skeleton extraction so
that SPE only fills holes with same-typed variables.
"""

from __future__ import annotations

from dataclasses import dataclass


class CType:
    """Base class for mini-C types."""

    def spelling(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.spelling()

    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)


@dataclass(frozen=True)
class VoidType(CType):
    """The ``void`` type (function returns only)."""

    def spelling(self) -> str:
        return "void"


@dataclass(frozen=True)
class IntType(CType):
    """An integer type with a fixed bit width and signedness."""

    name: str
    bits: int
    signed: bool

    def spelling(self) -> str:
        return self.name

    @property
    def min_value(self) -> int:
        return -(1 << (self.bits - 1)) if self.signed else 0

    @property
    def max_value(self) -> int:
        return (1 << (self.bits - 1)) - 1 if self.signed else (1 << self.bits) - 1

    def wrap(self, value: int) -> int:
        """Reduce ``value`` into this type's representable range (two's complement)."""
        # Hot path of both executors; written with plain shifts instead of
        # the min/max properties so one call does no extra attribute work.
        bits = self.bits
        value &= (1 << bits) - 1
        if self.signed and value >= 1 << (bits - 1):
            value -= 1 << bits
        return value

    def in_range(self, value: int) -> bool:
        if self.signed:
            half = 1 << (self.bits - 1)
            return -half <= value < half
        return 0 <= value < 1 << self.bits


@dataclass(frozen=True)
class PointerType(CType):
    """A pointer to ``base``."""

    base: CType

    def spelling(self) -> str:
        return f"{self.base.spelling()} *"


@dataclass(frozen=True)
class ArrayType(CType):
    """A fixed-size array of ``base``."""

    base: CType
    size: int

    def spelling(self) -> str:
        return f"{self.base.spelling()} [{self.size}]"


VOID = VoidType()
CHAR = IntType("char", 8, True)
UCHAR = IntType("unsigned char", 8, False)
INT = IntType("int", 32, True)
UINT = IntType("unsigned", 32, False)
LONG = IntType("long", 64, True)
ULONG = IntType("unsigned long", 64, False)

_BASE_TYPES = {
    "void": VOID,
    "char": CHAR,
    "unsigned char": UCHAR,
    "int": INT,
    "unsigned": UINT,
    "unsigned int": UINT,
    "long": LONG,
    "long int": LONG,
    "unsigned long": ULONG,
    "unsigned long int": ULONG,
}


def type_from_name(name: str) -> CType:
    """Look up a base type by its C spelling (``"int"``, ``"unsigned long"``, ...)."""
    normalized = " ".join(name.split())
    try:
        return _BASE_TYPES[normalized]
    except KeyError:
        raise ValueError(f"unknown type name {name!r}") from None


def integer_promote(type_: CType) -> CType:
    """C integer promotion: types narrower than int are promoted to int."""
    if isinstance(type_, IntType) and type_.bits < INT.bits:
        return INT
    return type_


def usual_arithmetic_conversion(left: CType, right: CType) -> CType:
    """The C "usual arithmetic conversions" restricted to our integer types."""
    left = integer_promote(left)
    right = integer_promote(right)
    if not isinstance(left, IntType) or not isinstance(right, IntType):
        # Pointer arithmetic is handled separately by the type checker.
        return left
    if left == right:
        return left
    # Rank by bit width, then prefer unsigned on ties (as C does).
    if left.bits != right.bits:
        return left if left.bits > right.bits else right
    return left if not left.signed else right


__all__ = [
    "ArrayType",
    "CHAR",
    "CType",
    "INT",
    "IntType",
    "LONG",
    "PointerType",
    "UCHAR",
    "UINT",
    "ULONG",
    "VOID",
    "VoidType",
    "integer_promote",
    "type_from_name",
    "usual_arithmetic_conversion",
]
