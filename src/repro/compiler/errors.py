"""Compiler exception types."""

from __future__ import annotations


class CompilationError(Exception):
    """A legitimate frontend/lowering rejection of an input program."""


class InternalCompilerError(Exception):
    """The compiler itself crashed: an assertion or invariant violation.

    This is the "crash bug" observable of the paper -- the signature string
    (``message``) plays the role of the GCC/Clang crash messages in Table 3
    and is what the bug deduplicator keys on.
    """

    def __init__(
        self, message: str, component: str = "", fault_id: str = "", detail: str = ""
    ) -> None:
        super().__init__(message)
        self.message = message
        self.component = component
        self.fault_id = fault_id
        #: The site-specific part of ``message`` (see
        #: :meth:`repro.compiler.faults.FaultSet.crash`): with ``fault_id``
        #: it lets another fault set re-raise the same crash in its own words.
        self.detail = detail

    def signature(self) -> str:
        location = f", in {self.component}" if self.component else ""
        return f"internal compiler error: {self.message}{location}"


__all__ = ["CompilationError", "InternalCompilerError"]
