"""The WHILE frontend plug-in.

Gives the paper's Figure 4/5 teaching language a *real* differential
oracle: the reference member of the executor pair is the direct interpreter
(:mod:`repro.lang.interp`) and the compiler under test is the optimizing
evaluator with seeded ``wc-*`` versions (:mod:`repro.lang.compile`).  With
the parse-once binder of :mod:`repro.lang.skeleton` and the seed corpus of
:mod:`repro.corpus.while_seeds`, ``repro campaign --lang while`` runs the
identical plan/execute/merge pipeline as mini-C.
"""

from __future__ import annotations

from typing import Callable

from repro.compiler.pipeline import OptimizationLevel
from repro.core.execution import ExecutionResult
from repro.core.holes import BoundVariant, Skeleton
from repro.frontends.base import Frontend
from repro.lang.compile import WhileCompiler, execute_while
from repro.lang.lexer import LexerError
from repro.lang.parser import ParseError, parse_program
from repro.lang.reduce import (
    delete_candidates as while_delete_candidates,
    deletion_candidates as while_deletion_candidates,
    reduce_while_program,
)
from repro.lang.skeleton import SkeletonExtractionError, extract_skeleton


class WhileFrontend(Frontend):
    """The unscoped WHILE language with the ``wc`` compiler lineage."""

    name = "while"
    parse_error_types = (ParseError, LexerError, SkeletonExtractionError)
    default_versions = ("wc-trunk", "wc-2.0")
    default_opt_levels = (OptimizationLevel.O0, OptimizationLevel.O2)

    def extract_skeleton(self, source: str, name: str = "<while-program>") -> Skeleton:
        return extract_skeleton(source, name=name)

    def run_reference_source(self, source: str, max_steps: int = 200_000) -> ExecutionResult:
        return execute_while(parse_program(source), max_steps=max_steps)

    def run_reference_variant(
        self, variant: BoundVariant, max_steps: int = 200_000
    ) -> ExecutionResult:
        return execute_while(variant.program, max_steps=max_steps)

    def runner_for_skeleton(self, skeleton: Skeleton):
        # The batched tier compiles the whole skeleton into one generated
        # Python function (repro.lang.codegen); each vector then costs one
        # call instead of a tree-walk.  Results are byte-identical to
        # execute_while on the rebound AST.
        from repro.lang.codegen import runner_for_skeleton

        return runner_for_skeleton(skeleton)

    def executor(
        self,
        version: str,
        opt_level: OptimizationLevel | int,
        machine_bits: int = 64,
    ) -> WhileCompiler:
        return WhileCompiler(version, opt_level, machine_bits=machine_bits)

    def reduce(self, source: str, predicate: Callable[[str], bool]) -> str:
        return reduce_while_program(source, predicate)

    def deletion_candidates(self, source: str) -> int:
        return while_deletion_candidates(source)

    def delete_candidates(self, source: str, indices) -> str | None:
        return while_delete_candidates(source, indices)

    def sanitize_variant(self, variant: BoundVariant) -> list:
        from repro.compiler.sanitize import sanitize_while_program

        return sanitize_while_program(variant.program)

    def sanitize_source(self, source: str) -> list:
        from repro.compiler.sanitize import sanitize_while_program

        return sanitize_while_program(parse_program(source))

    def build_corpus(self, files: int = 25, seed: int = 2017) -> dict[str, str]:
        from repro.corpus.while_seeds import build_while_corpus

        return build_while_corpus(files=files, seed=seed)


__all__ = ["WhileFrontend"]
