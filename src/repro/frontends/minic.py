"""The mini-C frontend plug-in.

Thin adapter binding the existing mini-C stack -- skeleton extraction
(:mod:`repro.minic.skeleton`), the UB-detecting reference interpreter
(:mod:`repro.minic.interp`), the simulated scc/lcc compilers
(:mod:`repro.compiler.driver`), the delta-debugging reducer and the
c-torture-like corpus -- to the :class:`~repro.frontends.base.Frontend`
protocol.  All behaviour is delegated; this module adds none of its own.
"""

from __future__ import annotations

from typing import Callable

from repro.compiler.driver import Compiler
from repro.compiler.pipeline import OptimizationLevel
from repro.core.execution import ExecutionResult
from repro.core.holes import BoundVariant, Skeleton
from repro.frontends.base import Frontend
from repro.minic.errors import MiniCError
from repro.minic.interp import run_source, run_unit
from repro.minic.skeleton import extract_skeleton


class MiniCFrontend(Frontend):
    """The paper's evaluation language: the C subset with scoped, typed holes."""

    name = "minic"
    parse_error_types = (MiniCError,)
    default_versions = ("scc-trunk", "lcc-trunk")
    default_opt_levels = (OptimizationLevel.O0, OptimizationLevel.O3)

    def extract_skeleton(self, source: str, name: str = "<minic>") -> Skeleton:
        return extract_skeleton(source, name=name)

    def run_reference_source(self, source: str, max_steps: int = 200_000) -> ExecutionResult:
        return run_source(source, max_steps=max_steps)

    def run_reference_variant(
        self, variant: BoundVariant, max_steps: int = 200_000
    ) -> ExecutionResult:
        return run_unit(variant.program, max_steps=max_steps)

    def runner_for_skeleton(self, skeleton: Skeleton):
        # The batched tier translates the whole skeleton into one generated
        # Python function (repro.minic.codegen); each vector then costs a
        # slot-table lookup plus one call.  Skeletons outside its subset get
        # no runner and run variant by variant on the interpreter.
        from repro.minic.codegen import runner_for_skeleton

        return runner_for_skeleton(skeleton)

    def executor(
        self,
        version: str,
        opt_level: OptimizationLevel | int,
        machine_bits: int = 64,
    ) -> Compiler:
        return Compiler(version, opt_level, machine_bits=machine_bits)

    def reduce(self, source: str, predicate: Callable[[str], bool]) -> str:
        # Imported lazily: repro.testing imports the frontends package back
        # through the oracle, so a module-level import here would cycle.
        from repro.testing.reducer import reduce_program

        return reduce_program(source, predicate)

    def deletion_candidates(self, source: str) -> int:
        from repro.testing.reducer import deletion_candidates

        return deletion_candidates(source)

    def delete_candidates(self, source: str, indices) -> str | None:
        from repro.testing.reducer import delete_candidates

        return delete_candidates(source, indices)

    def sanitize_variant(self, variant: BoundVariant) -> list:
        from repro.compiler.sanitize import sanitize_minic_unit

        return sanitize_minic_unit(variant.program)

    def sanitize_source(self, source: str) -> list:
        from repro.compiler.sanitize import sanitize_minic_unit
        from repro.minic.parser import parse
        from repro.minic.symbols import resolve

        unit = parse(source)
        resolve(unit)
        return sanitize_minic_unit(unit)

    def build_corpus(self, files: int = 25, seed: int = 2017) -> dict[str, str]:
        from repro.experiments.table1 import build_corpus

        return build_corpus(files=files, seed=seed)


__all__ = ["MiniCFrontend"]
