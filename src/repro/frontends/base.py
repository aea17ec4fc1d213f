"""The frontend plug-in protocol.

The enumeration core (:mod:`repro.core`) is language-independent -- it only
sees scope trees and holes -- and the campaign stack (harness, oracle,
executors, reducer, CLI) is written against the :class:`Frontend` protocol
defined here, so adding a language to the whole pipeline is one registration
(:func:`repro.frontends.register_frontend`), not a rewrite.

A frontend packages everything the pipeline needs from a language:

* **parse + skeleton extraction** -- source text to a
  :class:`~repro.core.holes.Skeleton` (holes + scope tree + parse-once
  binder), with :attr:`Frontend.parse_error_types` naming the exceptions
  that mean "this seed/variant is rejected by the language frontend";
* **reference interpretation** -- ground-truth observable behaviour as
  :class:`~repro.core.execution.ExecutionResult`, both from source text
  (the legacy render+reparse path) and from a bound variant's AST (the
  parse-once fast path);
* **the executor pair** -- :meth:`Frontend.executor` builds the simulated
  compiler-under-test for one ``(version, opt level, machine bits)``
  configuration; the fault-free :attr:`Frontend.reference_version` of the
  same executor is the oracle's performance baseline.  Executors subclass
  :class:`repro.compiler.driver.CompileDriver`, which owns the compile
  flow, the pipeline cache and the tier-up rule behind ``compile_source``,
  ``compile_variant``, ``run`` and ``vm_max_steps``; the subclass supplies
  the language's hooks;
* **reduction** -- shrink a bug-triggering program while a predicate holds.
  Frontends additionally opt into the triage engine's chunked ddmin reducer
  (:mod:`repro.triage.reduce`) through the *deletion-candidate hooks*:
  :meth:`Frontend.deletion_candidates` counts the independently deletable
  elements of a program and :meth:`Frontend.delete_candidates` renders the
  program with a chosen subset of them removed (``None`` when the result is
  not a valid program).  The defaults opt out, in which case triage falls
  back to the frontend's own :meth:`Frontend.reduce`;
* **a corpus** -- the language's default seed programs for campaigns.

:attr:`default_versions` x :attr:`default_opt_levels` is the language's
default differential-testing configuration matrix (the versions must be
registered with :func:`repro.compiler.versions.register_lineage` so bug
classification and affected-version queries work).
"""

from __future__ import annotations

import abc
from typing import Callable, Sequence

from repro.compiler.pipeline import OptimizationLevel
from repro.core.execution import ExecutionResult
from repro.core.holes import BoundVariant, Skeleton


class Frontend(abc.ABC):
    """One pluggable language: parse, enumerate, interpret, compile, reduce."""

    #: Registry key and the CLI's ``--lang`` value.
    name: str = ""
    #: Exceptions meaning "the language frontend rejects this source".  The
    #: campaign planner treats exactly these as "skip the seed file"; the
    #: empty default means an unconfigured frontend's bugs surface as
    #: tracebacks instead of being silently counted as rejected files.
    parse_error_types: tuple[type[BaseException], ...] = ()
    #: Default compiler-under-test versions for a campaign matrix.
    default_versions: tuple[str, ...] = ()
    #: Default optimization levels for a campaign matrix.
    default_opt_levels: tuple[OptimizationLevel, ...] = (
        OptimizationLevel.O0,
        OptimizationLevel.O3,
    )
    #: The fault-free executor version (the oracle's performance baseline).
    reference_version: str = "reference"

    # -- parsing + skeletons ------------------------------------------------

    @abc.abstractmethod
    def extract_skeleton(self, source: str, name: str = "<program>") -> Skeleton:
        """Parse ``source`` once and build its skeleton (holes + scope tree).

        Raises one of :attr:`parse_error_types` when the frontend rejects the
        program.  The returned skeleton carries ``realize``/``bind``/
        ``order_clean`` closures, so the campaign harness can use the
        parse-once AST fast path whenever ``skeleton.supports_binding``.
        """

    # -- reference interpretation ------------------------------------------

    @abc.abstractmethod
    def run_reference_source(self, source: str, max_steps: int = 200_000) -> ExecutionResult:
        """Parse and interpret ``source``; raises on frontend rejection."""

    @abc.abstractmethod
    def run_reference_variant(
        self, variant: BoundVariant, max_steps: int = 200_000
    ) -> ExecutionResult:
        """Interpret a bound variant's AST directly (no render, no re-parse)."""

    def runner_for_skeleton(self, skeleton: Skeleton):
        """The skeleton's batched execution tier, or ``None`` without one.

        Frontends with a per-skeleton compiled body shared by every
        characteristic vector (e.g. :mod:`repro.minic.codegen`) return its
        runner, whose ``run_batch(vectors, max_steps=...)`` must give results
        byte-identical to :meth:`run_reference_variant` per vector.
        """
        return None

    def run_reference_batch(
        self, variants: Sequence[BoundVariant], max_steps: int = 200_000
    ) -> list[ExecutionResult]:
        """Interpret a batch of bound variants.

        Consecutive variants of one skeleton run through its
        :meth:`runner_for_skeleton` in a single call, so the batch never
        re-enters per-node interpretation; a skeleton without a runner runs
        variant by variant on :meth:`run_reference_variant`.  The campaign
        harness's ``batch_size`` knob feeds variants through here.
        """
        results: list[ExecutionResult] = []
        index = 0
        total = len(variants)
        while index < total:
            skeleton = variants[index].skeleton
            group_end = index
            while group_end < total and variants[group_end].skeleton is skeleton:
                group_end += 1
            group = variants[index:group_end]
            runner = self.runner_for_skeleton(skeleton)
            if runner is not None:
                results.extend(
                    runner.run_batch([variant.vector for variant in group], max_steps=max_steps)
                )
            else:
                results.extend(
                    self.run_reference_variant(variant, max_steps=max_steps) for variant in group
                )
            index = group_end
        return results

    def try_run_reference_source(
        self, source: str, max_steps: int = 200_000
    ) -> ExecutionResult | None:
        """Like :meth:`run_reference_source`, but ``None`` on rejection."""
        try:
            return self.run_reference_source(source, max_steps=max_steps)
        except self.parse_error_types:
            return None

    # -- the executor pair --------------------------------------------------

    @abc.abstractmethod
    def executor(
        self,
        version: str,
        opt_level: OptimizationLevel | int,
        machine_bits: int = 64,
    ):
        """Build the simulated compiler for one configuration.

        The returned object is a :class:`repro.compiler.driver.
        CompileDriver` subclass (``compile_source`` / ``compile_variant`` /
        ``run`` / ``vm_max_steps``); passing :attr:`reference_version`
        yields the fault-free reference member of the executor pair.
        """

    # -- reduction ----------------------------------------------------------

    @abc.abstractmethod
    def reduce(self, source: str, predicate: Callable[[str], bool]) -> str:
        """Shrink ``source`` while ``predicate`` keeps holding."""

    def deletion_candidates(self, source: str) -> int:
        """How many independently deletable elements ``source`` has.

        The contract the ddmin reducer relies on: enumerating the candidates
        of the *same* source twice yields the same count in the same order,
        and index ``i`` names the same element in every
        :meth:`delete_candidates` call for that source.  Returning ``0``
        (the default) opts the frontend out of chunked ddmin; triage then
        falls back to :meth:`reduce`.
        """
        return 0

    def delete_candidates(self, source: str, indices: Sequence[int]) -> str | None:
        """Render ``source`` with the indexed deletable elements removed.

        Returns ``None`` when the deletion does not produce a valid program
        (fails to parse/resolve) or removes nothing -- the reducer treats
        such candidates as free failures, never spending a predicate
        evaluation on them.
        """
        return None

    # -- static sanitization ------------------------------------------------

    def sanitize_variant(self, variant: BoundVariant) -> list:
        """Static UB findings for a bound variant's AST (empty = clean).

        The campaign harness's ``sanitize`` gate calls this before the
        oracle matrix runs and skips tainted variants (see
        :mod:`repro.compiler.sanitize` for the taint rules).  The default
        opts out: every variant is clean.
        """
        return []

    def sanitize_source(self, source: str) -> list:
        """Static UB findings for source text (the ``repro lint`` path).

        Raises one of :attr:`parse_error_types` when the frontend rejects
        the program.  The default opts out: every program is clean.
        """
        return []

    # -- corpus -------------------------------------------------------------

    @abc.abstractmethod
    def build_corpus(self, files: int = 25, seed: int = 2017) -> dict[str, str]:
        """The language's default campaign corpus (name -> source)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


__all__ = ["Frontend"]
