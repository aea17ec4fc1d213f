"""The differential oracle.

Given one program and one compiler configuration it produces an
:class:`Observation`.  The oracle is language-agnostic: it resolves its
``frontend`` through :mod:`repro.frontends` and talks to the language only
through the protocol -- the frontend supplies the executor pair (the
compiler under test and its fault-free reference sibling) and the reference
interpreter.  Possible observations:

* ``CRASH`` -- the compiler raised an internal compiler error;
* ``WRONG_CODE`` -- the program is UB-free according to the reference
  interpreter, the compiler accepted it, and the produced code's observable
  behaviour (exit code, stdout) differs from the interpreter's;
* ``PERFORMANCE`` -- compilation "effort" exceeded the configured multiple of
  the reference compiler's effort on the same program (the stand-in for the
  paper's compile-time-hang reports);
* ``OK`` -- nothing suspicious;
* ``SKIPPED`` -- the program has undefined behaviour, does not terminate, or
  was legitimately rejected, so no wrong-code judgement is possible
  (compiler crashes are still reported for such programs, exactly as in the
  paper where crash bugs do not require UB-freedom).
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Callable

from repro.compiler.driver import CompileOutcome
from repro.compiler.pipeline import OptimizationLevel
from repro.core.execution import ExecutionResult, ExecutionStatus
from repro.core.holes import BoundVariant
from repro.frontends import Frontend, get_frontend


class ObservationKind(enum.Enum):
    OK = "ok"
    CRASH = "crash"
    WRONG_CODE = "wrong code"
    PERFORMANCE = "performance"
    SKIPPED = "skipped"
    #: The between-pass IR verifier caught a structural invariant violation
    #: (only observable when the campaign's ``verify_ir`` policy is on).
    ILL_FORMED_IR = "ill-formed ir"


@dataclass
class Observation:
    """The outcome of testing one program against one compiler configuration."""

    kind: ObservationKind
    program: str
    source_name: str
    compiler: str
    opt_level: OptimizationLevel
    signature: str = ""
    detail: str = ""
    reference_behaviour: tuple | None = None
    compiled_behaviour: tuple | None = None
    outcome: CompileOutcome | None = None
    triggered_faults: list[str] = field(default_factory=list)

    @property
    def is_bug(self) -> bool:
        return self.kind in (
            ObservationKind.CRASH,
            ObservationKind.WRONG_CODE,
            ObservationKind.PERFORMANCE,
            ObservationKind.ILL_FORMED_IR,
        )


@dataclass
class DifferentialOracle:
    """Tests programs against one compiler configuration.

    Args:
        version: simulated compiler version name (see
            :func:`repro.compiler.versions.available_versions`).
        opt_level: optimization level to compile at.
        machine_bits: 32 or 64; only diversifies the configuration label.
        interp_max_steps: reference-interpreter budget.
        performance_ratio: a compilation whose effort exceeds
            ``performance_ratio`` times the reference compiler's effort on the
            same program is reported as a performance bug.
        frontend: the language plug-in (a registry name or a
            :class:`~repro.frontends.base.Frontend` instance) supplying the
            executors and the reference interpreter.
        shared_module_cache: an optional campaign-scoped VM-result cache,
            shared by every oracle of a configuration matrix and keyed by
            optimized-module *content* (sha) -- so any two compilations in
            the whole campaign that produce the same module at the same
            budget share one VM run.  ``None`` (the default, for standalone
            oracles) runs every module.
    """

    version: str = "scc-trunk"
    opt_level: OptimizationLevel | int = OptimizationLevel.O2
    machine_bits: int = 64
    interp_max_steps: int = 200_000
    performance_ratio: float = 10.0
    frontend: "str | Frontend" = "minic"
    shared_module_cache: dict | None = None
    #: Optional campaign-scoped hit/miss counters (flat ``str -> int``); the
    #: harness shares one dict across its whole oracle matrix so the CLI and
    #: benchmarks can report cache effectiveness.  Purely observational.
    cache_stats: dict | None = None
    #: Between-pass IR verification policy: ``"off"`` (never verify -- the
    #: pre-verifier behaviour, byte for byte), ``"bugs"`` (verify the
    #: compiler under test; the fault-free reference sibling cannot violate
    #: and is skipped) or ``"always"`` (verify both executors).
    verify_ir: str = "off"

    #: Legal ``verify_ir`` values.
    VERIFY_POLICIES = ("off", "bugs", "always")

    #: Bound on a shared module cache (entries, FIFO eviction).  Module
    #: texts are not stored -- only (budget, bits, sha) keys and
    #: ExecutionResults -- so the worst case is a few tens of megabytes.
    SHARED_CACHE_ENTRIES = 65536

    def __post_init__(self) -> None:
        self.opt_level = OptimizationLevel(int(self.opt_level))
        self._frontend = get_frontend(self.frontend)
        self._compiler = self._frontend.executor(
            self.version, self.opt_level, machine_bits=self.machine_bits
        )
        self._reference = self._frontend.executor(
            self._frontend.reference_version, self.opt_level, machine_bits=self.machine_bits
        )
        if self.verify_ir not in self.VERIFY_POLICIES:
            raise ValueError(
                f"verify_ir must be one of {', '.join(self.VERIFY_POLICIES)}, "
                f"got {self.verify_ir!r}"
            )
        self._compiler.verify_ir = self.verify_ir in ("bugs", "always")
        self._reference.verify_ir = self.verify_ir == "always"

    def enable_pipeline_cache(self, cache) -> None:
        """Wire a campaign-scoped pipeline-outcome cache into both executors.

        ``cache`` is a :class:`repro.compiler.driver.PipelineCache`; both the
        compiler under test and its reference sibling look runs up by
        ``(opt_level, machine_bits, verify flag, module content)`` and reuse
        any run whose recorded fault queries their own fault set answers the
        same way, so one shared cache serves the whole configuration matrix
        and versions share runs where their faults do not matter.
        """
        self._compiler.pipeline_cache = cache
        self._reference.pipeline_cache = cache

    # -- main entry point -----------------------------------------------------------

    def observe(
        self,
        source: str,
        name: str = "<program>",
        reference_result: ExecutionResult | None = None,
    ) -> Observation:
        """Test one program from source text; never raises.

        Args:
            source: the program to test.
            name: label used in observations and bug reports.
            reference_result: a pre-computed reference-interpreter result for
                ``source`` (the campaign harness computes it once per variant
                and shares it across the compiler-configuration matrix).
        """
        outcome = self._compiler.compile_source(source, name=name)
        return self._classify(
            outcome,
            name,
            reference_result,
            program=source,
            bug_program=lambda: source,
            reference_compile=lambda: self._reference.compile_source(source, name=name),
            reference_run=lambda: self._frontend.run_reference_source(
                source, max_steps=self.interp_max_steps
            ),
        )

    def observe_variant(
        self,
        variant: BoundVariant,
        name: str = "<program>",
        reference_result: ExecutionResult | None = None,
    ) -> Observation:
        """Test one bound variant through the parse-once fast path.

        The variant's AST is compiled directly (shared lowering, cloned per
        configuration -- see :meth:`Compiler.compile_variant`) and the
        reference interpreter, when needed, runs on the same rebound AST.
        Source text is rendered only for observations that file a bug;
        OK/SKIPPED observations carry an empty ``program``.
        """
        outcome = self._compiler.compile_variant(variant, name=name)
        return self._classify(
            outcome,
            name,
            reference_result,
            program="",
            bug_program=lambda: variant.source,
            reference_compile=lambda: self._reference.compile_variant(variant, name=name),
            reference_run=lambda: self._frontend.run_reference_variant(
                variant, max_steps=self.interp_max_steps
            ),
        )

    def _run_module(self, outcome: CompileOutcome) -> ExecutionResult:
        """Run the produced code through the shared module cache when wired.

        Different configurations of the matrix frequently produce
        bit-identical optimized modules for the same variant (always at -O0,
        and at higher levels whenever no version-specific fault perturbed a
        pass), and many characteristic vectors of one skeleton lower to the
        same optimized module.  The VM is deterministic in (module text,
        step budget), so caching by content hash is observably identical to
        executing; both the variant path and the text path route through
        here.  Without a :attr:`shared_module_cache` every module runs.
        """
        shared = self.shared_module_cache
        if shared is None:
            return self._compiler.run(outcome)
        # The compiler stamps module_sha when a pipeline cache is wired; it
        # is by construction sha256(str(module)), so the key is identical to
        # the rendered-text fallback -- just without re-rendering the module.
        sha = outcome.module_sha
        if sha is None:
            sha = hashlib.sha256(str(outcome.module).encode()).hexdigest()
        key = (self._compiler.vm_max_steps, self.machine_bits, sha)
        stats = self.cache_stats
        result = shared.get(key)
        if result is None:
            if stats is not None:
                stats["module_misses"] = stats.get("module_misses", 0) + 1
            result = self._compiler.run(outcome)
            shared[key] = result
            while len(shared) > self.SHARED_CACHE_ENTRIES:
                del shared[next(iter(shared))]
        elif stats is not None:
            stats["module_hits"] = stats.get("module_hits", 0) + 1
        return result

    # -- shared classification ----------------------------------------------------------

    def _classify(
        self,
        outcome: CompileOutcome,
        name: str,
        reference_result: ExecutionResult | None,
        program: str,
        bug_program: Callable[[], str],
        reference_compile: Callable[[], CompileOutcome],
        reference_run: Callable[[], ExecutionResult],
    ) -> Observation:
        """Turn a compile outcome into an observation (common to both paths).

        ``program`` is attached to non-bug observations; ``bug_program`` is
        invoked only when the observation files a bug, which is what lets the
        AST path defer rendering until a bug actually needs text.
        """
        if outcome.crashed:
            return Observation(
                kind=ObservationKind.CRASH,
                program=bug_program(),
                source_name=name,
                compiler=self.version,
                opt_level=self.opt_level,
                signature=outcome.crash_signature() or "internal compiler error",
                outcome=outcome,
                triggered_faults=outcome.triggered_faults,
            )

        if outcome.ill_formed is not None:
            pass_name, detail = outcome.ill_formed
            return Observation(
                kind=ObservationKind.ILL_FORMED_IR,
                program=bug_program(),
                source_name=name,
                compiler=self.version,
                opt_level=self.opt_level,
                signature=f"ill-formed IR after {pass_name}: {detail}",
                detail=pass_name,
                outcome=outcome,
                triggered_faults=outcome.triggered_faults,
            )

        if outcome.rejected is not None:
            return Observation(
                kind=ObservationKind.SKIPPED,
                program=program,
                source_name=name,
                compiler=self.version,
                opt_level=self.opt_level,
                detail=f"rejected: {outcome.rejected}",
                outcome=outcome,
            )

        if reference_result is None:
            reference_result = reference_run()
        if reference_result.status is not ExecutionStatus.OK:
            return Observation(
                kind=ObservationKind.SKIPPED,
                program=program,
                source_name=name,
                compiler=self.version,
                opt_level=self.opt_level,
                detail=f"{reference_result.status.value}: {reference_result.detail}",
                outcome=outcome,
                triggered_faults=outcome.triggered_faults,
            )

        performance = self._performance_check(name, outcome, reference_compile, bug_program)
        if performance is not None:
            return performance

        compiled_result = self._run_module(outcome)
        if compiled_result.status is not ExecutionStatus.OK:
            return Observation(
                kind=ObservationKind.WRONG_CODE,
                program=bug_program(),
                source_name=name,
                compiler=self.version,
                opt_level=self.opt_level,
                signature=f"produced code {compiled_result.status.value}: {compiled_result.detail}",
                reference_behaviour=reference_result.observable(),
                compiled_behaviour=None,
                outcome=outcome,
                triggered_faults=outcome.triggered_faults,
            )

        if compiled_result.observable() != reference_result.observable():
            return Observation(
                kind=ObservationKind.WRONG_CODE,
                program=bug_program(),
                source_name=name,
                compiler=self.version,
                opt_level=self.opt_level,
                signature=self._wrong_code_signature(reference_result, compiled_result),
                reference_behaviour=reference_result.observable(),
                compiled_behaviour=compiled_result.observable(),
                outcome=outcome,
                triggered_faults=outcome.triggered_faults,
            )

        return Observation(
            kind=ObservationKind.OK,
            program=program,
            source_name=name,
            compiler=self.version,
            opt_level=self.opt_level,
            reference_behaviour=reference_result.observable(),
            compiled_behaviour=compiled_result.observable(),
            outcome=outcome,
            triggered_faults=outcome.triggered_faults,
        )

    # -- helpers ----------------------------------------------------------------------

    def _performance_check(
        self,
        name: str,
        outcome: CompileOutcome,
        reference_compile: Callable[[], CompileOutcome],
        bug_program: Callable[[], str],
    ) -> Observation | None:
        # Comparing against the reference compiler costs a second compilation;
        # only bother when this compilation did enough work to plausibly be a
        # compile-time blow-up (the seeded performance fault inflates effort
        # by orders of magnitude, so the shortcut cannot miss it).
        if outcome.compile_effort <= 500:
            return None
        reference_outcome = reference_compile()
        if not reference_outcome.success or reference_outcome.compile_effort <= 0:
            return None
        ratio = outcome.compile_effort / reference_outcome.compile_effort
        if ratio < self.performance_ratio:
            return None
        return Observation(
            kind=ObservationKind.PERFORMANCE,
            program=bug_program(),
            source_name=name,
            compiler=self.version,
            opt_level=self.opt_level,
            signature=f"compilation effort {ratio:.0f}x the reference compiler",
            outcome=outcome,
            triggered_faults=outcome.triggered_faults,
        )

    @staticmethod
    def _wrong_code_signature(reference: ExecutionResult, compiled: ExecutionResult) -> str:
        return (
            f"wrong code: expected exit={reference.exit_code} stdout={reference.stdout!r}, "
            f"got exit={compiled.exit_code} stdout={compiled.stdout!r}"
        )


__all__ = ["DifferentialOracle", "Observation", "ObservationKind"]
