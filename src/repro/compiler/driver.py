"""The compiler driver: source text in, compiled module (or crash) out.

:class:`CompileDriver` runs one compile flow the way the campaign harness
uses a real compiler binary, for every language; :class:`Compiler` supplies
mini-C's steps and :class:`repro.lang.compile.WhileCompiler` WHILE's:

1. parse + resolve (the mini-C frontend);
2. frontend-level seeded fault checks (the "C/C++ frontend" bug components
   of Figure 10);
3. lowering to IR;
4. the optimization pipeline of the requested ``-O`` level, with coverage
   instrumentation and pass-level seeded faults;
5. on request, execution of the optimized IR on the VM to observe the
   produced "binary"'s behaviour.

A crash anywhere surfaces as an :class:`InternalCompilerError` captured in
the :class:`CompileOutcome`; wrong-code faults record themselves in
``triggered_faults`` (the harness does not look at that field when deciding
whether behaviour differs -- it only uses it to label known seeded bugs when
reporting, mirroring how the paper's authors map crashes back to bugzilla
entries).
"""

from __future__ import annotations

import abc
import hashlib
from dataclasses import dataclass, field
from typing import Callable

from repro.compiler.errors import CompilationError, InternalCompilerError
from repro.compiler.faults import FaultKind, FaultSet
from repro.compiler.ir import IRModule, clone_module, instruction_count
from repro.compiler.lowering import lower_module
from repro.core.holes import BoundVariant
from repro.compiler.passes import CoverageRecorder, PassContext
from repro.compiler.pipeline import OptimizationLevel, build_pass_pipeline
from repro.compiler.verify import first_violation
from repro.compiler.versions import CompilerVersion, get_version
from repro.compiler.vm import VirtualMachine
from repro.minic import ast
from repro.minic.errors import MiniCError
from repro.minic.interp import ExecutionResult, ExecutionStatus
from repro.minic.parser import parse
from repro.minic.printer import expr_to_source
from repro.minic.symbols import resolve


@dataclass
class CompileOutcome:
    """Everything observable about one compilation."""

    source_name: str
    version: str
    opt_level: OptimizationLevel
    machine_bits: int = 64
    success: bool = False
    #: The produced module: an ``IRModule`` for mini-C, a ``WhileModule``
    #: for WHILE.  Shared read-only by every outcome that replays one record.
    module: object | None = None
    crash: InternalCompilerError | None = None
    rejected: str | None = None  # legitimate frontend rejection message
    coverage: CoverageRecorder = field(default_factory=CoverageRecorder)
    triggered_faults: list[str] = field(default_factory=list)
    compile_effort: int = 0
    #: Content sha of ``str(module)``, stamped by every compile that produced
    #: a module: lets the oracle's VM-result cache key a run without
    #: re-rendering the module text.
    module_sha: str | None = None
    #: ``(pass name, violation)`` when the between-pass IR verifier caught a
    #: broken invariant (only populated when :attr:`Compiler.verify_ir` is
    #: on); the oracle reports it as an ``ill-formed-ir`` bug naming the
    #: offending pass.  The pipeline stops at the first violation, so
    #: ``crash`` and ``ill_formed`` are mutually exclusive.
    ill_formed: tuple[str, str] | None = None

    @property
    def crashed(self) -> bool:
        return self.crash is not None

    def crash_signature(self) -> str | None:
        return self.crash.signature() if self.crash is not None else None


@dataclass(frozen=True)
class PipelineRecord:
    """One memoised pass-pipeline run (see :class:`PipelineCache`).

    Captures the pipeline's *complete* observable effect on a compilation:
    the optimized module (shared read-only -- neither the passes nor the VM
    mutate a module after compilation), the content sha of its rendered
    text, the crash it raised as ``(fault id, detail)`` (re-raised through
    the asking version's fault set, so it carries that lineage's signature
    and component), the faults it triggered (first occurrences, in trigger
    order -- duplicates are dropped because the only consumer deduplicates
    order-preservingly), the coverage events it recorded, the compile
    effort it reported and the verifier's verdict.  ``transcript`` holds
    the ``(fault id, answer)`` of every :meth:`FaultSet.active` query the
    run made.  Replaying a record for a fault set that answers the
    transcript the same way produces a :class:`CompileOutcome`
    indistinguishable from a fresh run.
    """

    module: object | None
    module_sha: str | None
    crash: tuple[str, str] | None
    triggered: tuple[str, ...]
    coverage: tuple[tuple[str, int], ...]
    compile_effort: int
    transcript: tuple[tuple[str, bool], ...]
    #: ``(pass name, violation)`` (see :attr:`CompileOutcome.ill_formed`).
    #: Each configuration attributes its own ill-formed-IR faults to it.
    ill_formed: tuple[str, str] | None = None


class PipelineCache:
    """Campaign-scoped cache of pass-pipeline outcomes, shared across versions.

    Keyed by ``(opt_level, machine_bits, verify flag, content sha of the
    pre-optimization module)``; each key holds the records of the runs
    made so far.  The passes are deterministic in the module they
    transform, the pass schedule (opt level), the verifier (which stops the
    pipeline at the first violation) and the answers their fault set gives
    to :meth:`FaultSet.active` -- no pass reads the version.  So
    :meth:`get` reuses a record for any executor whose fault set answers
    every query of the record's transcript the same way: the run would ask
    the same questions, take the same decisions and end the same.  One
    cache serves a campaign's whole configuration matrix: for most
    variants the two trunks of the mini-C matrix share one O3 run, as do
    the WHILE versions that lack the faults the program reaches.
    """

    #: Bound on retained keys (FIFO eviction, like the VM-result cache).
    MAX_ENTRIES = 16384

    __slots__ = ("entries", "hits", "misses", "max_entries")

    def __init__(self, max_entries: int = MAX_ENTRIES) -> None:
        self.entries: dict[tuple, list[PipelineRecord]] = {}
        self.hits = 0
        self.misses = 0
        self.max_entries = max_entries

    def get(self, key: tuple, faults: FaultSet) -> PipelineRecord | None:
        """A record under ``key`` whose transcript ``faults`` answers alike."""
        for record in self.entries.get(key, ()):
            if faults.answers(record.transcript):
                self.hits += 1
                return record
        self.misses += 1
        return None

    def put(self, key: tuple, record: PipelineRecord) -> None:
        self.entries.setdefault(key, []).append(record)
        while len(self.entries) > self.max_entries:
            del self.entries[next(iter(self.entries))]


#: Sentinel distinguishing "memo not computed" from a computed ``None``.
_UNSET = object()

#: Budget of a run of produced code on its interpreting tier before
#: :meth:`CompileDriver.run` restarts it in its generated tier: mini-C runs
#: move from the closure VM to :mod:`repro.compiler.codegen`, WHILE runs
#: from the WHILE interpreter to :mod:`repro.lang.codegen`.  Campaign runs
#: of both languages stop within ~100 steps or exhaust the budget, so any
#: value from ~1,000 to ~20,000 selects the same runs.  The restart is exact
#: because both interpreting tiers are deterministic and a run's only output
#: is its result.
TIER_UP_STEPS = 4_000


class CompileDriver(abc.ABC):
    """A simulated compiler binary: one version at one optimization level.

    Owns the compile flow of every language once: outcome and fault-set
    set-up, frontend checks with memoised verdicts, the
    :class:`PipelineCache` get, record, put and replay, crash and rejection
    capture, and the tier-up rule of :meth:`run`.  A language subclass
    (:class:`Compiler` for mini-C, :class:`repro.lang.compile.WhileCompiler`
    for WHILE) supplies only its language: :meth:`_parse` with its
    :attr:`rejection_types`, its :attr:`frontend_checks`, the
    pre-optimization module and its cache key (:meth:`_pre_optimization`),
    the optimization pipeline (:meth:`_optimize`) and the two execution
    tiers of produced code (:meth:`_interpret` and :meth:`_generated`).
    """

    #: Exceptions meaning the language rejects the program: captured as
    #: :attr:`CompileOutcome.rejected`, never raised.
    rejection_types: tuple[type[Exception], ...] = (CompilationError,)
    #: ``(fault id, check)`` for each seeded frontend fault, in checking
    #: order.  A check is a pure function of the program that returns the
    #: crash detail, or ``None`` when the fault does not fire.
    frontend_checks: tuple[tuple[str, Callable[[object], str | None]], ...] = ()

    def __init__(
        self,
        version: str | CompilerVersion = "reference",
        opt_level: OptimizationLevel | int = OptimizationLevel.O2,
        machine_bits: int = 64,
        # Above the oracle's reference-interpreter budget (200k): a program
        # the reference completes must never time out in the produced code
        # unless a seeded fault really changed it.
        vm_max_steps: int = 500_000,
    ) -> None:
        self.version = get_version(version) if isinstance(version, str) else version
        self.opt_level = OptimizationLevel(int(opt_level))
        self.machine_bits = machine_bits
        self.vm_max_steps = vm_max_steps
        self._fault_dict = {fault.id: fault for fault in self.version.faults}
        #: Optional campaign-scoped :class:`PipelineCache`; when wired (the
        #: harness does this for every executor of its oracle matrix),
        #: ``compile_variant`` memoises pass-pipeline outcomes by content.
        self.pipeline_cache: PipelineCache | None = None
        #: Run the between-pass IR verifier (:mod:`repro.compiler.verify`)
        #: during the pass pipeline.  Off by default -- the oracle switches
        #: it on under the campaign's ``verify_ir`` policy.  Only mini-C has
        #: an IR to verify; WHILE accepts the flag and ignores it.
        self.verify_ir = False

    # -- compilation -------------------------------------------------------------

    def compile_source(self, source: str, name: str = "<source>") -> CompileOutcome:
        """Compile program text; crashes and rejections are captured, never raised.

        The frontend verdicts and the pre-optimization module live in a memo
        private to this call, and no :attr:`pipeline_cache` is consulted.
        """
        return self._compile(name, source, None)

    def compile_variant(self, variant: BoundVariant, name: str = "<variant>") -> CompileOutcome:
        """Compile a bound variant, sharing work across the oracle matrix.

        The variant's AST is rebound in O(holes) -- no render, no re-parse.
        Frontend verdicts and the pre-optimization module are memoised on
        ``variant.cache``, so every configuration reuses them.  With a
        :attr:`pipeline_cache` wired, the pipeline run is looked up under
        the language's key and replayed for any version whose fault set
        answers the recorded run's fault queries the same way (see
        :class:`PipelineCache`).  Observationally identical to
        :meth:`compile_source` of the variant's text.
        """
        return self._compile(name, None, variant)

    def _compile(
        self, name: str, source: str | None, variant: BoundVariant | None
    ) -> CompileOutcome:
        """The one compile flow: ``source`` text, or else ``variant``.

        Frontend checks run before the pre-optimization module is consulted
        (a frontend crash masks a lowering rejection), and ill-formed-IR
        attribution after the pipeline: neither is part of a record, so a
        record serves every version that answers its transcript alike.
        """
        outcome = CompileOutcome(
            source_name=name,
            version=self.version.name,
            opt_level=self.opt_level,
            machine_bits=self.machine_bits,
        )
        faults = FaultSet(faults=self._fault_dict, opt_level=int(self.opt_level))
        cache = None if variant is None else self.pipeline_cache
        try:
            if variant is None:
                program, memo = self._parse(source), {}
            else:
                program, memo = variant.program, variant.cache
            self._frontend_checks(program, faults, memo, outcome.coverage)
            module, sha, key = self._pre_optimization(program, memo, variant)
            record = None if cache is None else cache.get(key, faults)
            if record is None:
                record = self._run_pipeline_recorded(module, sha, faults, outcome)
                if cache is not None:
                    cache.put(key, record)
            else:
                for event, count in record.coverage:
                    outcome.coverage.record(event, count)
                faults.triggered.extend(record.triggered)
                outcome.compile_effort = record.compile_effort
            if record.crash is not None:
                faults.crash(*record.crash)
            if record.ill_formed is not None:
                self._attribute_ill_formed(record.ill_formed[0], faults)
            outcome.module = record.module
            outcome.module_sha = record.module_sha
            outcome.ill_formed = record.ill_formed
            outcome.success = True
        except InternalCompilerError as crash:
            outcome.crash = crash
        except self.rejection_types as rejection:
            outcome.rejected = str(rejection)
        outcome.triggered_faults = list(dict.fromkeys(faults.triggered))
        return outcome

    def _frontend_checks(
        self, program, faults: FaultSet, memo: dict, coverage: CoverageRecorder
    ) -> None:
        """Crash on the first armed frontend fault whose check fires.

        The fault set only gates whether a verdict fires, so each verdict is
        computed once per memo -- once per variant -- and replayed for every
        configuration: same crashes, same details, same order.
        """
        for fault_id, check in self.frontend_checks:
            if faults.active(fault_id):
                detail = memo.get(fault_id, _UNSET)
                if detail is _UNSET:
                    detail = memo[fault_id] = check(program)
                if detail is not None:
                    faults.crash(fault_id, detail=detail)

    def _run_pipeline_recorded(
        self, module, sha: str, faults: FaultSet, outcome: CompileOutcome
    ) -> PipelineRecord:
        """Run the pipeline once on ``module`` and capture its effects as a record.

        The record holds only the events recorded after the frontend's (a
        pipeline records no frontend event), so a replay does not count a
        frontend event twice.  A pipeline that returns ``module`` itself
        (mini-C's empty ``-O0`` pipeline) reuses its sha; any other
        optimized module is rendered and hashed once, for the VM-result
        cache.
        """
        base = len(faults.triggered)
        mark = len(outcome.coverage.counts)
        optimized = crash = module_sha = None
        faults.transcript = {}
        try:
            optimized = self._optimize(module, faults, outcome)
        except InternalCompilerError as error:
            crash = (error.fault_id, error.detail)
        transcript = tuple(faults.transcript.items())
        faults.transcript = None
        if crash is None:
            module_sha = sha
            if optimized is not module:
                module_sha = hashlib.sha256(str(optimized).encode()).hexdigest()
        return PipelineRecord(
            optimized,
            module_sha,
            crash,
            tuple(dict.fromkeys(faults.triggered[base:])),
            tuple(outcome.coverage.counts.items())[mark:],
            outcome.compile_effort,
            transcript,
            outcome.ill_formed,
        )

    def _attribute_ill_formed(self, pass_name: str, faults: FaultSet) -> None:
        """Mark this version's ill-formed-IR faults of ``pass_name`` triggered.

        Ill-formed-IR faults deliberately stay silent inside the passes (so
        verification-off campaigns remain byte-identical); the verifier is
        the observer, so once it has stopped the pipeline after
        ``pass_name`` every matching seeded fault is marked triggered --
        which gives the filed bug its component/priority metadata and a
        stable triggered-faults dedup key.  Runs outside the cached region:
        it reads the version's fault definitions, not the run's queries.
        """
        for fault in self._fault_dict.values():
            if (
                fault.kind is FaultKind.ILL_FORMED_IR
                and fault.pass_name == pass_name
                and fault.active_at(int(self.opt_level))
            ):
                faults.trigger(fault.id)

    # -- execution ----------------------------------------------------------------

    def run(self, outcome: CompileOutcome, entry: str = "main") -> ExecutionResult:
        """Execute the produced module; a run that reaches
        :data:`TIER_UP_STEPS` on the interpreting tier restarts in the
        generated tier at the full budget."""
        if not outcome.success or outcome.module is None:
            return ExecutionResult(ExecutionStatus.ERROR, detail="compilation did not succeed")
        budget = self.vm_max_steps
        result = self._interpret(outcome.module, entry, min(budget, TIER_UP_STEPS))
        if budget <= TIER_UP_STEPS or result.status is not ExecutionStatus.TIMEOUT:
            return result
        return self._generated(outcome.module, entry, budget)

    def compile_and_run(
        self, source: str, name: str = "<source>", entry: str = "main"
    ) -> tuple[CompileOutcome, ExecutionResult | None]:
        """Compile then execute; execution is skipped when compilation fails."""
        outcome = self.compile_source(source, name=name)
        if not outcome.success:
            return outcome, None
        return outcome, self.run(outcome, entry=entry)

    # -- language hooks -----------------------------------------------------------------

    @abc.abstractmethod
    def _parse(self, source: str):
        """Parse program text; raises one of :attr:`rejection_types`."""

    @abc.abstractmethod
    def _pre_optimization(
        self, program, memo: dict, variant: BoundVariant | None
    ) -> tuple[object, str, tuple]:
        """``(module, content sha of its text, pipeline-cache key)``.

        The module is what the pipeline starts from; it is memoised in
        ``memo`` and shared, so the pipeline must not mutate it.
        """

    @abc.abstractmethod
    def _optimize(self, module, faults: FaultSet, outcome: CompileOutcome):
        """Run the pipeline on ``module``; return the optimized module.

        Records the pipeline's coverage, compile effort and (mini-C only)
        verifier verdict on ``outcome``; a crash raises.
        """

    @abc.abstractmethod
    def _interpret(self, module, entry: str, budget: int) -> ExecutionResult:
        """Run the produced module on the interpreting tier."""

    @abc.abstractmethod
    def _generated(self, module, entry: str, budget: int) -> ExecutionResult:
        """Run the produced module on the generated tier."""


def _identical_arms(unit: ast.TranslationUnit) -> str | None:
    for node in unit.walk():
        if isinstance(node, ast.Conditional):
            if expr_to_source(node.then_expr) == expr_to_source(node.else_expr):
                return f"'{expr_to_source(node.then_expr)}'"
    return None


def _conditional_depth(node: ast.Node) -> int:
    best = 0
    for child in node.children():
        best = max(best, _conditional_depth(child))
    return best + 1 if isinstance(node, ast.Conditional) else best


def _deep_conditional(unit: ast.TranslationUnit) -> str | None:
    return "" if _conditional_depth(unit) >= 3 else None


def _goto_into_scope(unit: ast.TranslationUnit) -> str | None:
    """Detail string of the first goto-into-scope violation, if any."""
    for function in unit.functions():
        gotos = [node for node in function.walk() if isinstance(node, ast.Goto)]
        if not gotos:
            continue
        for block in function.walk():
            if not isinstance(block, ast.Block) or block is function.body:
                continue
            has_decls = any(isinstance(item, ast.DeclStmt) for item in block.items)
            if not has_decls:
                continue
            labels = {
                node.name for node in block.walk() if isinstance(node, ast.Label)
            }
            gotos_inside = {
                id(node) for node in block.walk() if isinstance(node, ast.Goto)
            }
            for goto in gotos:
                if goto.label in labels and id(goto) not in gotos_inside:
                    return f"label {goto.label!r}"
    return None


class Compiler(CompileDriver):
    """The mini-C compiler: parse + resolve, frontend checks, lowering to IR,
    the pass pipeline of the ``-O`` level, and the closure VM with its
    generated tier for the produced code."""

    rejection_types = (MiniCError, CompilationError)
    frontend_checks = (
        ("frontend-identical-arms", _identical_arms),
        ("frontend-nested-conditional-depth", _deep_conditional),
        ("frontend-goto-into-scope", _goto_into_scope),
    )

    def __init__(
        self,
        version: str | CompilerVersion = "reference",
        opt_level: OptimizationLevel | int = OptimizationLevel.O2,
        machine_bits: int = 64,
        vm_max_steps: int = 500_000,
    ) -> None:
        super().__init__(version, opt_level, machine_bits, vm_max_steps)
        # Shared across compilations: passes are stateless (all per-run state
        # lives in the PassContext) and Fault objects are immutable -- only
        # the FaultSet's ``triggered`` list is per-compilation.
        self._pipeline = build_pass_pipeline(self.opt_level)

    def _parse(self, source: str) -> ast.TranslationUnit:
        unit = parse(source)
        resolve(unit)
        return unit

    def _pre_optimization(
        self, unit: ast.TranslationUnit, memo: dict, variant: BoundVariant | None
    ) -> tuple[IRModule, str, tuple]:
        """The lowered IR, computed and rendered once per memo.

        A lowering rejection is memoised too (as the exception) so every
        configuration reports the identical rejection string.  The key is
        ``(opt level, machine bits, verify flag, lowered sha)``: the
        verifier stops the pipeline at its first violation, so verified and
        unverified runs are kept apart.
        """
        lowered = memo.get("lowered_ir")
        if lowered is None:
            try:
                lowered = lower_module(unit)
            except CompilationError as error:
                lowered = error
            memo["lowered_ir"] = lowered
        if isinstance(lowered, CompilationError):
            raise lowered
        sha = memo.get("lowered_sha")
        if sha is None:
            sha = memo["lowered_sha"] = hashlib.sha256(str(lowered).encode()).hexdigest()
        verify = self.verify_ir and bool(self._pipeline)
        return lowered, sha, (int(self.opt_level), self.machine_bits, verify, sha)

    def _optimize(self, lowered: IRModule, faults: FaultSet, outcome: CompileOutcome) -> IRModule:
        """Run the passes on a private clone; an empty (``-O0``) pipeline
        cannot mutate the shared lowered module, so it runs on it directly."""
        module = clone_module(lowered) if self._pipeline else lowered
        context = PassContext(
            module=module,
            coverage=outcome.coverage,
            faults=faults,
            optimization_level=int(self.opt_level),
        )
        pipeline = self._pipeline
        verify = self.verify_ir and bool(pipeline)
        for function in module.functions.values():
            outcome.coverage.record("frontend.function_lowered")
            for pass_instance in pipeline:
                outcome.coverage.record(f"pipeline.{pass_instance.name}")
                changed = pass_instance.run(function, context)
                if changed:
                    outcome.coverage.record(f"pipeline.{pass_instance.name}.changed")
                # Verify after any pass that reports a change, plus after
                # every simplify-cfg run: only simplify-cfg owes the
                # no-unreachable-blocks invariant, and its seeded
                # ill-formed fault can corrupt without reporting a change.
                if verify and (changed or pass_instance.name == "simplify-cfg"):
                    violation = first_violation(
                        function,
                        module,
                        check_unreachable=pass_instance.name == "simplify-cfg",
                    )
                    if violation is not None:
                        outcome.ill_formed = (pass_instance.name, str(violation))
                        outcome.compile_effort = sum(
                            context.statistics.values()
                        ) + instruction_count(module)
                        return module
        outcome.compile_effort = sum(context.statistics.values()) + instruction_count(module)
        return module

    def _interpret(self, module: IRModule, entry: str, budget: int) -> ExecutionResult:
        return VirtualMachine(module, max_steps=budget).run(entry)

    def _generated(self, module: IRModule, entry: str, budget: int) -> ExecutionResult:
        # Loaded by the first tier-up: processes whose runs all stop early,
        # WHILE campaigns among them, never compile the generated tier.
        from repro.compiler.codegen import GeneratedModule

        return GeneratedModule(module).run(entry, budget)


__all__ = [
    "CompilationError",
    "CompileDriver",
    "CompileOutcome",
    "Compiler",
    "InternalCompilerError",
    "PipelineCache",
    "PipelineRecord",
]
