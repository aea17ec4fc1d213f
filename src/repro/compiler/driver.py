"""The compiler driver: source text in, compiled module (or crash) out.

``Compiler`` glues the whole pipeline together the way the campaign harness
uses a real compiler binary:

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

import hashlib
from dataclasses import dataclass, field

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
    module: IRModule | None = None
    crash: InternalCompilerError | None = None
    rejected: str | None = None  # legitimate frontend rejection message
    coverage: CoverageRecorder = field(default_factory=CoverageRecorder)
    triggered_faults: list[str] = field(default_factory=list)
    compile_effort: int = 0
    #: Content sha of ``str(module)``, stamped when the compiler already knows
    #: it (the pipeline-cache paths): lets the oracle's VM-result cache key a
    #: run without re-rendering the module text.  ``None`` on legacy paths.
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

#: Budget of a run of produced code on its interpreting tier before it is
#: restarted in generated Python: the closure VM's here
#: (:mod:`repro.compiler.codegen`), the WHILE interpreter's in
#: :meth:`repro.lang.compile.WhileCompiler.run` (:mod:`repro.lang.codegen`).
#: Campaign runs of both languages stop within ~100 steps or exhaust the
#: budget, so any value from ~1,000 to ~20,000 selects the same runs.  The
#: restart is exact because both interpreting tiers are deterministic and a
#: run's only output is its result.
TIER_UP_STEPS = 4_000


class Compiler:
    """A simulated compiler binary: one version at one optimization level."""

    def __init__(
        self,
        version: str | CompilerVersion = "reference",
        opt_level: OptimizationLevel | int = OptimizationLevel.O2,
        machine_bits: int = 64,
        vm_max_steps: int = 500_000,
    ) -> None:
        self.version = get_version(version) if isinstance(version, str) else version
        self.opt_level = OptimizationLevel(int(opt_level))
        self.machine_bits = machine_bits
        self.vm_max_steps = vm_max_steps
        # Shared across compilations: passes are stateless (all per-run state
        # lives in the PassContext) and Fault objects are immutable -- only
        # the FaultSet's ``triggered`` list is per-compilation.
        self._pipeline = build_pass_pipeline(self.opt_level)
        self._fault_dict = {fault.id: fault for fault in self.version.faults}
        #: Optional campaign-scoped :class:`PipelineCache`; when wired (the
        #: harness does this for every executor of its oracle matrix),
        #: ``compile_variant`` memoises pass-pipeline outcomes by content.
        self.pipeline_cache: PipelineCache | None = None
        #: Run the between-pass IR verifier (:mod:`repro.compiler.verify`)
        #: during the pass pipeline.  Off by default -- the oracle switches
        #: it on under the campaign's ``verify_ir`` policy; with it off the
        #: driver's behaviour is bit-for-bit the pre-verifier behaviour.
        self.verify_ir = False

    def _fresh_faults(self) -> FaultSet:
        return FaultSet(faults=self._fault_dict, opt_level=int(self.opt_level))

    # -- compilation -------------------------------------------------------------

    def compile_source(self, source: str, name: str = "<source>") -> CompileOutcome:
        """Compile C source text; never raises for crashes (they are captured)."""

        def build(faults: FaultSet) -> IRModule:
            unit = parse(source)
            resolve(unit)
            self._frontend_checks(unit, faults)
            return lower_module(unit)

        return self._compile(name, build)

    def compile_unit(self, unit: ast.TranslationUnit, name: str = "<unit>") -> CompileOutcome:
        """Compile an already-parsed *and resolved* translation unit.

        Skips the textual frontend entirely: no render, no re-lex, no
        re-parse, no re-resolve.  The unit's identifier ``decl``/``ctype``
        links must be up to date (fresh from :func:`repro.minic.symbols.
        resolve` or maintained by ``Skeleton.bind``).
        """

        def build(faults: FaultSet) -> IRModule:
            self._frontend_checks(unit, faults)
            return lower_module(unit)

        return self._compile(name, build)

    def compile_variant(self, variant: BoundVariant, name: str = "<variant>") -> CompileOutcome:
        """Compile a bound variant, sharing one lowering across the oracle matrix.

        The variant's AST is rebound in O(holes); the lowered IR is computed
        once per variant (memoised on ``variant.cache``) and *cloned* per
        configuration so each pass pipeline mutates a private copy.  The
        per-configuration order of effects matches :meth:`compile_source`:
        frontend fault checks run before lowering is consulted, so a
        frontend crash masks a lowering rejection exactly as in the textual
        path.

        With a :attr:`pipeline_cache` wired, the pass-pipeline run is keyed
        on the opt level, machine bits, verify flag and the content sha of
        the pre-optimization lowered module, and replayed from cache for any
        version whose fault set answers the recorded run's fault queries
        the same way (see :class:`PipelineCache`).  Frontend fault verdicts
        and the lowered module's sha are additionally memoised per variant,
        and at ``-O0`` (empty pipeline) the shared lowered module is used
        directly -- no passes can mutate it, so no private clone is needed.
        All of it is observationally identical to the uncached path.
        """
        cache = self.pipeline_cache
        if cache is None:

            def build(faults: FaultSet) -> IRModule:
                unit = variant.program
                self._frontend_checks(unit, faults)
                return self._lowered_clone(variant, unit)

            return self._compile(name, build)
        return self._compile_variant_cached(variant, name, cache)

    def _compile_variant_cached(
        self, variant: BoundVariant, name: str, cache: PipelineCache
    ) -> CompileOutcome:
        """The pipeline-dedup fast path of :meth:`compile_variant`.

        Frontend checks run before the cached region and ill-formed-IR
        attribution after it, both per configuration: neither is part of
        a record, so a record serves every version that answers its
        transcript alike.
        """
        outcome = CompileOutcome(
            source_name=name,
            version=self.version.name,
            opt_level=self.opt_level,
            machine_bits=self.machine_bits,
        )
        faults = self._fresh_faults()
        try:
            unit = variant.program
            self._frontend_checks_variant(variant, unit, faults)
            lowered = self._lowered_cached(variant, unit)
            lowered_sha = self._lowered_sha(variant, lowered)
            verify = self.verify_ir and bool(self._pipeline)
            key = (int(self.opt_level), self.machine_bits, verify, lowered_sha)
            record = cache.get(key, faults)
            if record is None:
                record = self._run_pipeline_recorded(lowered, lowered_sha, faults, outcome)
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
        except (MiniCError, CompilationError) as rejection:
            outcome.rejected = str(rejection)
        outcome.triggered_faults = list(dict.fromkeys(faults.triggered))
        return outcome

    def _run_pipeline_recorded(
        self,
        lowered: IRModule,
        lowered_sha: str,
        faults: FaultSet,
        outcome: CompileOutcome,
    ) -> PipelineRecord:
        """Run the pass pipeline once and capture its effects as a record.

        An empty pipeline (``-O0``) cannot mutate the module, so the shared
        lowered module is used directly (its text -- and therefore its sha --
        is the lowered sha); otherwise the pipeline runs on a private clone
        whose rendered text is hashed once for the VM-result cache.
        """
        base = len(faults.triggered)
        module = clone_module(lowered) if self._pipeline else lowered
        crash: tuple[str, str] | None = None
        faults.transcript = {}
        try:
            self._run_pipeline(module, faults, outcome)
        except InternalCompilerError as error:
            crash = (error.fault_id, error.detail)
        transcript = tuple(faults.transcript.items())
        faults.transcript = None
        triggered = tuple(dict.fromkeys(faults.triggered[base:]))
        coverage = tuple(outcome.coverage.counts.items())
        if crash is not None:
            return PipelineRecord(
                None, None, crash, triggered, coverage, outcome.compile_effort, transcript
            )
        if module is lowered:
            module_sha = lowered_sha
        else:
            module_sha = hashlib.sha256(str(module).encode()).hexdigest()
        return PipelineRecord(
            module,
            module_sha,
            None,
            triggered,
            coverage,
            outcome.compile_effort,
            transcript,
            outcome.ill_formed,
        )

    def _compile(self, name: str, build_module) -> CompileOutcome:
        """Shared scaffolding: run ``build_module`` + the pass pipeline,
        capturing crashes and rejections into the outcome."""
        outcome = CompileOutcome(
            source_name=name,
            version=self.version.name,
            opt_level=self.opt_level,
            machine_bits=self.machine_bits,
        )
        faults = self._fresh_faults()
        try:
            module = build_module(faults)
            self._run_pipeline(module, faults, outcome)
            if outcome.ill_formed is not None:
                self._attribute_ill_formed(outcome.ill_formed[0], faults)
            outcome.module = module
            outcome.success = True
        except InternalCompilerError as crash:
            outcome.crash = crash
        except (MiniCError, CompilationError) as rejection:
            outcome.rejected = str(rejection)
        outcome.triggered_faults = list(dict.fromkeys(faults.triggered))
        return outcome

    @staticmethod
    def _lowered_cached(variant: BoundVariant, unit: ast.TranslationUnit) -> IRModule:
        """The variant's lowered IR, computed once and shared read-only.

        A lowering rejection is memoised too (as the exception) so every
        configuration reports the identical rejection string.
        """
        cached = variant.cache.get("lowered_ir")
        if cached is None:
            try:
                cached = lower_module(unit)
            except CompilationError as error:
                cached = error
            variant.cache["lowered_ir"] = cached
        if isinstance(cached, CompilationError):
            raise cached
        return cached

    @staticmethod
    def _lowered_clone(variant: BoundVariant, unit: ast.TranslationUnit) -> IRModule:
        """The variant's lowered IR: computed once, cloned per configuration."""
        return clone_module(Compiler._lowered_cached(variant, unit))

    @staticmethod
    def _lowered_sha(variant: BoundVariant, lowered: IRModule) -> str:
        """Content sha of the lowered module text, rendered once per variant."""
        sha = variant.cache.get("lowered_sha")
        if sha is None:
            sha = hashlib.sha256(str(lowered).encode()).hexdigest()
            variant.cache["lowered_sha"] = sha
        return sha

    def _frontend_checks_variant(
        self, variant: BoundVariant, unit: ast.TranslationUnit, faults: FaultSet
    ) -> None:
        """:meth:`_frontend_checks` with per-variant verdict memoisation.

        The three frontend checks are pure functions of the unit (the fault
        set only gates whether a verdict *fires*), so their verdicts are
        computed once per variant and replayed for every configuration whose
        fault set activates them -- same crashes, same detail strings, in the
        same order as the unmemoised walk.
        """
        memo = variant.cache
        if faults.active("frontend-identical-arms"):
            detail = memo.get("fe_identical_arms", _UNSET)
            if detail is _UNSET:
                detail = None
                for node in unit.walk():
                    if isinstance(node, ast.Conditional):
                        if expr_to_source(node.then_expr) == expr_to_source(node.else_expr):
                            detail = f"'{expr_to_source(node.then_expr)}'"
                            break
                memo["fe_identical_arms"] = detail
            if detail is not None:
                faults.crash("frontend-identical-arms", detail=detail)
        if faults.active("frontend-nested-conditional-depth"):
            depth = memo.get("fe_conditional_depth")
            if depth is None:
                depth = memo["fe_conditional_depth"] = self._max_conditional_depth(unit)
            if depth >= 3:
                faults.crash("frontend-nested-conditional-depth")
        if faults.active("frontend-goto-into-scope"):
            detail = memo.get("fe_goto_into_scope", _UNSET)
            if detail is _UNSET:
                detail = memo["fe_goto_into_scope"] = self._first_goto_into_scope(unit)
            if detail is not None:
                faults.crash("frontend-goto-into-scope", detail=detail)

    # -- execution ----------------------------------------------------------------

    def run(self, outcome: CompileOutcome, entry: str = "main") -> ExecutionResult:
        """Execute the compiled module on the closure VM; a run that reaches
        :data:`TIER_UP_STEPS` restarts in the generated tier at the full budget."""
        if not outcome.success or outcome.module is None:
            return ExecutionResult(ExecutionStatus.ERROR, detail="compilation did not succeed")
        budget = self.vm_max_steps
        result = VirtualMachine(outcome.module, max_steps=min(budget, TIER_UP_STEPS)).run(entry)
        if budget <= TIER_UP_STEPS or result.status is not ExecutionStatus.TIMEOUT:
            return result
        # Loaded by the first tier-up: processes whose runs all stop early,
        # WHILE campaigns among them, never compile the generated tier.
        from repro.compiler.codegen import GeneratedModule

        return GeneratedModule(outcome.module).run(entry, budget)

    def compile_and_run(
        self, source: str, name: str = "<source>", entry: str = "main"
    ) -> tuple[CompileOutcome, ExecutionResult | None]:
        """Compile then execute; execution is skipped when compilation fails."""
        outcome = self.compile_source(source, name=name)
        if not outcome.success:
            return outcome, None
        return outcome, self.run(outcome, entry=entry)

    # -- internals ------------------------------------------------------------------

    def _run_pipeline(self, module: IRModule, faults: FaultSet, outcome: CompileOutcome) -> None:
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
                        return
        outcome.compile_effort = sum(context.statistics.values()) + instruction_count(module)

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

    # -- frontend seeded faults --------------------------------------------------------

    def _frontend_checks(self, unit: ast.TranslationUnit, faults: FaultSet) -> None:
        if faults.active("frontend-identical-arms"):
            for node in unit.walk():
                if isinstance(node, ast.Conditional):
                    if expr_to_source(node.then_expr) == expr_to_source(node.else_expr):
                        faults.crash(
                            "frontend-identical-arms",
                            detail=f"'{expr_to_source(node.then_expr)}'",
                        )
        if faults.active("frontend-nested-conditional-depth"):
            if self._max_conditional_depth(unit) >= 3:
                faults.crash("frontend-nested-conditional-depth")
        if faults.active("frontend-goto-into-scope"):
            self._check_goto_into_scope(unit, faults)

    @staticmethod
    def _max_conditional_depth(unit: ast.TranslationUnit) -> int:
        def depth(node: ast.Node) -> int:
            best = 0
            for child in node.children():
                best = max(best, depth(child))
            if isinstance(node, ast.Conditional):
                return best + 1
            return best

        return depth(unit)

    @staticmethod
    def _check_goto_into_scope(unit: ast.TranslationUnit, faults: FaultSet) -> None:
        detail = Compiler._first_goto_into_scope(unit)
        if detail is not None:
            faults.crash("frontend-goto-into-scope", detail=detail)

    @staticmethod
    def _first_goto_into_scope(unit: ast.TranslationUnit) -> str | None:
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


__all__ = [
    "CompilationError",
    "CompileOutcome",
    "Compiler",
    "InternalCompilerError",
    "PipelineCache",
    "PipelineRecord",
]
