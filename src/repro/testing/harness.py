"""The campaign harness: SPE over a corpus against a matrix of compilers.

``Campaign`` is the top-level driver the experiments use.  It is
language-agnostic: every language-specific step -- parsing seeds into
skeletons, reference-interpreting variants, building the compiler
configuration matrix, reducing bug triggers -- goes through the frontend
plug-in protocol (:mod:`repro.frontends`), selected by
``CampaignConfig.frontend`` (the CLI's ``--lang``).  A run has three
phases:

1. **Plan** -- for every seed program, extract the skeleton and count its
   canonical variants (a closed form, no enumeration); skip files above the
   enumeration threshold (paper Section 5.2.1); decide which variant indices
   to test (a prefix range, or a uniform sample with ``sample_per_file``);
   cut each file's index set into fixed-size blocks
   (``CampaignConfig.unit_variants`` -- block boundaries never depend on the
   shard count, which keeps durable-store unit keys stable across
   parallelism changes); and deal whole blocks round-robin across
   ``shard_count`` disjoint :class:`CampaignShard`\\ s.
2. **Execute** -- each shard re-extracts its skeletons (parsing and
   resolving each seed exactly once), reaches its variants directly by
   rank/unrank (no predecessor is enumerated), and tests each against every
   configured compiler configuration through the
   :class:`~repro.testing.oracle.DifferentialOracle`.  Variants are realized
   by *rebinding* the skeleton's AST in O(holes) -- no render, re-lex,
   re-parse or re-resolve per variant -- and one lowering is shared across
   the whole configuration matrix; source text is rendered only when a bug
   is filed (``use_ast_rebinding=False`` restores the legacy
   render+reparse pipeline).  Shards carry plain seed source text, so they
   can run in worker processes
   (:class:`~repro.testing.executor.ProcessPoolExecutor`) or on another
   machine entirely (``--shard i/n`` on the CLI).
3. **Merge** -- shard results are combined with :meth:`CampaignResult.merge`:
   counters sum, bug databases union by signature, wall-clock takes the max.
   A serial run and any sharding of it produce the same summary and the same
   distinct bug set -- except under ``stop_after_bugs``, which is enforced
   per shard (shards cannot observe each other mid-flight), so a sharded run
   may test more variants and report up to ``shards x stop_after_bugs`` bugs
   before the merge sees the limit.

Variant names embed the *global* enumeration index (``file.c#17``), so
observations are stable across shardings and resumable: a crashed shard can
be re-run in isolation and merged into the rest.

With ``CampaignConfig.state_dir`` set, the pipeline is additionally
*durable* (:mod:`repro.store`): every completed :class:`ShardUnit` is
appended to a crash-tolerant JSONL journal as it finishes -- by the worker
process itself, so nothing is lost when a worker, the pool or the driver
dies mid-run.  ``run_sources(resume=True)`` replays journaled units instead
of re-executing them (the merged result is identical to an uninterrupted
run), and ``run_sources(incremental=True)`` re-tests only the compiler
versions a unit has not yet covered, so growing the version matrix re-runs
only the new columns.

Bugs can be *triaged* as they are filed (:mod:`repro.triage`):
``CampaignConfig.reduce_bugs`` selects which bug kinds get their trigger
programs minimised by the chunked ddmin reducer (preserving the bug's dedup
key, hence its ``bug_id``), and ``CampaignConfig.bisect_bugs`` attributes
each distinct bug to the compiler-lineage version that introduced it
(``BugReport.introduced_in``).  The same pipeline runs after the fact over
a journaled campaign via the ``repro triage`` CLI command.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import random
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.compiler.driver import PipelineCache
from repro.compiler.pipeline import OptimizationLevel
from repro.core.execution import ExecutionResult
from repro.core.holes import BoundVariant, Skeleton
from repro.core.naive import NaiveSkeletonEnumerator
from repro.core.ranking import sample_distinct_indices
from repro.core.spe import EnumerationBudget, SkeletonEnumerator
from repro.core.problem import Granularity
from repro.frontends import get_frontend
from repro.store import (
    CampaignStore,
    JournalWriter,
    QuarantineRecord,
    config_fingerprint,
    merge_unit_records,
    source_sha,
    unit_key_for,
)
from repro.testing.bugs import BugDatabase, BugReport
from repro.testing.executor import SerialExecutor, default_executor, worker_source
from repro.testing.oracle import DifferentialOracle, Observation

# The triage engine (repro.triage) is imported lazily inside the methods
# that use it: its modules import repro.testing.bugs/oracle back, so a
# module-level import here would cycle through the package __init__.


class CampaignInterrupted(RuntimeError):
    """Raised by the ``fail_after_units`` fault-injection knob.

    Crash-safety tests use it to hard-interrupt a run mid-shard (in-process
    or inside a pool worker) at a deterministic point; everything journaled
    before the interruption must survive and be replayable.
    """


class ChaosError(RuntimeError):
    """A deterministically injected worker exception (see :class:`ChaosSpec`)."""


class UnitDeadlineExpired(Exception):
    """A unit overran ``CampaignConfig.unit_timeout`` (worker-side alarm)."""


class UnitExecutionError(RuntimeError):
    """A unit failed, wrapped with the unit's identity.

    The supervisor raises it in the parent when a unit exhausts its retry
    budget under ``on_fault="abort"``: it names the unit that caused the
    abort -- seed name, journal key and exact index slice -- instead of only
    the raw traceback, so an aborted campaign's operator knows *which* work
    to exclude or retry.
    """

    def __init__(
        self,
        message: str,
        *,
        unit_key: str = "",
        unit_name: str = "",
        span: str = "",
        kind: str = "exception",
    ) -> None:
        super().__init__(message)
        self.unit_key = unit_key
        self.unit_name = unit_name
        self.span = span
        self.kind = kind

    @staticmethod
    def for_unit(unit: "ShardUnit", kind: str, detail: str) -> "UnitExecutionError":
        span = unit_span(unit)
        return UnitExecutionError(
            f"unit {unit.name}{span} (key {unit_key_for(unit)}) failed: {kind}: {detail}",
            unit_key=unit_key_for(unit),
            unit_name=unit.name,
            span=span,
            kind=kind,
        )


def unit_span(unit: "ShardUnit") -> str:
    """Human-readable index slice of a unit (``[0:32)`` / ``indices[6]``)."""
    if unit.indices is not None:
        return f"indices[{len(unit.indices)}]"
    return f"[{unit.start}:{unit.stop})"


@dataclass(frozen=True)
class ChaosSpec:
    """Deterministic fault injection at planned unit ordinals.

    Every planned :class:`ShardUnit` carries its position in the (stable,
    shard-count-independent) planning order as ``ordinal``; a chaos spec
    names ordinals at which the worker misbehaves *at the start of the
    unit*, on **every** attempt -- injected faults are deterministic, which
    is exactly what makes an injected unit a poison unit the supervisor must
    quarantine rather than a flake a retry absorbs:

    * ``crash_at`` -- the worker SIGKILLs itself (no cleanup, no journal
      flush): the process-pool observable of a segfault or the OOM killer;
    * ``hang_at`` -- the worker sleeps ``hang_seconds`` (chosen to overrun
      any sane ``unit_timeout``).  With ``hang_hard=True`` SIGALRM is
      blocked for the duration, so the worker-side deadline cannot fire and
      only the parent watchdog (kill + respawn + bisect) can recover --
      the stand-in for a worker stuck in uninterruptible C code;
    * ``raise_at`` -- the worker raises :class:`ChaosError`: an ordinary
      deterministic in-band failure.

    Reachable from the CLI (``--chaos-crash-at`` et al.) so the supervision
    layer is testable end to end; excluded from the store fingerprint.
    """

    crash_at: tuple[int, ...] = ()
    hang_at: tuple[int, ...] = ()
    raise_at: tuple[int, ...] = ()
    hang_seconds: float = 60.0
    hang_hard: bool = False

    def any(self) -> bool:
        return bool(self.crash_at or self.hang_at or self.raise_at)


#: Failure taxonomy of the supervision layer (see ARCHITECTURE.md section 9).
FAILURE_EXCEPTION = "exception"
FAILURE_HANG = "hang"
FAILURE_CRASH = "crash"


@dataclass(frozen=True)
class UnitFailure:
    """One unit's failure, as reported (or inferred) by the supervisor."""

    unit_key: str
    unit_name: str
    span: str
    kind: str  # exception | hang | crash
    detail: str


@dataclass
class ShardOutcome:
    """What a shard worker returns: per-unit outcomes, not just a merged
    result.

    ``result`` merges every unit that *completed* and ``units_done`` counts
    them; the worker journaled each of them itself, except the unit at
    which ``stop_after_bugs`` fired, which ``exhausted`` flags.
    ``failed`` holds at most one ``(position, failure)``: the shard stops at
    its first unit that raised or overran its worker-side deadline, and
    ``position`` indexes the dispatched unit tuple, so the supervisor knows
    which unit to charge and that every unit after it is still to run.
    Crashes and hard hangs never return an outcome at all; the supervisor
    infers those from the broken pool / its watchdog.
    """

    result: CampaignResult
    failed: tuple[tuple[int, UnitFailure], ...] = ()
    exhausted: bool = False
    units_done: int = 0


@contextlib.contextmanager
def unit_deadline(seconds: float | None):
    """Enforce a wall-clock deadline on the enclosed unit via ``SIGALRM``.

    Raises :class:`UnitDeadlineExpired` in the worker when the unit overruns
    -- a *soft* deadline that interrupts any pure-Python work (including an
    injected ``sleep``).  No-ops when no timeout is configured, on platforms
    without ``SIGALRM``, or off the main thread (the parent watchdog is the
    backstop for all of those, and for workers hung in C code).
    """
    if (
        seconds is None
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expire(signum, frame):
        raise UnitDeadlineExpired(f"unit exceeded its {seconds:g}s deadline")

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class CampaignConfig:
    """Configuration of one testing campaign.

    ``frontend`` names the language plug-in (see
    :func:`repro.frontends.available_frontends`); it is stored as the
    registry *name* so configs pickle cleanly into worker processes.
    ``versions``/``opt_levels`` default to the frontend's configuration
    matrix (for mini-C: scc/lcc trunks at -O0 and -O3) and are resolved at
    construction time.
    """

    frontend: str = "minic"
    versions: list[str] | None = None
    opt_levels: list[OptimizationLevel] | None = None
    machine_bits: list[int] = field(default_factory=lambda: [64])
    budget: EnumerationBudget = field(default_factory=lambda: EnumerationBudget(max_variants=10_000))
    granularity: Granularity = Granularity.INTRA_PROCEDURAL
    use_naive_enumeration: bool = False
    max_variants_per_file: int | None = 200
    #: Test a uniform random sample of this many variants per file instead of
    #: the first ``max_variants_per_file`` (which over-represents fillings
    #: that reuse few variables).  The sample is drawn per file from a seed
    #: derived from ``sample_seed`` and the file name, so it is stable across
    #: shardings and file orderings.
    sample_per_file: int | None = None
    sample_seed: int = 2017
    #: Worker processes for :meth:`Campaign.run_sources` (1 = in-process).
    jobs: int = 1
    #: Bug-trigger reduction policy (the triage engine's ddmin reducer,
    #: :mod:`repro.triage.reduce`): ``"off"`` files bugs untouched,
    #: ``"crash"`` minimises crash triggers (signature-preserving), and
    #: ``"all"`` additionally minimises wrong-code and performance triggers
    #: (divergence-signature-preserving -- the reduced program must file
    #: under the same ``bug_id``).  Booleans are accepted for backwards
    #: compatibility (``True`` == ``"crash"``, ``False`` == ``"off"``) and
    #: normalised at construction time.  Only the first observation of each
    #: distinct bug per unit is reduced; duplicates are recorded as-is.
    reduce_bugs: bool | str = False
    #: Attribute every newly filed bug to the compiler-lineage version that
    #: introduced it (:mod:`repro.triage.bisect`), recorded as
    #: ``BugReport.introduced_in``.  O(log versions) extra predicate
    #: evaluations per distinct bug, sharing the reduction's predicate
    #: cache.  Bugs can also be attributed after the fact with the
    #: ``repro triage`` CLI command against a campaign ``state_dir``.
    bisect_bugs: bool = False
    #: Stop once this many distinct bugs are filed.  Enforced per shard, so a
    #: parallel/sharded run may overshoot (each shard stops independently);
    #: only a serial single-shard run stops exactly at the limit.  See
    #: ``tests/testing/test_stop_after_bugs.py`` where this behaviour is
    #: pinned: a multi-shard run may test more variants and report up to
    #: ``shards x stop_after_bugs`` distinct bugs before the merge sees the
    #: limit.
    stop_after_bugs: int | None = None
    #: Realize variants by AST rebinding (parse each skeleton once, rebind
    #: hole identifiers per variant, compile/interpret the bound AST with one
    #: shared lowering per variant).  When False, every variant is rendered
    #: to text and re-parsed per compiler configuration: the last rung of
    #: the supervisor's degradation ladder (``supervisor._tier_config``), the
    #: slowest tier a retried unit drops to.  Vectors that would realize
    #: use-before-declaration programs always take the text path so that
    #: textual-frontend rejections are reproduced exactly.
    use_ast_rebinding: bool = True
    #: Planning granularity: each file's tested variant indices are cut into
    #: contiguous blocks of at most this many variants, and whole blocks are
    #: dealt round-robin across shards.  Block boundaries depend only on the
    #: file and this knob -- never on ``jobs`` or the shard count -- which is
    #: what keeps journal unit keys stable when a campaign is resumed with a
    #: different parallelism (part of the store fingerprint for that reason).
    unit_variants: int = 32
    #: Persist per-unit outcomes to this campaign state directory (an
    #: append-only JSONL journal + manifest, see :mod:`repro.store`).  Shard
    #: workers journal their own units, so a crashed run loses at most the
    #: unit in flight; ``run_sources(resume=True)`` replays journaled units
    #: instead of re-testing them, and ``incremental=True`` re-tests only the
    #: compiler versions a unit has not covered yet.  ``None`` keeps the
    #: campaign fully in-memory (the historical behaviour).
    state_dir: str | None = None
    #: Append a progress checkpoint to the journal every this many completed
    #: units (per shard worker); checkpoints are observability only -- resume
    #: correctness never depends on them.
    checkpoint_every: int = 10
    #: Fault injection for crash-safety tests: raise
    #: :class:`CampaignInterrupted` after this many units have completed in a
    #: shard (counted per worker).  ``None`` disables injection.
    fail_after_units: int | None = None
    #: Evaluate reference results in batches of this many variants through
    #: the frontend's batched execution tier
    #: (:meth:`~repro.frontends.base.Frontend.run_reference_batch`; for
    #: mini-C a per-skeleton generated-Python body,
    #: :mod:`repro.minic.codegen`).  Only the AST-rebinding path batches;
    #: vectors routed to the legacy text path inside a batch are still
    #: tested one at a time.  ``0`` or ``1`` disables batching: the scalar
    #: per-variant path, the first rung of the supervisor's degradation
    #: ladder (``supervisor._tier_config``) that a retried unit drops to.
    #: Observable results are byte-identical either way, so the knob is
    #: excluded from the durable store's config fingerprint.
    batch_size: int = 32
    #: Share one campaign-scoped pass-pipeline outcome cache across all
    #: oracles, keyed by ``(opt_level, machine_bits, verify flag,
    #: pre-optimization lowered-module hash)`` -- a compile of a lowered
    #: module already run by any version whose faults answer the run's
    #: recorded fault queries alike (the other trunk of the matrix,
    #: reference siblings, triage, incremental columns, repeated corpus
    #: content) replays the recorded optimized module, triggered-fault set
    #: and crash outcome instead of re-running the passes.  When False,
    #: every compile runs the full pipeline (the reference leg of the
    #: equivalence suites).  Throughput only; fingerprint-excluded.
    cache_pipeline_results: bool = True
    #: Per-unit wall-clock deadline in seconds, enforced on serial and pooled
    #: backends alike (worker-side ``SIGALRM`` alarm, with a parent-side
    #: watchdog backstop that kills and respawns a pool stuck past the
    #: deadline).  Setting it makes the campaign :attr:`supervised`.
    #: ``None`` disables deadlines.
    unit_timeout: float | None = None
    #: How many times the supervisor retries a failed or timed-out unit
    #: before resolving it (quarantine or abort, per ``on_fault``).  Retries
    #: degrade down the execution tiers: the first retry disables the
    #: batched reference tier, later ones fall back to the legacy
    #: render+reparse pipeline, so a codegen-tier bug costs one tier, not
    #: the campaign.  Only :attr:`supervised` campaigns retry; any other
    #: campaign resolves a unit on its first failure.
    max_retries: int = 2
    #: Base of the exponential backoff between retry attempts of one unit
    #: (``retry_backoff * 2**(attempt-1)`` seconds).  Zero disables waiting.
    retry_backoff: float = 0.1
    #: What to do with a unit that exhausts its retries: ``"abort"`` raises
    #: a :class:`UnitExecutionError` naming it (the fail-fast default),
    #: ``"quarantine"`` journals a ``type="quarantine"`` record, reports the
    #: unit in ``CampaignResult.quarantined`` and degrades gracefully:
    #: every other unit still produces its result, and resumed runs skip
    #: quarantined units instead of re-crashing on them forever.
    on_fault: str = "abort"
    #: Deterministic fault injection for supervision tests (see
    #: :class:`ChaosSpec`).  ``None`` injects nothing.
    chaos: ChaosSpec | None = None
    #: fsync the journal after every appended record (machine-crash
    #: durability) instead of once on close.  Operator-selectable
    #: crash-safety vs. throughput; fingerprint-excluded.
    fsync_journal: bool = False
    #: IR well-formedness verification between pipeline passes
    #: (:mod:`repro.compiler.verify`): ``"off"`` runs no verifier (the
    #: historical pipeline, byte-identical journals), ``"bugs"`` verifies the
    #: compiler under test and files violations as ``ill-formed-ir`` bugs
    #: naming the offending pass, ``"always"`` additionally verifies the
    #: fault-free reference compiles.  Policy knob, not a config identity:
    #: excluded from the durable store's fingerprint, and cached pipeline
    #: outcomes replay the recorded verdict (see ``PipelineRecord``).
    verify_ir: str = "off"
    #: Gate the oracle matrix behind the static UB sanitizer
    #: (:mod:`repro.compiler.sanitize`): variants whose AST carries a
    #: guaranteed-UB construct (use-before-init, constant division by zero,
    #: out-of-range shift/index) are classified *tainted* and skipped before
    #: any compilation, counted under ``observations["sanitized"]`` with
    #: ``sanitizer_*`` cache counters.  Off by default (byte-identical
    #: journals); fingerprint-excluded.
    sanitize: bool = False

    def __post_init__(self) -> None:
        frontend = get_frontend(self.frontend)
        self.frontend = frontend.name
        if self.versions is None:
            self.versions = list(frontend.default_versions)
        if self.opt_levels is None:
            self.opt_levels = list(frontend.default_opt_levels)
        if self.unit_variants < 1:
            raise ValueError(f"unit_variants must be positive, got {self.unit_variants}")
        if self.batch_size < 0:
            raise ValueError(f"batch_size must be non-negative, got {self.batch_size}")
        if self.unit_timeout is not None and self.unit_timeout <= 0:
            raise ValueError(f"unit_timeout must be positive, got {self.unit_timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {self.max_retries}")
        if self.retry_backoff < 0:
            raise ValueError(f"retry_backoff must be non-negative, got {self.retry_backoff}")
        if self.on_fault not in ("abort", "quarantine"):
            raise ValueError(
                f"on_fault must be 'abort' or 'quarantine', got {self.on_fault!r}"
            )
        if self.verify_ir not in DifferentialOracle.VERIFY_POLICIES:
            raise ValueError(
                f"verify_ir must be one of {DifferentialOracle.VERIFY_POLICIES}, "
                f"got {self.verify_ir!r}"
            )
        from repro.triage.engine import normalize_reduce_policy

        self.reduce_bugs = normalize_reduce_policy(self.reduce_bugs)

    @property
    def supervised(self) -> bool:
        """Does the supervisor retry this campaign's failed units?

        Every campaign runs through :mod:`repro.testing.supervisor`; this
        only picks the retry budget a failing unit is charged against:
        ``max_retries`` when any knob that changes failure handling is set,
        0 otherwise, so the default config aborts on its first failing unit.
        """
        return self.on_fault == "quarantine" or self.unit_timeout is not None

    def oracles(self) -> list[DifferentialOracle]:
        return [
            DifferentialOracle(
                version=version,
                opt_level=level,
                machine_bits=bits,
                frontend=self.frontend,
                verify_ir=self.verify_ir,
            )
            for version in self.versions
            for level in self.opt_levels
            for bits in self.machine_bits
        ]


@dataclass
class CampaignResult:
    """Everything a campaign (or one shard of it) produced."""

    bugs: BugDatabase = field(default_factory=BugDatabase)
    files_processed: int = 0
    files_skipped_budget: int = 0
    files_skipped_error: int = 0
    variants_tested: int = 0
    observations: dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: Units the supervisor gave up on (exhausted retries): the quarantine
    #: records, deduplicated by unit key.  Empty -- and absent from every
    #: serialized form -- in fault-free runs, which is what keeps supervised
    #: no-fault journals byte-identical to default-config ones.
    quarantined: list[QuarantineRecord] = field(default_factory=list)
    #: Campaign-cache hit/miss counters (module / pipeline / reference
    #: caches), attached at shard granularity -- never to per-unit results,
    #: so journal unit records are byte-identical with or without caching.
    #: Observability only: excluded from equality and from :meth:`summary`
    #: (resume fingerprints must not depend on cache behaviour).
    cache_stats: dict[str, int] = field(default_factory=dict, compare=False)

    def note_observation(self, observation: Observation) -> None:
        key = observation.kind.value
        self.observations[key] = self.observations.get(key, 0) + 1

    def note_quarantine(self, record: QuarantineRecord) -> None:
        if all(existing.key != record.key for existing in self.quarantined):
            self.quarantined.append(record)

    def merge(self, other: "CampaignResult") -> "CampaignResult":
        """Combine two shard results into one (neither input is modified).

        Counters sum, bug databases union by signature (duplicate counts are
        preserved), and wall-clock takes the max -- shards run concurrently,
        so the elapsed time of the whole campaign is the slowest shard's.
        The summary is independent of merge order.
        """
        observations = dict(self.observations)
        for key, count in other.observations.items():
            observations[key] = observations.get(key, 0) + count
        quarantined = list(self.quarantined)
        seen = {record.key for record in quarantined}
        quarantined.extend(
            record for record in other.quarantined if record.key not in seen
        )
        cache_stats = dict(self.cache_stats)
        for key, count in other.cache_stats.items():
            cache_stats[key] = cache_stats.get(key, 0) + count
        return CampaignResult(
            bugs=self.bugs.merge(other.bugs),
            files_processed=self.files_processed + other.files_processed,
            files_skipped_budget=self.files_skipped_budget + other.files_skipped_budget,
            files_skipped_error=self.files_skipped_error + other.files_skipped_error,
            variants_tested=self.variants_tested + other.variants_tested,
            observations=observations,
            wall_seconds=max(self.wall_seconds, other.wall_seconds),
            quarantined=quarantined,
            cache_stats=cache_stats,
        )

    def summary(self) -> str:
        lines = [
            f"files processed      : {self.files_processed}",
            f"files over threshold : {self.files_skipped_budget}",
            f"files skipped (error): {self.files_skipped_error}",
            f"variants tested      : {self.variants_tested}",
            f"distinct bugs        : {len(self.bugs)}",
        ]
        if self.quarantined:
            # Printed only when non-empty so fault-free summaries stay
            # byte-identical to the historical format.
            lines.append(f"quarantined units    : {len(self.quarantined)}")
        for kind, count in sorted(self.observations.items()):
            lines.append(f"  observations[{kind}]: {count}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ShardUnit:
    """One file's contribution to one shard: a slice of its variant indices.

    Carries the seed *source text* rather than the skeleton so the unit can
    cross process boundaries; the worker re-extracts the skeleton.  Either a
    contiguous ``[start, stop)`` range of the canonical enumeration or an
    explicit tuple of sampled ``indices``.

    Units sent to a pool worker are *slim* (see :class:`_Payloads`):
    ``source`` is empty and ``source_sha`` names the text in the worker's
    preloaded corpus.  The worker rehydrates the full source (and clears
    ``source_sha``) before executing, so everything downstream -- including
    the journal's content-derived unit keys, which hash ``source`` -- sees
    exactly the unit a serial run would.
    """

    name: str
    source: str
    start: int = 0
    stop: int = 0
    indices: tuple[int, ...] | None = None
    #: Exactly one unit per file is primary; it accounts the file in
    #: ``files_processed`` so that merged shard totals match a serial run.
    primary: bool = False
    #: Content sha of ``source`` in the worker-preloaded corpus; non-empty
    #: only on slim in-flight pool payloads, never on executed units.
    source_sha: str = ""
    #: Position in the deterministic planning order (file order x block
    #: order; independent of shard count and parallelism).  The address
    #: space of :class:`ChaosSpec` fault injection.  ``-1`` on ad-hoc units
    #: built outside :meth:`Campaign.plan`; never part of the journal key.
    ordinal: int = -1

    def num_variants(self) -> int:
        if self.indices is not None:
            return len(self.indices)
        return max(0, self.stop - self.start)


@dataclass(frozen=True)
class CampaignShard:
    """An independently executable slice of a campaign."""

    index: int
    units: tuple[ShardUnit, ...]

    def num_variants(self) -> int:
        return sum(unit.num_variants() for unit in self.units)


@dataclass
class CampaignPlan:
    """The sharded work layout plus plan-time bookkeeping.

    ``base`` holds the counters decided during planning (files skipped for
    budget or parse errors); it is merged into the final result so that the
    sum over shards plus ``base`` reproduces a serial run's summary.
    """

    shards: list[CampaignShard]
    base: CampaignResult

    def num_variants(self) -> int:
        return sum(shard.num_variants() for shard in self.shards)


class Campaign:
    """Run SPE-based differential testing over a corpus of seed programs."""

    def __init__(self, config: CampaignConfig | None = None) -> None:
        self.config = config or CampaignConfig()
        self._frontend = get_frontend(self.config.frontend)
        self._oracles = self.config.oracles()
        # Campaign-scoped pipeline-outcome cache (see PipelineCache in
        # repro.compiler.driver): one cache serves the whole matrix, and a
        # run is reused by every version whose faults answer its recorded
        # fault queries alike.
        self._pipeline_cache: PipelineCache | None = (
            PipelineCache() if self.config.cache_pipeline_results else None
        )
        # Flat counters shared by every oracle (module cache) and the
        # reference/sanitizer accounting below; snapshotted per shard.
        self._cache_stats: dict[str, int] = {}
        # One VM-result cache shared by every oracle of the matrix, keyed by
        # optimized-module content hash (DifferentialOracle._run_module):
        # variants and configurations that lower to the same module pay for
        # one VM run campaign-wide.
        module_cache: dict = {}
        for oracle in self._oracles:
            oracle.shared_module_cache = module_cache
            oracle.cache_stats = self._cache_stats
            if self._pipeline_cache is not None:
                oracle.enable_pipeline_cache(self._pipeline_cache)
        # Skeletons parsed during planning, reused by in-process execution
        # (worker processes re-extract from source; skeletons do not pickle).
        self._skeleton_cache: dict[tuple[str, str], Skeleton] = {}
        # Dedup keys of bugs found by earlier units of the shard currently
        # executing; lets ``stop_after_bugs`` count *distinct* bugs across a
        # shard even though each unit accumulates into its own result (so it
        # can be journaled independently).
        self._shard_bug_keys: set = set()
        # Triage predicate verdicts keyed by (predicate identity, source
        # hash), shared by reduction and bisection across the campaign's
        # lifetime -- re-observing the same candidate for the same bug is
        # never paid for twice.
        from repro.triage.reduce import PredicateCache

        self._predicate_cache = PredicateCache()
        # TriageEngine per machine_bits (the only oracle knob a predicate
        # carries that the config does not fix), built on first use.
        self._triage_engines: dict = {}

    # -- planning ---------------------------------------------------------------

    def plan(self, sources: dict[str, str], shard_count: int = 1) -> CampaignPlan:
        """Lay out the campaign over ``shard_count`` disjoint shards.

        Each file's tested variant indices are cut into contiguous blocks of
        at most ``config.unit_variants`` variants, and whole blocks are dealt
        round-robin across the shards.  Block boundaries depend only on the
        file and the config -- **never on the shard count** -- so the same
        campaign planned at any parallelism produces the same
        :class:`ShardUnit` identities (the durable store keys its journal by
        them), while the round-robin deal keeps the load balanced without
        knowing per-variant cost.
        """
        if shard_count <= 0:
            raise ValueError(f"shard_count must be positive, got {shard_count}")
        base = CampaignResult()
        shard_units: list[list[ShardUnit]] = [[] for _ in range(shard_count)]
        next_slot = 0
        ordinal = 0
        for name, source in sources.items():
            try:
                skeleton = self._extract_cached(name, source)
            except self._frontend.parse_error_types:
                base.files_skipped_error += 1
                continue
            enumerator = SkeletonEnumerator(
                skeleton, granularity=self.config.granularity, budget=self.config.budget
            )
            if not enumerator.within_budget():
                base.files_skipped_budget += 1
                continue
            if self.config.use_naive_enumeration:
                total = NaiveSkeletonEnumerator(skeleton).num_vectors()
            else:
                total = enumerator.count()

            for unit in self._file_units(name, source, total):
                unit = replace(unit, ordinal=ordinal)
                ordinal += 1
                shard_units[next_slot % shard_count].append(unit)
                next_slot += 1
        shards = [
            CampaignShard(index=index, units=tuple(units))
            for index, units in enumerate(shard_units)
        ]
        return CampaignPlan(shards=shards, base=base)

    def _file_units(self, name: str, source: str, total: int) -> list[ShardUnit]:
        """One file's shard units: fixed-size index blocks, first one primary."""
        block = self.config.unit_variants
        units: list[ShardUnit] = []
        if self.config.sample_per_file is not None:
            indices = self._sample_file_indices(name, total)
            for lo in range(0, len(indices), block):
                units.append(
                    ShardUnit(
                        name=name,
                        source=source,
                        indices=tuple(indices[lo : lo + block]),
                        primary=not units,
                    )
                )
            if not units:
                units.append(ShardUnit(name=name, source=source, indices=(), primary=True))
        else:
            stop = total
            if self.config.max_variants_per_file is not None:
                stop = min(stop, self.config.max_variants_per_file)
            elif self.config.budget.truncate and self.config.budget.limit() is not None:
                stop = min(stop, self.config.budget.limit())
            for lo in range(0, stop, block):
                units.append(
                    ShardUnit(
                        name=name,
                        source=source,
                        start=lo,
                        stop=min(lo + block, stop),
                        primary=not units,
                    )
                )
            if not units:
                units.append(ShardUnit(name=name, source=source, primary=True))
        return units

    def _sample_file_indices(self, name: str, total: int) -> list[int]:
        """Per-file deterministic uniform sample of variant indices."""
        rng = random.Random(f"{self.config.sample_seed}:{name}")
        return sample_distinct_indices(rng, total, self.config.sample_per_file or 0)

    # -- entry points ------------------------------------------------------------

    def run_sources(
        self,
        sources: dict[str, str],
        *,
        shard_count: int | None = None,
        shard_index: int | None = None,
        executor=None,
        resume: bool = False,
        incremental: bool = False,
    ) -> CampaignResult:
        """Run the campaign over named seed programs (name -> source text).

        Args:
            sources: the corpus.
            shard_count: split the work into this many shards (defaults to
                ``config.jobs`` so parallel runs shard automatically).
            shard_index: run *only* this shard and return its partial,
                mergeable result (for distributed runs; plan-time skip
                counters ride with shard 0 so merging all shards reproduces
                the serial summary).
            executor: a :mod:`repro.testing.executor` backend; defaults to a
                process pool when ``config.jobs > 1``, serial otherwise.
            resume: replay units already journaled in ``config.state_dir``
                instead of re-testing them; every stored unit must cover
                exactly this campaign's compiler versions.  The merged result
                is identical to an uninterrupted run.
            incremental: like ``resume``, but units covered for only *some*
                of the configured versions are re-tested against the missing
                versions only -- adding a new compiler version re-runs just
                the new column of the oracle matrix.
        """
        count = shard_count if shard_count is not None else max(1, self.config.jobs)
        plan = self.plan(sources, shard_count=count)
        if shard_index is not None and not 0 <= shard_index < count:
            # Before the store opens: a rejected call must leave no state
            # directory behind.
            raise ValueError(f"shard_index {shard_index} out of range for {count} shards")
        store = self._open_store(
            resume=resume, incremental=incremental, preserve=shard_index is not None
        )
        owned_executor = None
        try:
            if executor is None:
                executor = owned_executor = default_executor(self.config.jobs)
            if shard_index is not None:
                return self._run_one_shard(plan, shard_index, executor, store, incremental)
            started = time.perf_counter()
            work, replayed = self._partition(plan.shards, store, incremental)
            results, units_done = self._execute(work, executor, store)
            merged = plan.base.merge(replayed)
            for item, result in zip(work, results):
                merged = merged.merge(item.fold(result))
            merged.wall_seconds = time.perf_counter() - started
            if store is not None:
                store.checkpoint(units_done, merged)
            return merged
        finally:
            # Only executors this call created are shut down here;
            # caller-provided ones stay alive so their (persistent) worker
            # pools can be reused by later campaigns.
            if owned_executor is not None and hasattr(owned_executor, "close"):
                owned_executor.close()
            if store is not None:
                store.close()

    def _open_store(
        self, *, resume: bool, incremental: bool, preserve: bool = False
    ) -> CampaignStore | None:
        """Open (or create) the durable campaign store, when configured.

        On resume, ``CampaignStore.begin`` decides the replay backing: a
        fresh compacted ``campaign.db`` serves :meth:`_partition`'s per-key
        ``store.select`` lookups through the view's unit-key index (no
        upfront journal materialization); otherwise the journal is replayed
        into memory as before.  Either way the records are identical, so
        the partition -- and the campaign result -- cannot depend on which
        backing answered.
        """
        if self.config.state_dir is None:
            if resume or incremental:
                raise ValueError(
                    "resume/incremental require CampaignConfig.state_dir to be set"
                )
            return None
        store = CampaignStore(self.config.state_dir, fsync=self.config.fsync_journal)
        store.begin(
            config_fingerprint(self.config),
            resume=resume or incremental,
            preserve=preserve,
        )
        return store

    def _partition(
        self, shards: list[CampaignShard], store: CampaignStore | None, incremental: bool
    ) -> tuple[list["_WorkItem"], CampaignResult]:
        """Split planned shards into replayable and executable work.

        Returns ``(work, replayed)``: ``work`` is the list of
        :class:`_WorkItem` payloads still to execute -- the campaign's own
        config for uncovered units, or a versions-restricted clone for
        incremental delta columns -- and ``replayed`` is the merged result of
        every journaled unit, bit-identical to having re-run it.
        """
        replayed = CampaignResult()
        if store is None:
            return [_WorkItem(self.config, shard) for shard in shards], replayed
        needed = set(self.config.versions)
        work: list[_WorkItem] = []
        for shard in shards:
            fresh: list[ShardUnit] = []
            deltas: dict[tuple[str, ...], list[ShardUnit]] = {}
            for unit in shard.units:
                key = unit_key_for(unit)
                usable, covered = store.select(key, needed)
                missing = needed - covered
                quarantine = store.quarantine_for(key)
                if not missing:
                    replayed = replayed.merge(merge_unit_records(usable))
                elif quarantine is not None:
                    # Poison unit from an earlier run: replay whatever
                    # coverage it managed (e.g. version columns tested
                    # before it went bad), surface the quarantine record,
                    # and -- crucially -- never re-execute it: a
                    # deterministically failing unit would otherwise fail
                    # again on every resume, a livelock.
                    if usable:
                        replayed = replayed.merge(merge_unit_records(usable))
                    replayed.note_quarantine(quarantine)
                elif covered and incremental:
                    replayed = replayed.merge(merge_unit_records(usable))
                    deltas.setdefault(tuple(sorted(missing)), []).append(unit)
                else:
                    # No usable coverage (or partial coverage without
                    # incremental mode, where mixing a partial replay with a
                    # full re-run would double-count): run the unit in full.
                    fresh.append(unit)
            if fresh:
                work.append(
                    _WorkItem(self.config, CampaignShard(index=shard.index, units=tuple(fresh)))
                )
            for versions, units in sorted(deltas.items()):
                delta_config = replace(self.config, versions=list(versions))
                work.append(
                    _WorkItem(
                        delta_config,
                        CampaignShard(index=shard.index, units=tuple(units)),
                        delta=True,
                    )
                )
        return work, replayed

    def _execute(
        self,
        work: list["_WorkItem"],
        executor,
        store: CampaignStore | None,
    ) -> tuple[list[CampaignResult], int]:
        """Run the partitioned work through the campaign supervisor,
        journaling as it goes: one result per work item, in order, and the
        number of units that completed."""
        from repro.testing.supervisor import CampaignSupervisor

        supervisor = CampaignSupervisor(self, work, executor, store)
        return supervisor.run(), supervisor.units_done

    def _run_one_shard(
        self,
        plan: CampaignPlan,
        shard_index: int,
        executor,
        store: CampaignStore | None = None,
        incremental: bool = False,
    ) -> CampaignResult:
        """Run a single shard of the plan (distributed mode), honouring ``jobs``.

        The shard is itself sub-sharded across the executor's workers, so
        ``--shard i/n --jobs m`` uses ``m`` processes for machine ``i``'s
        slice.  Sub-sharding and merging commute with serial execution, so
        the partial result is identical either way.
        """
        shard = plan.shards[shard_index]
        started = time.perf_counter()
        work, replayed = self._partition([shard], store, incremental)
        if not isinstance(executor, SerialExecutor):
            jobs = max(1, getattr(executor, "jobs", self.config.jobs) or 1)
            work = [
                replace(item, shard=subshard)
                for item in work
                for subshard in _split_shard(item.shard, jobs)
            ]
        result = replayed
        partials, _ = self._execute(work, executor, store)
        for item, partial in zip(work, partials):
            result = result.merge(item.fold(partial))
        result.wall_seconds = time.perf_counter() - started
        if shard_index == 0:
            result = plan.base.merge(result)
        return result

    # -- internals ------------------------------------------------------------------

    def _stats_snapshot(self) -> dict[str, int]:
        """Current cumulative cache counters (module / reference / pipeline).

        Shard runs take an entry snapshot and attach the exit *delta* to the
        shard result, so merged totals are correct whether shards run in one
        campaign object (serial) or one per worker (pooled).
        """
        stats = dict(self._cache_stats)
        if self._pipeline_cache is not None:
            stats["pipeline_hits"] = self._pipeline_cache.hits
            stats["pipeline_misses"] = self._pipeline_cache.misses
        return stats

    def _stats_delta(self, entry: dict[str, int]) -> dict[str, int]:
        exit_stats = self._stats_snapshot()
        return {
            key: value - entry.get(key, 0)
            for key, value in exit_stats.items()
            if value - entry.get(key, 0)
        }

    def _exhausted(self, result: CampaignResult) -> bool:
        """Has ``stop_after_bugs`` been reached, counting distinct bugs?

        ``result`` may be a single unit's accumulator; bugs found by earlier
        units of the same shard are counted through ``_shard_bug_keys`` so
        the limit applies to the shard's distinct-bug total exactly as it
        did when the whole shard shared one result object.
        """
        limit = self.config.stop_after_bugs
        if limit is None:
            return False
        fresh = sum(
            1
            for report in result.bugs.reports
            if report.dedup_key not in self._shard_bug_keys
        )
        return len(self._shard_bug_keys) + fresh >= limit

    def _run_shard(
        self, shard: CampaignShard, journal: JournalWriter | None = None
    ) -> ShardOutcome:
        """Execute one shard, unit by unit.

        Each unit accumulates into its own result and is merged into the
        shard total -- the per-unit result is exactly what the durable store
        journals, so a crashed run can resume at unit granularity.  A unit
        cut short by ``stop_after_bugs`` is *not* journaled (its record
        would be incomplete); everything before it is.

        Every unit runs under the worker-side ``unit_timeout`` alarm (a
        no-op without a timeout).  The first unit that raises or overruns
        it stops the shard: it is reported in the outcome's ``failed``, and
        nothing after it runs or is journaled here -- the supervisor decides
        whether to retry it, quarantine it or abort, and requeues the rest.
        ``CampaignInterrupted`` (``fail_after_units``) is raised between
        units, outside the unit-failure taxonomy.
        """
        result = CampaignResult()
        started = time.perf_counter()
        stats_entry = self._stats_snapshot()
        self._shard_bug_keys = set()
        failed: tuple[tuple[int, UnitFailure], ...] = ()
        exhausted = False
        units_done = 0
        timeout = self.config.unit_timeout
        for position, unit in enumerate(shard.units):
            unit_result = CampaignResult()
            try:
                with unit_deadline(timeout):
                    self._run_unit(unit, unit_result)
            except Exception as error:
                hung = isinstance(error, UnitDeadlineExpired)
                failure = UnitFailure(
                    unit_key=unit_key_for(unit),
                    unit_name=unit.name,
                    span=unit_span(unit),
                    kind=FAILURE_HANG if hung else FAILURE_EXCEPTION,
                    detail=(
                        f"unit exceeded its {timeout:g}s deadline"
                        if hung
                        else _format_failure(error)
                    ),
                )
                failed = ((position, failure),)
                break
            exhausted = self._exhausted(unit_result)
            result = result.merge(unit_result)
            self._shard_bug_keys = {
                report.dedup_key for report in result.bugs.reports
            }
            units_done += 1
            if journal is not None and not exhausted:
                journal.append_unit(unit, self.config.versions, unit_result)
                if units_done % max(1, self.config.checkpoint_every) == 0:
                    journal.append_checkpoint(
                        units_done,
                        {
                            "files_processed": result.files_processed,
                            "variants_tested": result.variants_tested,
                            "distinct_bugs": len(result.bugs),
                        },
                    )
            if (
                self.config.fail_after_units is not None
                and units_done >= self.config.fail_after_units
            ):
                raise CampaignInterrupted(
                    f"fault injection: interrupted after {units_done} units"
                )
            if exhausted:
                break
        self._shard_bug_keys = set()
        result.wall_seconds = time.perf_counter() - started
        result.cache_stats = self._stats_delta(stats_entry)
        return ShardOutcome(
            result=result, failed=failed, exhausted=exhausted, units_done=units_done
        )

    def _extract_cached(self, name: str, source: str) -> Skeleton:
        key = (name, hashlib.sha256(source.encode()).hexdigest())
        skeleton = self._skeleton_cache.get(key)
        if skeleton is None:
            skeleton = self._frontend.extract_skeleton(source, name=name)
            self._skeleton_cache[key] = skeleton
        return skeleton

    def _run_unit(self, unit: ShardUnit, result: CampaignResult) -> None:
        if self.config.chaos is not None:
            _inject_chaos(self.config.chaos, unit)
        try:
            skeleton = self._extract_cached(unit.name, unit.source)
        except self._frontend.parse_error_types:  # pragma: no cover - planning already filtered these
            result.files_skipped_error += 1
            return
        if unit.primary:
            result.files_processed += 1
        if self.config.use_naive_enumeration:
            enumerator = NaiveSkeletonEnumerator(skeleton)
        else:
            enumerator = SkeletonEnumerator(
                skeleton, granularity=self.config.granularity, budget=self.config.budget
            )
        if unit.indices is not None:
            programs = enumerator.programs_at(unit.indices)
        else:
            programs = enumerator.indexed_programs(start=unit.start, stop=unit.stop)
        self._test_programs(skeleton, programs, result)

    def _test_programs(self, skeleton: Skeleton, variants, result: CampaignResult) -> None:
        rebind = self.config.use_ast_rebinding and skeleton.supports_binding
        if rebind and self.config.batch_size > 1:
            self._test_programs_batched(skeleton, variants, result)
            return
        for variant in variants:
            if self._test_one_variant(skeleton, variant, rebind, result):
                return

    def _test_programs_batched(
        self, skeleton: Skeleton, variants, result: CampaignResult
    ) -> None:
        """Batched reference execution: chunk the variant stream, run the
        chunk's reference results through the frontend's batched tier, then
        test each variant with its result in hand.  Counters, observations,
        bugs and the exhaustion check are exactly the scalar path's --
        batching only changes *when* reference interpretation happens, never
        what is observed."""
        chunk: list[BoundVariant] = []
        for variant in variants:
            chunk.append(variant)
            if len(chunk) >= self.config.batch_size:
                if self._test_variant_chunk(skeleton, chunk, result):
                    return
                chunk = []
        if chunk:
            self._test_variant_chunk(skeleton, chunk, result)

    def _test_variant_chunk(
        self, skeleton: Skeleton, chunk: list[BoundVariant], result: CampaignResult
    ) -> bool:
        """Test one chunk; True when ``stop_after_bugs`` fired mid-chunk.

        Only order-clean variants run through the batched tier (it rebinds,
        which the text route for use-before-declaration vectors must not
        do); every other variant computes its reference in place.
        """
        clean = [variant for variant in chunk if variant.order_clean]
        self._count_cache("reference_misses", len(clean))
        references = iter(self._frontend.run_reference_batch(clean) if clean else ())
        for variant in chunk:
            reference = next(references) if variant.order_clean else None
            if self._test_one_variant(skeleton, variant, True, result, reference):
                return True
        return False

    def _test_one_variant(
        self,
        skeleton: Skeleton,
        variant: BoundVariant,
        rebind: bool,
        result: CampaignResult,
        reference: ExecutionResult | None = None,
    ) -> bool:
        """Test a single variant against the whole oracle matrix; True when
        the campaign is exhausted (``stop_after_bugs``).

        Order-clean variants of a rebinding campaign take the parse-once
        path: the skeleton AST is rebound to the variant's vector
        (O(holes)), the reference interpreter runs on the bound AST, and
        every oracle compiles from one shared lowering; source text is
        rendered only if a bug is filed.  Every other variant is rendered
        and re-parsed -- also the route for vectors that realize
        use-before-declaration programs, which the textual frontend must be
        the one to reject.  Either way the reference result is computed
        once (here, unless a batched chunk passed it in as ``reference``)
        and shared by the whole matrix.
        """
        result.variants_tested += 1
        name = f"{skeleton.name}#{variant.index}"
        source = None
        if rebind and variant.order_clean:
            if self.config.sanitize and self._variant_tainted(variant):
                # Tainted variants never reach the oracle matrix: the whole
                # configuration row is skipped and the skip is journaled as
                # an observation kind (absent entirely when the gate is off,
                # which keeps gate-off journals byte-identical).
                result.observations["sanitized"] = (
                    result.observations.get("sanitized", 0) + 1
                )
                return self._exhausted(result)
            if reference is None:
                self._count_cache("reference_misses")
                reference = self._frontend.run_reference_variant(variant)
        else:
            source = variant.source
            self._count_cache("reference_misses")
            reference = self._frontend.try_run_reference_source(source)
        for oracle in self._oracles:
            if source is None:
                observation = oracle.observe_variant(
                    variant, name=name, reference_result=reference
                )
            else:
                observation = oracle.observe(source, name=name, reference_result=reference)
            result.note_observation(observation)
            if observation.is_bug:
                self._file_bug(observation, oracle, result)
        return self._exhausted(result)

    def _variant_tainted(self, variant: BoundVariant) -> bool:
        """Sanitizer verdict for one bound variant.

        ``sanitizer_clean``/``tainted`` count gate decisions under
        ``cache_stats``, so they never perturb journal equality.
        """
        tainted = bool(self._frontend.sanitize_variant(variant))
        self._count_cache("sanitizer_tainted" if tainted else "sanitizer_clean")
        return tainted

    def _count_cache(self, key: str, amount: int = 1) -> None:
        if amount:
            stats = self._cache_stats
            stats[key] = stats.get(key, 0) + amount

    def _file_bug(
        self, observation: Observation, oracle: DifferentialOracle, result: CampaignResult
    ) -> BugReport | None:
        """File one bug observation, then triage it when configured.

        Newly filed bugs go through :meth:`TriageEngine.triage_report`:
        reduction (``config.reduce_bugs``) shrinks the trigger while
        preserving the report's dedup key -- so the reduced program still
        files under the same ``bug_id`` -- and bisection
        (``config.bisect_bugs``) attributes it to the lineage version that
        introduced it.  Duplicates of an already-filed bug normally skip
        triage (dedup would discard the work) -- *unless* the duplicate
        orders earlier and is adopted as the bug's representative
        (:meth:`BugDatabase._adopt_if_smaller`), in which case its program
        replaced the reduced one and is re-triaged, so the filed report
        always carries a reduced trigger whatever order the observations
        arrive in.  All triage shares the campaign-lifetime predicate
        cache (bisection attribution survives adoption: it derives from the
        dedup key, so it is never recomputed).
        """
        from repro.triage.predicate import observation_dedup_key

        key = observation_dedup_key(observation)
        existing = result.bugs.find(key) if key is not None else None
        prior_program = existing.test_program if existing is not None else None
        report = result.bugs.record(observation)
        if report is None:
            return None
        engine = self._triage_engine(oracle.machine_bits)
        if engine is not None and (existing is None or report.test_program != prior_program):
            engine.triage_report(report)
        return report

    def _triage_engine(self, machine_bits: int):
        """The lazily built per-``machine_bits`` triage engine (or None when
        triage is fully disabled).  All engines share the campaign's
        predicate cache."""
        if self.config.reduce_bugs == "off" and not self.config.bisect_bugs:
            return None
        engine = self._triage_engines.get(machine_bits)
        if engine is None:
            from repro.triage.engine import TriageEngine

            engine = TriageEngine(
                self.config.frontend,
                reduce_policy=self.config.reduce_bugs,
                bisect=self.config.bisect_bugs,
                machine_bits=machine_bits,
                cache=self._predicate_cache,
            )
            self._triage_engines[machine_bits] = engine
        return engine


@dataclass(frozen=True)
class _WorkItem:
    """One executable piece of a partitioned plan.

    ``delta=True`` marks an incremental column re-run: the unit's variants
    were already walked (and counted) by the journaled records being
    replayed alongside, so when the live result merges into the campaign
    total its walk counters are dropped (:meth:`fold`) -- observations and
    bugs are the only new information a delta run contributes.  The *journal*
    record of a delta unit keeps its full counters: the store's per-unit
    merge takes the max across records, so durable state never double- or
    under-counts either way.
    """

    config: CampaignConfig
    shard: CampaignShard
    delta: bool = False

    def fold(self, result: CampaignResult) -> CampaignResult:
        if not self.delta:
            return result
        return CampaignResult(
            bugs=result.bugs,
            observations=dict(result.observations),
            wall_seconds=result.wall_seconds,
            quarantined=list(result.quarantined),
        )


class _Payloads:
    """Builds the payloads :func:`_run_shard_payload` receives across a pool.

    The supervisor dispatches to pool workers only through
    :meth:`~repro.testing.executor.ProcessPoolExecutor.submit`, after this
    has preloaded the whole work's corpus into the pool, keyed by content
    sha.  Every payload therefore carries *slim* units (``source`` empty,
    ``source_sha`` set), which the worker rehydrates before executing.
    """

    def __init__(self, executor, work: list[_WorkItem]) -> None:
        executor.preload(
            {
                source_sha(unit.source): unit.source
                for item in work
                for unit in item.shard.units
            }
        )

    def __call__(
        self, config: CampaignConfig, index: int, units: tuple[ShardUnit, ...]
    ) -> tuple[CampaignConfig, CampaignShard]:
        units = tuple(
            replace(unit, source="", source_sha=source_sha(unit.source)) for unit in units
        )
        return config, CampaignShard(index=index, units=units)


def _split_shard(shard: CampaignShard, parts: int) -> list[CampaignShard]:
    """Split one shard into ``parts`` disjoint sub-shards covering it exactly.

    Whole units are dealt round-robin -- a unit is never sliced, so its
    identity (and therefore its journal key) is the same whether it runs in
    the parent shard or in any sub-shard of any worker count.
    """
    sub_units: list[list[ShardUnit]] = [[] for _ in range(parts)]
    for position, unit in enumerate(shard.units):
        sub_units[position % parts].append(unit)
    return [
        CampaignShard(index=index, units=tuple(units))
        for index, units in enumerate(sub_units)
    ]


def _format_failure(error: BaseException) -> str:
    """One-line failure head plus a (bounded) traceback tail for the record."""
    head = f"{type(error).__name__}: {error}"
    trace = "".join(
        traceback.format_exception(type(error), error, error.__traceback__)
    )
    if len(trace) > 2000:
        trace = "...\n" + trace[-2000:]
    return f"{head}\n{trace}".rstrip()


def _inject_chaos(chaos: ChaosSpec, unit: ShardUnit) -> None:
    """Fire any fault the chaos spec schedules for this unit's ordinal.

    Runs at the top of ``_run_unit`` on every attempt -- injected faults are
    deterministic poison, not flakes.  Units without a planned ordinal
    (hand-built units) are never targeted.
    """
    ordinal = unit.ordinal
    if ordinal < 0 or not chaos.any():
        return
    if ordinal in chaos.crash_at:
        # The observable of a segfault / OOM kill: the process dies with no
        # cleanup, no journal flush, and no exception crossing the pool.
        os.kill(os.getpid(), signal.SIGKILL)
    if ordinal in chaos.hang_at:
        if chaos.hang_hard and hasattr(signal, "pthread_sigmask"):
            # Block SIGALRM so the worker-side deadline cannot fire: only
            # the parent watchdog (kill + respawn + bisect) can recover --
            # the stand-in for a worker stuck in uninterruptible C code.
            previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
            try:
                time.sleep(chaos.hang_seconds)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, previous)
        else:
            time.sleep(chaos.hang_seconds)
    if ordinal in chaos.raise_at:
        raise ChaosError(f"injected failure at unit ordinal {ordinal}")


def _rehydrate_shard(shard: CampaignShard) -> CampaignShard:
    """Resolve slim units (source by sha) back to full source text.

    Happens *before* execution, so journal unit keys -- which hash the
    source -- are identical to a serial run's.
    """
    return CampaignShard(
        index=shard.index,
        units=tuple(
            replace(unit, source=worker_source(unit.source_sha), source_sha="")
            for unit in shard.units
        ),
    )


def _run_shard_payload(payload: tuple[CampaignConfig, CampaignShard]) -> ShardOutcome:
    """Module-level shard worker (must be picklable for the process pool).

    When the config carries a ``state_dir``, the worker journals each
    completed unit itself (the journal supports concurrent line-atomic
    appenders), so unit outcomes are durable even if the worker, the pool or
    the parent dies before the shard result is returned.  Returns a
    :class:`ShardOutcome`, so a unit failure crosses the pool as data.
    """
    config, shard = payload
    shard = _rehydrate_shard(shard)
    journal = None
    if config.state_dir is not None:
        journal = JournalWriter(
            Path(config.state_dir) / CampaignStore.JOURNAL_NAME,
            fsync=config.fsync_journal,
        )
    try:
        return Campaign(config)._run_shard(shard, journal=journal)
    finally:
        if journal is not None:
            journal.close()


def test_program(
    source: str,
    name: str = "<program>",
    versions: list[str] | None = None,
    opt_levels: list[OptimizationLevel] | None = None,
    frontend: str = "minic",
) -> list[Observation]:
    """Convenience helper: test a single program against a configuration matrix.

    ``versions``/``opt_levels`` default to the frontend's matrix.
    """
    resolved = get_frontend(frontend)
    versions = versions or list(resolved.default_versions)
    opt_levels = opt_levels or list(resolved.default_opt_levels)
    observations: list[Observation] = []
    for version in versions:
        for level in opt_levels:
            oracle = DifferentialOracle(version=version, opt_level=level, frontend=frontend)
            observations.append(oracle.observe(source, name=name))
    return observations


__all__ = [
    "Campaign",
    "CampaignConfig",
    "CampaignInterrupted",
    "CampaignPlan",
    "CampaignResult",
    "CampaignShard",
    "ChaosError",
    "ChaosSpec",
    "ShardOutcome",
    "ShardUnit",
    "UnitDeadlineExpired",
    "UnitExecutionError",
    "UnitFailure",
    "test_program",
    "unit_deadline",
    "unit_span",
]
