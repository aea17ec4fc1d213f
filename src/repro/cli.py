"""Command-line interface: ``spe`` (or ``python -m repro``).

Subcommands (all program-level commands take ``--lang`` to select a
registered language frontend; the default is mini-C):

* ``count FILE``       -- naive vs SPE solution sizes for one seed file;
* ``enumerate FILE``   -- print canonical variants of a file: a prefix, an
  arbitrary ``--start`` slice (reached by unranking), or a uniform ``--sample``;
* ``test FILE``        -- differential-test one file against the language's
  trunk compilers;
* ``campaign``         -- run a bug-hunting campaign over the language's
  built-in corpus; supports ``--lang {minic,while,...}``, ``--jobs N``
  (process-parallel shards), ``--sample K`` (uniform per-file sampling),
  ``--shard I/N`` (distributed partial runs), the persistent campaign
  store: ``--state-dir DIR`` journals per-unit outcomes durably,
  ``--resume`` replays them after a crash, ``--incremental`` re-tests only
  compiler versions not yet covered, ``--fresh`` discards an existing
  journal (a non-resume run refuses to overwrite one); static analysis:
  ``--verify-ir {off,bugs,always}`` runs the between-pass IR verifier and
  files violations as ``ill-formed-ir`` bugs, ``--sanitize`` gates the
  oracle behind the static UB sanitizer; and in-flight
  triage: ``--reduce {off,crash,all}`` minimises bug triggers as they are
  filed and ``--bisect`` attributes each bug to the compiler version that
  introduced it;
* ``lint``             -- run the static UB sanitizer standalone over seed
  files (and/or the built-in corpus via ``--corpus N``), printing one
  machine-readable ``file:function:kind:detail`` line per finding plus a
  greppable ``# lint:`` summary; parse rejections are reported as
  ``parse-error`` findings, and the exit status is 0 either way;
* ``triage``           -- reduce and bisect the bugs journaled in an
  existing campaign ``--state-dir`` after the fact, appending the reduced
  programs and version attributions to the journal as ``triage`` records;
* ``db``               -- the indexed bug database: ``db compact`` builds
  the SQLite derived view from a campaign journal, ``db status`` reads
  progress from it, ``db bugs`` runs ad-hoc filtered queries (``--kind
  wrong-code --introduced-in scc-2.0``, ``--format json|table``),
  ``db export`` writes the imported records back out as a byte-identical
  journal, and ``db merge`` attaches several campaigns' journals into one
  cross-campaign database;
* ``experiment NAME``  -- regenerate a table/figure (table1, table2, table3,
  table4, fig8, fig9, fig10, or ``all``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.spe import SkeletonEnumerator
from repro.frontends import available_frontends, get_frontend


def _cmd_count(args: argparse.Namespace) -> int:
    source = Path(args.file).read_text()
    skeleton = get_frontend(args.lang).extract_skeleton(source, name=args.file)
    enumerator = SkeletonEnumerator(skeleton)
    print(f"file           : {args.file}")
    print(f"language       : {args.lang}")
    print(f"holes          : {skeleton.num_holes}")
    print(f"naive variants : {enumerator.naive_count()}")
    print(f"SPE variants   : {enumerator.count()}")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    source = Path(args.file).read_text()
    skeleton = get_frontend(args.lang).extract_skeleton(source, name=args.file)
    enumerator = SkeletonEnumerator(skeleton)
    if args.sample is not None:
        if args.start is not None:
            print("error: --sample and --start are mutually exclusive", file=sys.stderr)
            return 2
        indices = enumerator.sample_indices(args.sample, seed=args.seed)
        for variant in enumerator.programs_at(indices):
            print(f"// variant {variant.index}: {variant.vector}")
            print(variant.source)
        return 0
    start = args.start or 0
    for variant in enumerator.indexed_programs(start=start, stop=start + args.limit):
        print(f"// variant {variant.index}: {variant.vector}")
        print(variant.source)
    return 0


def _cmd_test(args: argparse.Namespace) -> int:
    from repro.testing.harness import test_program

    source = Path(args.file).read_text()
    observations = test_program(source, name=args.file, frontend=args.lang)
    failures = 0
    for observation in observations:
        status = observation.kind.value
        line = f"{observation.compiler} {observation.opt_level}: {status}"
        if observation.is_bug:
            failures += 1
            line += f" -- {observation.signature}"
        print(line)
    return 1 if failures else 0


def _positive_int(text: str) -> int:
    """Argparse type for arguments that must be integers >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """Argparse type for arguments that must be integers >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _ordinal_list(text: str) -> tuple[int, ...]:
    """Argparse type for comma-separated unit ordinals (``1,4,7``)."""
    if not text.strip():
        return ()
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers (e.g. 1,4,7), got {text!r}"
        )
    if any(value < 0 for value in values):
        raise argparse.ArgumentTypeError(f"unit ordinals must be >= 0, got {text!r}")
    return values


def _version_list(text: str) -> list[str]:
    """Argparse type for comma-separated compiler versions (``scc-5.4,scc-trunk``)."""
    versions = [part.strip() for part in text.split(",") if part.strip()]
    if not versions:
        raise argparse.ArgumentTypeError(f"expected comma-separated versions, got {text!r}")
    return versions


def _parse_shard(spec: str) -> tuple[int, int]:
    """Parse ``I/N`` (0-based shard I of N), e.g. ``--shard 2/4``."""
    try:
        index_text, count_text = spec.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected I/N (e.g. 0/4), got {spec!r}")
    if count <= 0:
        raise argparse.ArgumentTypeError(f"shard count must be positive, got {count}")
    if not 0 <= index < count:
        raise argparse.ArgumentTypeError(f"shard index {index} out of range for {count} shards")
    return index, count


def _stats_ratio(label: str, hits: int, total: int) -> str | None:
    """One ``label hits/total (pct%)`` telemetry cell, or ``None``.

    The zero-total guard lives here so every stderr stats line shares it: a
    campaign that never exercised a cache (or a gate) must print nothing for
    it rather than divide by zero.
    """
    if total <= 0:
        return None
    return f"{label} {hits}/{total} ({100.0 * hits / total:.1f}%)"


def cache_stats_line(cache_stats: dict[str, int]) -> str | None:
    """The ``# cache:`` stderr line for a campaign result, or ``None``.

    One cell per cache that saw any traffic, ``None`` when none did.
    """
    parts = []
    for label in ("module", "pipeline"):
        hits = cache_stats.get(f"{label}_hits", 0)
        misses = cache_stats.get(f"{label}_misses", 0)
        part = _stats_ratio(label, hits, hits + misses)
        if part is not None:
            parts.append(part)
    if not parts:
        return None
    return f"# cache: {'  '.join(parts)}"


def sanitizer_stats_line(cache_stats: dict[str, int]) -> str | None:
    """The ``# sanitizer:`` stderr line for a campaign result, or ``None``.

    ``tainted`` is the gate's filter rate over all gated variants.  ``None``
    whenever the sanitizer never ran (the gate off), keeping gate-off output
    byte-identical.
    """
    tainted = cache_stats.get("sanitizer_tainted", 0)
    clean = cache_stats.get("sanitizer_clean", 0)
    part = _stats_ratio("tainted", tainted, tainted + clean)
    if part is None:
        return None
    return f"# sanitizer: {part}"


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.store import CampaignStore, StoreMismatchError
    from repro.testing.harness import Campaign, CampaignConfig, UnitExecutionError

    if (args.resume or args.incremental) and args.state_dir is None:
        print("error: --resume/--incremental require --state-dir", file=sys.stderr)
        return 2
    resume, incremental = args.resume, args.incremental
    if args.state_dir is not None and (resume or incremental):
        # First run against an empty state dir: fall back to a fresh run that
        # creates the store, so `--resume` is safe to pass unconditionally in
        # scripts and cron jobs.
        if not CampaignStore(args.state_dir).manifest_path.exists():
            print(f"# no journal in {args.state_dir} yet; starting a fresh campaign")
            resume = incremental = False
    if (
        args.state_dir is not None
        and not (resume or incremental or args.fresh)
        and args.shard is None  # distributed shard runs append, never truncate
    ):
        journal = CampaignStore(args.state_dir).journal_path
        if journal.exists() and journal.stat().st_size > 0:
            # Guard the destructive direction: a fresh run truncates the
            # journal, so an operator re-running the command from history
            # after a crash must opt in explicitly.
            print(
                f"error: {args.state_dir} already holds a campaign journal; "
                "pass --resume/--incremental to continue it, or --fresh to discard it",
                file=sys.stderr,
            )
            return 2

    corpus = get_frontend(args.lang).build_corpus(files=args.files, seed=args.seed)
    chaos = None
    if args.chaos_crash_at or args.chaos_hang_at or args.chaos_raise_at:
        from repro.testing.harness import ChaosSpec

        chaos = ChaosSpec(
            crash_at=args.chaos_crash_at,
            hang_at=args.chaos_hang_at,
            raise_at=args.chaos_raise_at,
            hang_seconds=args.chaos_hang_seconds,
        )
    config = CampaignConfig(
        frontend=args.lang,
        versions=args.versions,
        max_variants_per_file=args.variants,
        sample_per_file=args.sample,
        sample_seed=args.seed,
        jobs=args.jobs,
        state_dir=args.state_dir,
        reduce_bugs=args.reduce,
        bisect_bugs=args.bisect,
        batch_size=max(0, args.batch_size),
        cache_pipeline_results=not args.no_pipeline_cache,
        unit_timeout=args.unit_timeout,
        max_retries=args.max_retries,
        on_fault=args.on_fault,
        chaos=chaos,
        fsync_journal=args.fsync_journal,
        verify_ir=args.verify_ir,
        sanitize=args.sanitize,
    )
    campaign = Campaign(config)
    try:
        if args.shard is not None:
            shard_index, shard_count = args.shard
            result = campaign.run_sources(
                corpus,
                shard_count=shard_count,
                shard_index=shard_index,
                resume=resume,
                incremental=incremental,
            )
            print(f"# shard {shard_index}/{shard_count} (merge partial results with CampaignResult.merge)")
        else:
            result = campaign.run_sources(corpus, resume=resume, incremental=incremental)
    except StoreMismatchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except UnitExecutionError as error:
        print(f"error: campaign aborted on a poison unit: {error}", file=sys.stderr)
        print("hint: re-run with --on-fault quarantine to degrade and continue", file=sys.stderr)
        return 3
    print(result.summary())
    # Cache + sanitizer telemetry goes to stderr: CI smoke legs diff stdout
    # byte-for-byte between serial and pooled runs, and hit counts are
    # legitimately run-shape-dependent.
    for line in (
        cache_stats_line(result.cache_stats),
        sanitizer_stats_line(result.cache_stats),
    ):
        if line is not None:
            print(line, file=sys.stderr)
    for record in sorted(result.quarantined, key=lambda r: (r.name, r.key)):
        # One greppable line per quarantined unit (the chaos-smoke CI job
        # matches on '# quarantined:'); printed only when any exist, so
        # fault-free reports stay byte-identical to the historical format.
        print(
            f"# quarantined: {record.name} {record.span} kind={record.kind} "
            f"attempts={record.attempts} key={record.key}"
        )
    print()
    for report in result.bugs.reports:
        print(report.summary_line())
    return 0


def lint_source(frontend, source: str):
    """Sanitizer findings for one source file, parse rejections included.

    A program the frontend rejects is itself a (machine-readable) finding
    rather than an error: ``repro lint`` over a seed corpus must keep going
    and exit 0, so CI can grep a stable finding count.
    """
    from repro.compiler.sanitize import Finding

    try:
        return frontend.sanitize_source(source)
    except frontend.parse_error_types as error:
        return [Finding("parse-error", "<file>", "", str(error))]


def _cmd_lint(args: argparse.Namespace) -> int:
    frontend = get_frontend(args.lang)
    sources: dict[str, str] = {}
    if args.corpus is not None:
        sources.update(frontend.build_corpus(files=args.corpus, seed=args.seed))
    for path in args.files:
        sources[path] = Path(path).read_text()
    if not sources:
        print("error: nothing to lint; pass FILES and/or --corpus N", file=sys.stderr)
        return 2
    total = 0
    for name, source in sources.items():
        for finding in lint_source(frontend, source):
            print(f"{name}:{finding.render()}")
            total += 1
    print(f"# lint: {total} findings in {len(sources)} files")
    return 0


def _cmd_triage(args: argparse.Namespace) -> int:
    from repro.store import CampaignStore
    from repro.testing.executor import default_executor
    from repro.triage import TriageEngine

    store = CampaignStore(args.state_dir)
    manifest = store.read_manifest()
    if manifest is None:
        print(
            f"error: no campaign manifest in {args.state_dir}; "
            "run a campaign with --state-dir first",
            file=sys.stderr,
        )
        return 2
    frontend = (manifest.get("fingerprint") or {}).get("frontend")
    if not frontend:
        print(f"error: manifest in {args.state_dir} names no frontend", file=sys.stderr)
        return 2
    result = store.merged_result()
    if not result.bugs.reports:
        print(f"# no bugs journaled in {args.state_dir}; nothing to triage")
        return 0
    # Each run is a pure function of the unit records (so identical
    # invocations print identical output); knowledge from earlier passes is
    # protected at the journal layer instead -- load_triage_records merges
    # field-wise, so a weaker re-run (--no-bisect, --reduce off) can never
    # erase a journaled attribution or reduced program.
    engine = TriageEngine(
        frontend,
        reduce_policy=args.reduce,
        bisect=args.bisect,
        executor=default_executor(args.jobs),
    )
    outcomes = engine.triage_database(result.bugs)
    store.append_triage_outcomes(outcomes)
    store.close()
    reduced = sum(1 for outcome in outcomes if outcome.reduced)
    attributed = sum(1 for outcome in outcomes if outcome.introduced_in)
    evaluations = sum(outcome.predicate_evaluations for outcome in outcomes)
    print(
        f"# triaged {len(outcomes)} bugs ({frontend}): {reduced} reduced, "
        f"{attributed} attributed, {evaluations} predicate evaluations"
    )
    for outcome in outcomes:
        print(outcome.summary_line())
    return 0


#: CLI spelling -> stored BugKind value (enum values contain a space).
_DB_KIND_MAP = {"crash": "crash", "wrong-code": "wrong code", "performance": "performance"}


def _open_query_db(args: argparse.Namespace):
    """The database a ``repro db`` query runs against, or an error string.

    ``--state-dir`` compacts first, so queries always reflect the journal
    of record (a deleted or stale view is rebuilt transparently);
    ``--db`` opens an existing database file directly (cross-campaign
    merges have no single owning state dir).
    """
    from repro.store import CampaignDatabase, CampaignStore

    if args.state_dir is not None:
        store = CampaignStore(args.state_dir)
        store.compact()
        return CampaignDatabase.open(store.db_path)
    return CampaignDatabase.open(args.db)


def _cmd_db_compact(args: argparse.Namespace) -> int:
    from repro.store import CampaignStore

    store = CampaignStore(args.state_dir)
    stats = store.compact()
    print(f"# compacted {store.journal_path} -> {store.db_path}")
    print(
        f"records: {stats['records']} ({stats['records_imported']} imported)  "
        f"sources: {stats['sources']}  bugs: {stats['bugs']}  "
        f"triage: {stats['triage']}  quarantine: {stats['quarantine']}"
    )
    ratio = stats["compaction_ratio"]
    print(
        f"journal: {stats['journal_bytes']} bytes  db: {stats['db_bytes']} bytes"
        + (f"  ratio: {ratio:.2f}" if ratio is not None else "")
    )
    return 0


def _cmd_db_status(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.store import CampaignStore

    status = CampaignStore(args.state_dir).status()
    if args.format == "json":
        print(json_module.dumps(status, indent=2, sort_keys=True))
        return 0
    for key in ("units_journaled", "distinct_units", "quarantined_units"):
        print(f"{key}: {status[key]}")
    checkpoint = status["last_checkpoint"]
    if checkpoint is not None:
        print(f"last_checkpoint: units_seen={checkpoint.get('units_seen')}")
    return 0


def _cmd_db_bugs(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.store import bug_report_to_json

    with _open_query_db(args) as db:
        pairs = db.query_bugs(
            kind=_DB_KIND_MAP[args.kind] if args.kind else None,
            lineage=args.lineage,
            introduced_in=args.introduced_in,
            frontend=args.frontend,
            label=args.label,
        )
        multi = len(db.journals()) > 1
    if args.format == "json":
        payload = [
            {"journal": label, **bug_report_to_json(report)} for label, report in pairs
        ]
        print(json_module.dumps(payload, indent=2))
        return 0
    for label, report in pairs:
        line = report.summary_line()
        print(f"[{label}] {line}" if multi else line)
    return 0


def _cmd_db_export(args: argparse.Namespace) -> int:
    with _open_query_db(args) as db:
        written = db.export_journal(args.output, label=args.label)
    print(f"# exported {written} records to {args.output}")
    return 0


def _cmd_db_merge(args: argparse.Namespace) -> int:
    from pathlib import Path as PathType

    from repro.store import CampaignDatabase, CampaignStore, StoreMismatchError

    labels = [PathType(state_dir).resolve().name for state_dir in args.state_dirs]
    if len(set(labels)) != len(labels):
        print(
            "error: merged state directories must have distinct names "
            f"(got {', '.join(labels)})",
            file=sys.stderr,
        )
        return 2
    db = CampaignDatabase.create(args.out)
    try:
        for label, state_dir in zip(labels, args.state_dirs):
            store = CampaignStore(state_dir)
            manifest = store.read_manifest()
            if manifest is None:
                print(f"error: no campaign manifest in {state_dir}", file=sys.stderr)
                return 2
            imported = db.attach_journal(
                store.journal_path, manifest.get("fingerprint") or {}, label=label
            )
            print(f"# attached {label}: {imported.records_imported} records imported")
        db.refresh_views()
        db.vacuum()
        stats = db.stats()
    finally:
        db.close()
    print(
        f"# merged {len(labels)} campaigns into {args.out}: "
        f"{stats['records']} records, {stats['bugs']} bugs, {stats['sources']} sources"
    )
    return 0


def _cmd_db(args: argparse.Namespace) -> int:
    from repro.store import StoreError

    try:
        return args.db_func(args)
    except StoreError as error:  # includes StoreMismatchError
        print(f"error: {error}", file=sys.stderr)
        return 2


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import ALL_EXPERIMENTS

    names = list(ALL_EXPERIMENTS) if args.name == "all" else [args.name]
    for name in names:
        module = ALL_EXPERIMENTS.get(name)
        if module is None:
            print(f"unknown experiment {name!r}; choose from {', '.join(ALL_EXPERIMENTS)} or 'all'")
            return 2
        print(f"=== {name} ===")
        result = module.run()
        print(module.render(result))
        print()
    return 0


def _add_lang_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lang", choices=available_frontends(), default="minic",
        help="language frontend to use (default: minic)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spe", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    count = subparsers.add_parser("count", help="count naive vs SPE variants of a seed file")
    count.add_argument("file")
    _add_lang_argument(count)
    count.set_defaults(func=_cmd_count)

    enumerate_cmd = subparsers.add_parser("enumerate", help="print canonical variants of a seed file")
    enumerate_cmd.add_argument("file")
    _add_lang_argument(enumerate_cmd)
    enumerate_cmd.add_argument("--limit", type=_positive_int, default=10)
    enumerate_cmd.add_argument(
        "--start", type=_non_negative_int, default=None,
        help="first variant index to print (reached by unranking, not enumeration)",
    )
    enumerate_cmd.add_argument(
        "--sample", type=_positive_int, default=None, metavar="K",
        help="print K uniformly sampled variants instead of a prefix",
    )
    enumerate_cmd.add_argument("--seed", type=int, default=2017, help="sampling seed")
    enumerate_cmd.set_defaults(func=_cmd_enumerate)

    test = subparsers.add_parser("test", help="differential-test one seed file")
    test.add_argument("file")
    _add_lang_argument(test)
    test.set_defaults(func=_cmd_test)

    campaign = subparsers.add_parser("campaign", help="run a small bug-hunting campaign")
    _add_lang_argument(campaign)
    campaign.add_argument("--files", type=_positive_int, default=25)
    campaign.add_argument("--variants", type=_positive_int, default=40)
    campaign.add_argument("--seed", type=int, default=2017)
    campaign.add_argument(
        "--sample", type=_positive_int, default=None, metavar="K",
        help="test K uniformly sampled variants per file instead of the first K",
    )
    campaign.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="run the campaign across N worker processes (N >= 1)",
    )
    campaign.add_argument(
        "--shard", type=_parse_shard, default=None, metavar="I/N",
        help="run only shard I of N (0-based) and print its mergeable partial summary",
    )
    campaign.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="persist per-unit outcomes to DIR (append-only journal + manifest) "
             "so an interrupted campaign can be resumed",
    )
    campaign.add_argument(
        "--resume", action="store_true",
        help="replay units already journaled in --state-dir instead of re-testing "
             "them (falls back to a fresh run when the journal does not exist yet)",
    )
    campaign.add_argument(
        "--incremental", action="store_true",
        help="like --resume, but re-test journaled units against compiler versions "
             "they have not covered yet (new versions re-run only the new oracle column)",
    )
    campaign.add_argument(
        "--fresh", action="store_true",
        help="discard an existing journal in --state-dir and start over "
             "(without this, a non-resume run refuses to overwrite one)",
    )
    campaign.add_argument(
        "--batch-size", type=int, default=32, metavar="K",
        help="evaluate reference results K variants at a time through the "
             "frontend's batched execution tier (0 or 1 disables batching; "
             "observable results are identical either way)",
    )
    campaign.add_argument(
        "--no-pipeline-cache", action="store_true",
        help="disable the campaign-scoped pass-pipeline outcome cache, which "
             "shares a run on one pre-optimization module between versions "
             "whose seeded faults answer its fault queries alike (every "
             "variant re-runs the full pass pipeline)",
    )
    campaign.add_argument(
        "--unit-timeout", type=float, default=None, metavar="SECONDS",
        help="per-unit wall-clock deadline (engages the campaign supervisor: "
             "worker-side alarm plus a parent watchdog that kills and "
             "respawns a pool stuck past the deadline)",
    )
    campaign.add_argument(
        "--max-retries", type=_non_negative_int, default=2, metavar="N",
        help="retry a failed or timed-out unit up to N times (degrading down "
             "the execution tiers) before quarantining or aborting it",
    )
    campaign.add_argument(
        "--on-fault", choices=["abort", "quarantine"], default="abort",
        help="what to do with a unit that exhausts its retries: abort the "
             "campaign (legacy fail-fast), or journal a quarantine record, "
             "report it, and keep going; quarantined units are skipped on "
             "--resume instead of re-crashing forever",
    )
    campaign.add_argument(
        "--fsync-journal", action="store_true",
        help="fsync the journal after every appended record (machine-crash "
             "durability) instead of once on close; costs per-unit throughput",
    )
    campaign.add_argument(
        "--chaos-crash-at", type=_ordinal_list, default=(), metavar="I,J,...",
        help="fault injection: SIGKILL the worker at these planned unit "
             "ordinals (supervision testing; fires on every attempt)",
    )
    campaign.add_argument(
        "--chaos-hang-at", type=_ordinal_list, default=(), metavar="I,J,...",
        help="fault injection: sleep --chaos-hang-seconds at these planned "
             "unit ordinals",
    )
    campaign.add_argument(
        "--chaos-raise-at", type=_ordinal_list, default=(), metavar="I,J,...",
        help="fault injection: raise a deterministic exception at these "
             "planned unit ordinals",
    )
    campaign.add_argument(
        "--chaos-hang-seconds", type=float, default=60.0, metavar="S",
        help="duration of injected hangs (default 60; pick it above "
             "--unit-timeout so the deadline machinery engages)",
    )
    campaign.add_argument(
        "--versions", type=_version_list, default=None, metavar="V1,V2,...",
        help="comma-separated compiler-under-test versions (default: the "
             "frontend's version matrix, e.g. scc-trunk,lcc-trunk for mini-C)",
    )
    campaign.add_argument(
        "--verify-ir", choices=["off", "bugs", "always"], default="off",
        dest="verify_ir",
        help="run the IR well-formedness verifier between pipeline passes: "
             "'bugs' verifies the compiler under test and files violations "
             "as ill-formed-ir bugs naming the offending pass, 'always' "
             "additionally verifies the fault-free reference compiles "
             "(default: off, byte-identical journals)",
    )
    campaign.add_argument(
        "--sanitize", action="store_true",
        help="classify variants with the static UB sanitizer before the "
             "oracle matrix and skip tainted ones (use-before-init, constant "
             "division by zero, out-of-range shift/index); skips are counted "
             "as observations[sanitized] with a '# sanitizer:' stderr line",
    )
    campaign.add_argument(
        "--reduce", choices=["off", "crash", "all"], default="off",
        help="minimise bug triggers as they are filed: crash bugs only, or "
             "all bug kinds (wrong code and performance included); the "
             "reduced program always reproduces the same bug id",
    )
    campaign.add_argument(
        "--bisect", action="store_true",
        help="attribute every filed bug to the compiler version that "
             "introduced it (reported as 'introduced in ...')",
    )
    campaign.set_defaults(func=_cmd_campaign)

    lint = subparsers.add_parser(
        "lint", help="static UB sanitizer findings for seed files (machine-readable)"
    )
    _add_lang_argument(lint)
    lint.add_argument("files", nargs="*", metavar="FILE", help="source files to lint")
    lint.add_argument(
        "--corpus", type=_positive_int, default=None, metavar="N",
        help="additionally lint the frontend's built-in N-file corpus",
    )
    lint.add_argument("--seed", type=int, default=2017, help="corpus generation seed")
    lint.set_defaults(func=_cmd_lint)

    triage = subparsers.add_parser(
        "triage",
        help="reduce + bisect the bugs journaled in an existing campaign state dir",
    )
    triage.add_argument(
        "--state-dir", required=True, metavar="DIR",
        help="campaign state directory (journal + manifest) to triage",
    )
    triage.add_argument(
        "--reduce", choices=["off", "crash", "all"], default="all",
        help="which bug kinds to minimise (default: all)",
    )
    triage.add_argument(
        "--bisect", action=argparse.BooleanOptionalAction, default=True,
        help="attribute each bug to the lineage version that introduced it "
             "(default: on; --no-bisect disables)",
    )
    triage.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="evaluate reduction candidate batches on N worker processes",
    )
    triage.set_defaults(func=_cmd_triage)

    db = subparsers.add_parser(
        "db", help="query the indexed bug database (SQLite view of campaign journals)"
    )
    db_subparsers = db.add_subparsers(dest="db_command", required=True)

    def _add_query_source(parser: argparse.ArgumentParser) -> None:
        source = parser.add_mutually_exclusive_group(required=True)
        source.add_argument(
            "--state-dir", default=None, metavar="DIR",
            help="campaign state directory; its journal is compacted into the "
                 "view first, so queries always reflect the journal of record",
        )
        source.add_argument(
            "--db", default=None, metavar="FILE",
            help="an existing database file (e.g. a cross-campaign merge)",
        )

    db_compact = db_subparsers.add_parser(
        "compact", help="build/refresh the SQLite view from the campaign journal"
    )
    db_compact.add_argument("--state-dir", required=True, metavar="DIR")
    db_compact.set_defaults(func=_cmd_db, db_func=_cmd_db_compact)

    db_status = db_subparsers.add_parser(
        "status", help="campaign progress without replaying the journal"
    )
    db_status.add_argument("--state-dir", required=True, metavar="DIR")
    db_status.add_argument("--format", choices=["table", "json"], default="table")
    db_status.set_defaults(func=_cmd_db, db_func=_cmd_db_status)

    db_bugs = db_subparsers.add_parser(
        "bugs", help="ad-hoc filtered bug queries over the indexed view"
    )
    _add_query_source(db_bugs)
    db_bugs.add_argument(
        "--kind", choices=sorted(_DB_KIND_MAP), default=None,
        help="filter by bug kind",
    )
    db_bugs.add_argument("--lineage", default=None, help="filter by compiler lineage")
    db_bugs.add_argument(
        "--introduced-in", default=None, metavar="VERSION",
        help="filter by the version that introduced the bug (campaign bisection "
             "or journaled triage attribution, whichever is known)",
    )
    db_bugs.add_argument("--frontend", default=None, help="filter by language frontend")
    db_bugs.add_argument(
        "--label", default=None,
        help="restrict to one attached journal of a merged database",
    )
    db_bugs.add_argument("--format", choices=["table", "json"], default="table")
    db_bugs.set_defaults(func=_cmd_db, db_func=_cmd_db_bugs)

    db_export = db_subparsers.add_parser(
        "export", help="write the imported records back out as a JSONL journal"
    )
    _add_query_source(db_export)
    db_export.add_argument("--output", required=True, metavar="FILE")
    db_export.add_argument(
        "--label", default=None,
        help="export one attached journal of a merged database",
    )
    db_export.set_defaults(func=_cmd_db, db_func=_cmd_db_export)

    db_merge = db_subparsers.add_parser(
        "merge", help="attach several campaigns' journals into one database"
    )
    db_merge.add_argument("--out", required=True, metavar="FILE", help="database file to build")
    db_merge.add_argument(
        "state_dirs", nargs="+", metavar="STATE_DIR",
        help="campaign state directories to attach (directory name becomes the label)",
    )
    db_merge.set_defaults(func=_cmd_db, db_func=_cmd_db_merge)

    experiment = subparsers.add_parser("experiment", help="regenerate a paper table/figure")
    experiment.add_argument("name", help="table1|table2|table3|table4|fig8|fig9|fig10|all")
    experiment.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
