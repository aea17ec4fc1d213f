"""End-to-end campaign throughput: variants/sec on a fixed corpus slice.

Measures the parse-once AST-rebind pipeline (the default) against the legacy
render+reparse pipeline on the same default-corpus workload, counts actual
frontend passes (lex+parse+resolve) per pipeline, measures every registered
language frontend's campaign throughput (the ``per_language`` section), and
writes the numbers to ``BENCH_campaign.json`` in the repository root so the
performance trajectory of the campaign hot path is recorded commit over
commit and per language.

Reference point: at the seed revision (before the parse-once rework and the
closure-compiled executors) this workload ran at ~11.6 variants/sec on the
development machine; the rebind pipeline now exceeds 5x that on the same
machine.  Absolute numbers are machine-dependent, so the assertions below
pin only machine-independent facts: the structural frontend-pass counts and
that the rebind pipeline is not slower than the legacy one.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import repro.minic.parser as minic_parser
from repro.experiments.table1 import build_corpus
from repro.frontends import available_frontends, get_frontend
from repro.testing.harness import Campaign, CampaignConfig

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The fixed workload: a slice of the default generated corpus at the CLI's
#: default per-file variant budget.
WORKLOAD = dict(files=12, seed=2017, max_variants_per_file=25)

#: Draws of each pipeline (rebind, journaled, legacy), run round-robin; the
#: fastest wall clock of each is kept (the pass counts are deterministic),
#: so the recorded ratios track the pipelines, not scheduler noise on a
#: shared machine.
DRAWS = 3

#: The per-language workload (runs twice -- batched and scalar -- per
#: registered frontend).  Big enough that per-campaign fixed costs (runner
#: codegen, pass-pipeline warmup) amortize, matching the headline workload.
LANGUAGE_WORKLOAD = dict(files=12, seed=2017, max_variants_per_file=25)


def _run_campaign(corpus, use_ast_rebinding: bool):
    """Run the campaign once, returning (result, seconds, frontend_passes)."""
    config = CampaignConfig(
        max_variants_per_file=WORKLOAD["max_variants_per_file"],
        use_ast_rebinding=use_ast_rebinding,
    )
    campaign = Campaign(config)
    original_parse = minic_parser.parse
    counter = {"parses": 0}

    def counting_parse(source):
        counter["parses"] += 1
        return original_parse(source)

    # The harness, the oracle and the compiler all import ``parse`` through
    # this module at call time only in the legacy path; the fast path parses
    # once per file at skeleton extraction.
    import repro.minic.skeleton as skeleton_module
    import repro.minic.interp as interp_module
    import repro.compiler.driver as driver_module

    patched = [minic_parser, skeleton_module, interp_module, driver_module]
    for module in patched:
        module.parse = counting_parse
    try:
        started = time.perf_counter()
        result = campaign.run_sources(corpus)
        elapsed = time.perf_counter() - started
    finally:
        for module in patched:
            module.parse = original_parse
    return result, elapsed, counter["parses"]


def _run_journaled(corpus):
    """One journaled campaign run and its resume, in a fresh state directory.

    Returns ``(result, seconds, resumed_result, resume_seconds)``.
    """
    with tempfile.TemporaryDirectory() as state_dir:
        config = CampaignConfig(
            max_variants_per_file=WORKLOAD["max_variants_per_file"],
            state_dir=state_dir,
        )
        started = time.perf_counter()
        result = Campaign(config).run_sources(corpus)
        seconds = time.perf_counter() - started
        started = time.perf_counter()
        resumed_result = Campaign(config).run_sources(corpus, resume=True)
        resume_seconds = time.perf_counter() - started
    return result, seconds, resumed_result, resume_seconds


def _cache_rates(cache_stats):
    """Hit/miss counters plus derived hit rates for each campaign cache."""
    rates = {}
    for label in ("module", "pipeline"):
        hits = cache_stats.get(f"{label}_hits", 0)
        misses = cache_stats.get(f"{label}_misses", 0)
        total = hits + misses
        rates[label] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / total, 4) if total else 0.0,
        }
    return rates


def _run_stage_timed(corpus, state_dir: str):
    """One journaled campaign run with per-stage wall-clock attribution.

    Class-level patches accumulate time in five stages -- ``materialize``
    (skeleton extraction), ``execute`` (reference interpretation, batched or
    scalar), ``compile`` (pass-pipeline runs per configuration, cache hits
    included), ``vm`` (interpreting optimized modules) and ``journal``
    (durable unit appends).  A per-stage depth guard keeps nested calls of
    the *same* stage (e.g. the batch tier falling back to the per-variant
    interpreter) from double-counting while still attributing calls that
    cross stages.
    Everything else (enumeration, oracle classification, merging, planning)
    shows up as ``other``.
    """
    from repro.compiler.driver import Compiler
    from repro.frontends.minic import MiniCFrontend
    from repro.store.journal import JournalWriter

    stages = {
        "materialize": 0.0,
        "execute": 0.0,
        "compile": 0.0,
        "vm": 0.0,
        "journal": 0.0,
    }
    depth = {stage: 0 for stage in stages}

    def timed(stage, fn):
        def wrapper(*args, **kwargs):
            if depth[stage]:
                return fn(*args, **kwargs)
            depth[stage] += 1
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stages[stage] += time.perf_counter() - started
                depth[stage] -= 1

        return wrapper

    patches = [
        (MiniCFrontend, "extract_skeleton", "materialize"),
        (MiniCFrontend, "run_reference_batch", "execute"),
        (MiniCFrontend, "run_reference_variant", "execute"),
        (Compiler, "compile_variant", "compile"),
        (Compiler, "compile_source", "compile"),
        (Compiler, "run", "vm"),
        (JournalWriter, "append_unit", "journal"),
    ]
    originals = [(cls, name, getattr(cls, name)) for cls, name, _ in patches]
    for cls, name, stage in patches:
        setattr(cls, name, timed(stage, getattr(cls, name)))
    config = CampaignConfig(
        max_variants_per_file=WORKLOAD["max_variants_per_file"], state_dir=state_dir
    )
    started = time.perf_counter()
    try:
        result = Campaign(config).run_sources(corpus)
    finally:
        for cls, name, original in originals:
            setattr(cls, name, original)
    return result, time.perf_counter() - started, stages


def test_campaign_throughput(benchmark, run_once):
    corpus = build_corpus(files=WORKLOAD["files"], seed=WORKLOAD["seed"])

    fast_result, fast_seconds, fast_parses = run_once(
        benchmark, _run_campaign, corpus, True
    )
    # Journaling overhead: the same workload with the persistent campaign
    # store enabled (one unbuffered JSONL append per completed unit), then
    # resumed from its journal.  Drawn right after the rebind run it is
    # compared with, so both see the same load.
    journal_result, journal_seconds, resumed_result, resume_seconds = _run_journaled(
        corpus
    )
    legacy_result, legacy_seconds, legacy_parses = _run_campaign(corpus, False)
    for _ in range(DRAWS - 1):
        fast_seconds = min(fast_seconds, _run_campaign(corpus, True)[1])
        _, seconds, _, resumed_seconds = _run_journaled(corpus)
        journal_seconds = min(journal_seconds, seconds)
        resume_seconds = min(resume_seconds, resumed_seconds)
        legacy_seconds = min(legacy_seconds, _run_campaign(corpus, False)[1])

    # Both pipelines test the same variants and see the same world.
    assert fast_result.variants_tested == legacy_result.variants_tested > 0
    assert fast_result.observations == legacy_result.observations

    variants = fast_result.variants_tested
    fast_vps = variants / fast_seconds
    legacy_vps = variants / legacy_seconds
    configs = len(CampaignConfig().oracles())

    # The architectural pin, independent of machine speed: the legacy
    # pipeline front-ends every variant once for the reference interpreter
    # and once per compiler configuration; the rebind pipeline parses each
    # *file* once, plus a handful of render+reparse fallbacks for
    # use-before-declaration vectors -- never a per-variant pass.
    assert legacy_parses >= variants * (1 + configs)
    assert fast_parses * 10 <= legacy_parses
    assert fast_parses < variants

    # Guard against gross regressions of the fast path relative to legacy
    # (generous margin: both runs share the machine, noise is correlated).
    assert fast_vps >= 0.9 * legacy_vps

    # The store's cost is per *unit*, not per variant, so the journaling
    # overhead must stay a small fraction of rebind throughput; a resumed
    # run replays the journal without testing anything and should be
    # near-instant.
    assert journal_result.variants_tested == variants
    assert journal_result.observations == fast_result.observations
    assert resumed_result.observations == journal_result.observations
    assert resumed_result.variants_tested == variants  # replayed, not re-tested
    journal_vps = variants / journal_seconds
    # Generous bound (shared machine, correlated noise); the recorded
    # overhead_pct is the number the acceptance criterion tracks.
    assert journal_vps >= 0.75 * fast_vps

    # Per-stage attribution runs separately from the overhead measurement:
    # the stage wrappers sit on per-variant-per-configuration hot calls
    # (``Compiler.run``, ``compile_variant``), so their own bookkeeping cost
    # must not count against the journaling-overhead bound above.
    with tempfile.TemporaryDirectory() as stage_dir:
        stage_result, stage_total_seconds, stage_seconds = _run_stage_timed(
            corpus, stage_dir
        )
    assert stage_result.observations == journal_result.observations

    # Per-language throughput: every registered frontend runs the same small
    # campaign shape, so the recorded numbers are comparable run over run.
    # Each language is measured twice -- the default batched tier and the
    # scalar tier (batch_size=0) -- so the codegen tier's gain is recorded
    # per language, commit over commit.
    per_language = {}
    for language in available_frontends():
        frontend = get_frontend(language)
        language_corpus = frontend.build_corpus(
            files=LANGUAGE_WORKLOAD["files"], seed=LANGUAGE_WORKLOAD["seed"]
        )
        timings = {}
        results = {}
        for tier, batch_size in (("batched", 32), ("scalar", 0)):
            language_config = CampaignConfig(
                frontend=language,
                max_variants_per_file=LANGUAGE_WORKLOAD["max_variants_per_file"],
                batch_size=batch_size,
            )
            # Best of three runs: the recorded number tracks the pipeline,
            # not scheduler noise on a shared machine.
            best = None
            for _ in range(3):
                started = time.perf_counter()
                results[tier] = Campaign(language_config).run_sources(language_corpus)
                elapsed = time.perf_counter() - started
                best = elapsed if best is None else min(best, elapsed)
            timings[tier] = best
        language_result = results["batched"]
        assert language_result.variants_tested > 0
        # The batch tier changes throughput only, never observations.
        assert language_result.observations == results["scalar"].observations
        per_language[language] = {
            "files": len(language_corpus),
            "variants_tested": language_result.variants_tested,
            "distinct_bugs": len(language_result.bugs),
            "oracle_configurations": len(language_config.oracles()),
            "variants_per_sec": round(
                language_result.variants_tested / timings["batched"], 2
            ),
            "scalar_variants_per_sec": round(
                results["scalar"].variants_tested / timings["scalar"], 2
            ),
        }

    payload = {
        "workload": WORKLOAD,
        "variants_tested": variants,
        "oracle_configurations": configs,
        "rebind_variants_per_sec": round(fast_vps, 2),
        "legacy_variants_per_sec": round(legacy_vps, 2),
        "rebind_frontend_passes": fast_parses,
        "legacy_frontend_passes": legacy_parses,
        "rebind_frontend_passes_per_variant": round(fast_parses / variants, 4),
        "legacy_frontend_passes_per_variant": round(legacy_parses / variants, 4),
        "journal": {
            "journaled_variants_per_sec": round(journal_vps, 2),
            "overhead_pct": round(max(0.0, (1 - journal_vps / fast_vps)) * 100, 2),
            "resume_replay_seconds": round(resume_seconds, 3),
        },
        "per_stage": {
            "total_seconds": round(stage_total_seconds, 3),
            "materialize_seconds": round(stage_seconds["materialize"], 3),
            "execute_seconds": round(stage_seconds["execute"], 3),
            "compile_seconds": round(stage_seconds["compile"], 3),
            "vm_seconds": round(stage_seconds["vm"], 3),
            "journal_seconds": round(stage_seconds["journal"], 3),
            "other_seconds": round(
                max(0.0, stage_total_seconds - sum(stage_seconds.values())), 3
            ),
        },
        "cache": _cache_rates(journal_result.cache_stats),
        "language_workload": LANGUAGE_WORKLOAD,
        "per_language": per_language,
        "seed_baseline_note": (
            "the seed revision ran the full 25-file/40-variant version of this "
            "workload at ~11.6 variants/sec on the development machine; the "
            "batched pipeline with the pipeline-outcome and module-result "
            "caches now runs more than an order of magnitude faster there "
            "(see per_language for the current per-frontend numbers)"
        ),
    }
    # Read-modify-write: other benchmarks (triage) own their own top-level
    # keys in the same file, so merge instead of overwriting.
    bench_path = REPO_ROOT / "BENCH_campaign.json"
    try:
        existing = json.loads(bench_path.read_text())
    except (OSError, json.JSONDecodeError):
        existing = {}
    existing.update(payload)
    bench_path.write_text(json.dumps(existing, indent=2) + "\n")
