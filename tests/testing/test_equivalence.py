"""Equivalence: the AST-rebind pipeline vs the legacy render+reparse pipeline.

The parse-once fast path (``use_ast_rebinding=True``, the default) must be
observationally indistinguishable from the legacy pipeline that renders every
variant to text and re-parses it once for the reference interpreter and once
per compiler configuration.  These tests run both pipelines over the paper
seed corpus and compare everything a campaign reports: observation counts by
kind, per-file counters, bug dedup keys, signatures, trigger programs and
report metadata -- serially and under sharding.
"""

import pytest

from repro.compiler.pipeline import OptimizationLevel
from repro.corpus.seeds import paper_seed_programs
from repro.core.spe import EnumerationBudget
from repro.testing.harness import Campaign, CampaignConfig


def config(rebind: bool, **overrides) -> CampaignConfig:
    defaults = dict(
        versions=["scc-trunk", "lcc-trunk"],
        opt_levels=[OptimizationLevel.O0, OptimizationLevel.O3],
        budget=EnumerationBudget(max_variants=10_000),
        max_variants_per_file=15,
        use_ast_rebinding=rebind,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def bug_fingerprints(result) -> list[tuple]:
    """Every piece of report metadata that must not depend on the pipeline."""
    return sorted(
        (
            report.dedup_key,
            report.kind.value,
            report.compiler,
            report.lineage,
            str(report.opt_level),
            report.signature,
            report.test_program,
            report.source_name,
            report.component,
            report.priority,
            tuple(sorted(report.fault_ids)),
            tuple(report.affected_versions),
            report.duplicate_count,
        )
        for report in result.bugs.reports
    )


def result_fingerprint(result) -> tuple:
    return (
        result.files_processed,
        result.files_skipped_budget,
        result.files_skipped_error,
        result.variants_tested,
        dict(result.observations),
        bug_fingerprints(result),
    )


@pytest.fixture(scope="module")
def corpus():
    return paper_seed_programs()


class TestPipelineEquivalence:
    def test_serial_runs_identical(self, corpus):
        fast = Campaign(config(True)).run_sources(corpus)
        legacy = Campaign(config(False)).run_sources(corpus)
        assert result_fingerprint(fast) == result_fingerprint(legacy)

    def test_sharded_runs_identical(self, corpus):
        fast = Campaign(config(True)).run_sources(corpus, shard_count=3)
        legacy = Campaign(config(False)).run_sources(corpus, shard_count=3)
        assert result_fingerprint(fast) == result_fingerprint(legacy)
        # And sharding itself must not change the fast pipeline's results.
        serial = Campaign(config(True)).run_sources(corpus)
        assert result_fingerprint(fast) == result_fingerprint(serial)

    def test_sampled_runs_identical(self, corpus):
        kwargs = dict(max_variants_per_file=None, sample_per_file=10)
        fast = Campaign(config(True, **kwargs)).run_sources(corpus)
        legacy = Campaign(config(False, **kwargs)).run_sources(corpus)
        assert result_fingerprint(fast) == result_fingerprint(legacy)

    def test_naive_enumeration_identical(self, corpus):
        kwargs = dict(use_naive_enumeration=True, max_variants_per_file=8)
        fast = Campaign(config(True, **kwargs)).run_sources(corpus)
        legacy = Campaign(config(False, **kwargs)).run_sources(corpus)
        assert result_fingerprint(fast) == result_fingerprint(legacy)

class TestBatchedEquivalence:
    """PR 6: the batched tier and the throughput caches change nothing
    observable.  serial == sharded == batched == legacy, for the result
    fingerprint and for the journal's unit records byte-for-byte."""

    def test_batched_scalar_legacy_identical(self, corpus):
        batched = Campaign(config(True, batch_size=32)).run_sources(corpus)
        scalar = Campaign(config(True, batch_size=0)).run_sources(corpus)
        legacy = Campaign(config(False)).run_sources(corpus)
        assert result_fingerprint(batched) == result_fingerprint(scalar)
        assert result_fingerprint(batched) == result_fingerprint(legacy)

    def test_tiny_batch_size_identical(self, corpus):
        # Batch boundaries mid-file must not matter.
        batched = Campaign(config(True, batch_size=3)).run_sources(corpus)
        scalar = Campaign(config(True, batch_size=0)).run_sources(corpus)
        assert result_fingerprint(batched) == result_fingerprint(scalar)

    def test_pipeline_cache_changes_nothing(self, corpus):
        # PR 8: replaying recorded pass-pipeline outcomes (module, triggered
        # faults, crashes) must be observationally invisible.
        cached = Campaign(config(True, cache_pipeline_results=True)).run_sources(corpus)
        uncached = Campaign(
            config(True, cache_pipeline_results=False)
        ).run_sources(corpus)
        assert result_fingerprint(cached) == result_fingerprint(uncached)

    def test_pipeline_cache_changes_nothing_while(self):
        from repro.frontends import get_frontend

        corpus = get_frontend("while").build_corpus(files=6, seed=2017)
        kwargs = dict(frontend="while", versions=None, opt_levels=None)
        cached = Campaign(config(True, **kwargs)).run_sources(corpus)
        uncached = Campaign(
            config(True, cache_pipeline_results=False, **kwargs)
        ).run_sources(corpus)
        assert result_fingerprint(cached) == result_fingerprint(uncached)

    def test_persistent_pool_identical_to_serial(self, corpus):
        serial = Campaign(config(True)).run_sources(corpus)
        pooled = Campaign(config(True, jobs=2)).run_sources(corpus, shard_count=4)
        assert result_fingerprint(pooled) == result_fingerprint(serial)

    def test_while_frontend_batched_identical(self):
        from repro.frontends import get_frontend

        corpus = get_frontend("while").build_corpus(files=6, seed=2017)
        kwargs = dict(frontend="while", versions=None, opt_levels=None)
        batched = Campaign(config(True, **kwargs)).run_sources(corpus)
        scalar = Campaign(config(True, batch_size=0, **kwargs)).run_sources(corpus)
        legacy = Campaign(config(False, **kwargs)).run_sources(corpus)
        assert result_fingerprint(batched) == result_fingerprint(scalar)
        assert result_fingerprint(batched) == result_fingerprint(legacy)

    def test_journal_unit_records_are_pinned(self, corpus, tmp_path):
        # The journal is the durable truth a resumed campaign replays from;
        # batched and slim-payload runs must journal the *same* unit records
        # (same keys -- which hash unit sources -- same merged results).
        def unit_lines(state_dir):
            lines = (state_dir / "journal.jsonl").read_bytes().splitlines()
            return sorted(line for line in lines if b'"type": "unit"' in line or b'"type":"unit"' in line)

        # Same plan (shard_count=2) across all runs: unit keys encode the
        # index slices, so only the execution strategy may vary.
        runs = [
            ("batched", dict(batch_size=32)),
            ("scalar", dict(batch_size=0)),
            ("legacy-pipeline", dict(use_ast_rebinding=False)),
            # pooled-slim ships the corpus through the pool initializer, and
            # pipeline-cache-off the uncached compile path.
            ("pooled-slim", dict(batch_size=32, jobs=2)),
            ("pipeline-cache-off", dict(batch_size=32, cache_pipeline_results=False)),
        ]
        journals = []
        for label, overrides in runs:
            state_dir = tmp_path / label
            Campaign(config(True, state_dir=str(state_dir), **overrides)).run_sources(
                corpus, shard_count=2
            )
            journals.append((label, unit_lines(state_dir)))
        baseline_label, baseline = journals[0]
        assert baseline, "journal must contain unit records"
        for label, lines in journals[1:]:
            assert lines == baseline, f"{label} journal differs from {baseline_label}"

    def test_while_journal_unit_records_are_pinned(self, tmp_path):
        # The WHILE frontend must honour the same byte-identity contract:
        # vectorized == scalar == legacy == pooled.
        from repro.frontends import get_frontend

        corpus = get_frontend("while").build_corpus(files=6, seed=2017)
        kwargs = dict(frontend="while", versions=None, opt_levels=None)

        def unit_lines(state_dir):
            lines = (state_dir / "journal.jsonl").read_bytes().splitlines()
            return sorted(
                line
                for line in lines
                if b'"type": "unit"' in line or b'"type":"unit"' in line
            )

        runs = [
            ("vectorized", dict(batch_size=32)),
            ("scalar", dict(batch_size=0)),
            ("legacy-pipeline", dict(use_ast_rebinding=False)),
            ("pooled", dict(batch_size=32, jobs=2)),
        ]
        journals = []
        for label, overrides in runs:
            state_dir = tmp_path / label
            Campaign(
                config(True, state_dir=str(state_dir), **kwargs, **overrides)
            ).run_sources(corpus, shard_count=2)
            journals.append((label, unit_lines(state_dir)))
        baseline_label, baseline = journals[0]
        assert baseline, "journal must contain unit records"
        for label, lines in journals[1:]:
            assert lines == baseline, f"{label} journal differs from {baseline_label}"

    def test_chunk_straddling_untranslatable_fallback(self, tmp_path):
        # A corpus mixing codegen-eligible skeletons with one the vectorized
        # tier cannot translate (user function call + parameters): batch
        # chunks for the ineligible file fall back to per-variant reference
        # interpretation, chunks for the eligible files run the generated
        # trampoline, and a tiny batch size forces chunk boundaries to
        # straddle order-clean/legacy-text mixes.  Everything must match the
        # scalar and legacy pipelines, journal bytes included.
        corpus = {
            "plain.c": (
                "int main(void) { int a; int b; int c; a = 1; b = 2; "
                "c = a + b; if (c > 2) { c = c - a; } return c; }"
            ),
            "helper.c": (
                "int helper(int v) { return v + 1; }\n"
                "int main(void) { int a; int b; a = 3; b = helper(a); "
                "return a + b; }"
            ),
            "loop.c": (
                "int main(void) { int i; int s; s = 0; "
                "for (i = 0; i < 4; i = i + 1) { s = s + i; } return s; }"
            ),
        }
        from repro.minic.codegen import runner_for_skeleton

        probe = Campaign(config(True))
        assert runner_for_skeleton(probe._extract_cached("h", corpus["helper.c"])) is None
        assert runner_for_skeleton(probe._extract_cached("p", corpus["plain.c"])) is not None

        def unit_lines(state_dir):
            lines = (state_dir / "journal.jsonl").read_bytes().splitlines()
            return sorted(
                line
                for line in lines
                if b'"type": "unit"' in line or b'"type":"unit"' in line
            )

        journals = []
        fingerprints = []
        runs = [
            ("vectorized-tiny-chunks", dict(batch_size=3, max_variants_per_file=None)),
            ("scalar", dict(batch_size=0, max_variants_per_file=None)),
            ("legacy-pipeline", dict(use_ast_rebinding=False, max_variants_per_file=None)),
        ]
        for label, overrides in runs:
            state_dir = tmp_path / label
            result = Campaign(
                config(True, state_dir=str(state_dir), **overrides)
            ).run_sources(corpus)
            journals.append((label, unit_lines(state_dir)))
            fingerprints.append(result_fingerprint(result))
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]
        baseline_label, baseline = journals[0]
        assert baseline, "journal must contain unit records"
        for label, lines in journals[1:]:
            assert lines == baseline, f"{label} journal differs from {baseline_label}"

    def test_db_view_pins_journal_across_strategies(self, corpus, tmp_path):
        # The indexed SQLite view must answer identically whichever
        # execution strategy wrote the journal: serial, sharded and pooled
        # runs all compact into views reporting the same bugs (ids, order,
        # introduced_in) as their own in-memory replay -- and, since the
        # journals are byte-identical, as each other.
        from repro.store import CampaignDatabase, CampaignStore

        runs = [
            ("serial", dict()),
            ("sharded", dict(jobs=2)),
            ("pooled", dict(batch_size=32, jobs=2)),
        ]
        listings = []
        for label, overrides in runs:
            state_dir = tmp_path / label
            Campaign(config(True, state_dir=str(state_dir), **overrides)).run_sources(
                corpus, shard_count=2
            )
            store = CampaignStore(state_dir)
            store.compact()
            replay = store.merged_result(backing="journal")
            view = store.merged_result(backing="db")
            assert result_fingerprint(view) == result_fingerprint(replay)
            assert bug_fingerprints(view) == bug_fingerprints(replay)
            with CampaignDatabase.open(store.db_path) as db:
                pairs = db.query_bugs()
            assert [(r.id, r.introduced_in) for _, r in pairs] == [
                (r.id, r.introduced_in) for r in replay.bugs.reports
            ]
            listings.append((label, [(r.id, r.introduced_in) for _, r in pairs]))
        baseline_label, baseline = listings[0]
        for label, listing in listings[1:]:
            assert listing == baseline, f"{label} view differs from {baseline_label}"

    def test_resumed_run_with_db_status_checks(self, corpus, tmp_path):
        # serial == resumed, with every status probe answered by the view:
        # after compacting, status() must not touch the journal loader, and
        # the resumed campaign's result must equal the uninterrupted one.
        from repro.store import CampaignStore

        state_dir = tmp_path / "state"
        baseline = Campaign(config(True, state_dir=str(state_dir))).run_sources(corpus)
        store = CampaignStore(state_dir)
        store.compact()
        before = store.status()
        resumed = Campaign(config(True, state_dir=str(state_dir))).run_sources(
            corpus, resume=True
        )
        assert result_fingerprint(resumed) == result_fingerprint(baseline)
        assert bug_fingerprints(resumed) == bug_fingerprints(baseline)
        # A pure replay appends no unit records, so a re-compacted view
        # reports the same unit counts it did before the resume.
        store.compact()
        after = store.status()
        assert (after["units_journaled"], after["distinct_units"]) == (
            before["units_journaled"],
            before["distinct_units"],
        )


class TestFallbackEquivalence:
    def test_use_before_declaration_vectors_fall_back(self):
        # Holes that precede a same-scope same-type declaration realize
        # use-before-declaration variants; the fast path must route exactly
        # those vectors through render+reparse so the textual frontend's
        # rejection is reproduced.
        seeds = {
            "late_decl.c": (
                "int main(void) { int a = 1; a = a + 1; int b = 2; return a + b; }"
            )
        }
        fast = Campaign(config(True, max_variants_per_file=None)).run_sources(seeds)
        legacy = Campaign(config(False, max_variants_per_file=None)).run_sources(seeds)
        assert fast.observations.get("skipped", 0) > 0
        assert result_fingerprint(fast) == result_fingerprint(legacy)
