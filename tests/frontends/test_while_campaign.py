"""End-to-end WHILE campaigns: the frontend refactor's acceptance tests.

The WHILE frontend must drive the identical plan/execute/merge pipeline as
mini-C and actually *find* the ``wc`` lineage's seeded bugs: enumerated
variants whose variable-usage patterns reach self-subtraction, reflexive
comparisons, self-assignment and duplicate branches.
"""

import pytest

from repro.compiler.pipeline import OptimizationLevel
from repro.core.spe import EnumerationBudget
from repro.corpus.while_seeds import build_while_corpus, while_seed_programs
from repro.lang import compile as while_compile
from repro.lang.codegen import compile_program_runner
from repro.testing.bugs import BugKind
from repro.testing.harness import Campaign, CampaignConfig


def config(**overrides) -> CampaignConfig:
    defaults = dict(frontend="while", max_variants_per_file=15)
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def fingerprint(result) -> tuple:
    return (
        result.files_processed,
        result.files_skipped_budget,
        result.files_skipped_error,
        result.variants_tested,
        dict(result.observations),
        sorted((r.dedup_key, r.signature, r.duplicate_count) for r in result.bugs.reports),
    )


class TestSeededBugs:
    def test_campaign_finds_fold_crash(self):
        # `c := a - b` variants that realize `x - x` crash wc's folder at -O1+.
        corpus = {"sub.while": "a := 7 ;\nb := 2 ;\nc := a - b\n"}
        result = Campaign(
            config(versions=["wc-trunk"], opt_levels=[OptimizationLevel.O2],
                   max_variants_per_file=50)
        ).run_sources(corpus)
        crashes = [r for r in result.bugs.reports if r.kind is BugKind.CRASH]
        assert crashes, result.summary()
        assert any("wfold_binary" in r.signature for r in crashes)
        # Crash metadata flows from the fault catalogue into the report.
        report = next(r for r in crashes if "wfold_binary" in r.signature)
        assert report.lineage == "wc"
        assert report.component == "middle-end"
        assert "wfold-sub-self" in report.fault_ids
        assert report.affected_versions  # every wc version carries the fault

    def test_campaign_finds_reflexive_comparison_wrong_code(self):
        # `a >= b` variants with both sides equal are folded to *false* by
        # the wcmp-self-reflexive fault (present from wc-2.0).
        corpus = {
            "guard.while": "a := 4 ;\nb := 1 ;\nif (a >= b) then c := a - b else c := b\n"
        }
        result = Campaign(
            config(versions=["wc-2.0"], opt_levels=[OptimizationLevel.O1],
                   max_variants_per_file=80)
        ).run_sources(corpus)
        wrong = [r for r in result.bugs.reports if r.kind is BugKind.WRONG_CODE]
        assert wrong, result.summary()
        assert any("wcmp-self-reflexive" in r.fault_ids for r in wrong)

    def test_campaign_finds_performance_blowup(self):
        # `b := a` variants that realize `x := x` trip the pass-manager
        # re-run blow-up, reported as a performance bug.
        corpus = {"copy.while": "a := 5 ;\nb := a ;\nc := b ;\na := c\n"}
        result = Campaign(
            config(versions=["wc-trunk"], opt_levels=[OptimizationLevel.O2],
                   max_variants_per_file=60)
        ).run_sources(corpus)
        perf = [r for r in result.bugs.reports if r.kind is BugKind.PERFORMANCE]
        assert perf, result.summary()
        assert all("wopt-fixpoint-blowup" in r.fault_ids for r in perf)

    def test_default_matrix_over_seed_corpus_finds_all_kinds(self):
        result = Campaign(config()).run_sources(while_seed_programs())
        kinds = {report.kind for report in result.bugs.reports}
        assert BugKind.CRASH in kinds
        assert BugKind.WRONG_CODE in kinds
        assert BugKind.PERFORMANCE in kinds


class TestPipelineParity:
    """The WHILE campaign must behave exactly like the mini-C one under the
    same sharding/sampling/pipeline knobs."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return while_seed_programs()

    def test_rebind_and_legacy_pipelines_identical(self, corpus):
        fast = Campaign(config(use_ast_rebinding=True)).run_sources(corpus)
        legacy = Campaign(config(use_ast_rebinding=False)).run_sources(corpus)
        assert fingerprint(fast) == fingerprint(legacy)

    def test_sharded_run_matches_serial(self, corpus):
        serial = Campaign(config()).run_sources(corpus)
        sharded = Campaign(config()).run_sources(corpus, shard_count=3)
        assert fingerprint(serial) == fingerprint(sharded)

    def test_single_shard_results_merge_to_serial(self, corpus):
        serial = Campaign(config()).run_sources(corpus)
        partials = [
            Campaign(config()).run_sources(corpus, shard_count=3, shard_index=index)
            for index in range(3)
        ]
        merged = partials[0].merge(partials[1]).merge(partials[2])
        assert fingerprint(serial) == fingerprint(merged)

    def test_sampled_campaign_runs(self, corpus):
        result = Campaign(
            config(max_variants_per_file=None, sample_per_file=10)
        ).run_sources(corpus)
        assert result.variants_tested > 0

    def test_generated_corpus_campaign(self):
        corpus = build_while_corpus(files=10, seed=99)
        result = Campaign(config(max_variants_per_file=8)).run_sources(corpus)
        assert result.files_processed == len(corpus)
        assert result.variants_tested > 0


class TestDeepNesting:
    """CPython compiles at most 20 statically nested loops; deeper programs
    run on the interpreter on both sides of the oracle."""

    DEAD = "x := 1; y := 0; " + "while (false) do (" * 21 + "x := y" + ")" * 21
    # The first variants read `a >= a`, which wc-2.0 and later fold to false
    # at -O2: the produced loop never ends, so its run reaches the tier-up,
    # which cannot compile it.
    ENDLESS = (
        "a := 0; b := 0; while (not (a >= b)) do (a := a + 1; "
        + "while (a < 0) do (" * 20 + "b := a" + ")" * 20 + ")"
    )

    @pytest.mark.parametrize("source, tiers_up", [(DEAD, False), (ENDLESS, True)], ids=["dead", "endless"])
    def test_campaign_completes_at_every_batch_size(self, source, tiers_up, monkeypatch):
        translations = []

        def spy(program):
            runner = compile_program_runner(program)
            translations.append(runner)
            return runner

        monkeypatch.setattr(while_compile, "compile_program_runner", spy)
        batched, scalar = (
            Campaign(
                config(max_variants_per_file=2, budget=EnumerationBudget(truncate=True), **batching)
            ).run_sources({"deep.while": source})
            for batching in ({}, {"batch_size": 0})
        )
        assert batched.variants_tested == 2
        assert fingerprint(batched) == fingerprint(scalar)
        # Every translation the tier-up asked for was refused.
        assert len(translations) == (2 if tiers_up else 0) and not any(translations)
        signatures = {report.signature for report in batched.bugs.reports}
        assert ("produced code timeout: exceeded 500000 steps" in signatures) == tiers_up
