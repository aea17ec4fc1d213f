"""Conformance suite for the frontend plug-in protocol.

Every registered frontend must satisfy the same contract: parse a seed into
a skeleton, realize/bind characteristic vectors round-trippably, interpret
deterministically, expose the executor pair the differential oracle needs,
reduce bug triggers, and supply a campaign corpus.  The suite is
parametrized over :func:`repro.frontends.available_frontends`, so a third
language gets its conformance checks for free by registering.
"""

import pytest

from repro.core.execution import ExecutionResult
from repro.core.holes import BoundVariant, Skeleton
from repro.core.spe import SkeletonEnumerator
from repro.frontends import Frontend, available_frontends, get_frontend
from repro.store import CampaignStore, load_unit_records, merge_unit_records
from repro.testing.harness import Campaign, CampaignConfig, CampaignResult
from repro.testing.oracle import DifferentialOracle, Observation, ObservationKind

#: One small, UB-free seed per language, with enough holes to enumerate.
SAMPLES = {
    "minic": (
        "int main(void) { int a = 2, b = 1; a = a + b;"
        " if (a) { b = a - b; } return a + b; }\n"
    ),
    "while": "a := 2 ;\nb := 1 ;\na := a + b ;\nif (a > b) then b := a - b else b := a\n",
}


@pytest.fixture(params=sorted(SAMPLES))
def frontend(request) -> Frontend:
    return get_frontend(request.param)


@pytest.fixture
def sample(frontend) -> str:
    return SAMPLES[frontend.name]


@pytest.fixture
def skeleton(frontend, sample) -> Skeleton:
    return frontend.extract_skeleton(sample, name=f"sample.{frontend.name}")


class TestRegistry:
    def test_builtin_frontends_registered(self):
        names = available_frontends()
        assert "minic" in names and "while" in names

    def test_unknown_frontend_raises(self):
        with pytest.raises(KeyError, match="unknown frontend"):
            get_frontend("cobol")

    def test_instances_pass_through(self):
        instance = get_frontend("while")
        assert get_frontend(instance) is instance

    def test_every_frontend_declares_a_matrix(self):
        for name in available_frontends():
            registered = get_frontend(name)
            assert registered.name == name
            assert registered.default_versions
            assert registered.default_opt_levels
            assert registered.parse_error_types


class TestSkeletons:
    def test_extraction_shape(self, frontend, skeleton):
        assert skeleton.num_holes > 0
        assert len(skeleton.original_vector) == skeleton.num_holes
        assert skeleton.metadata["language"] == frontend.name
        assert skeleton.supports_binding

    def test_parse_errors_are_declared_types(self, frontend):
        with pytest.raises(frontend.parse_error_types):
            frontend.extract_skeleton("int main( { $$$", name="broken")

    def test_realize_roundtrips_through_reextraction(self, frontend, skeleton):
        # Rendering any canonical vector and re-extracting must yield a
        # skeleton whose original vector is exactly that filling.
        for index, vector in enumerate(SkeletonEnumerator(skeleton).vectors(limit=5)):
            rendered = skeleton.realize(vector)
            again = frontend.extract_skeleton(rendered, name=f"roundtrip#{index}")
            assert again.num_holes == skeleton.num_holes
            assert tuple(again.original_vector) == tuple(vector)

    def test_realize_is_stable(self, skeleton):
        vector = skeleton.original_vector
        assert skeleton.realize(vector) == skeleton.realize(vector)

    def test_bind_matches_render(self, frontend, skeleton):
        # The parse-once fast path (interpret the bound AST) must observe
        # exactly what the render+reparse path observes.
        for index, vector in enumerate(SkeletonEnumerator(skeleton).vectors(limit=5)):
            variant = BoundVariant(skeleton, index, vector)
            via_ast = frontend.run_reference_variant(variant)
            via_text = frontend.run_reference_source(skeleton.realize(vector))
            assert via_ast.status is via_text.status
            assert via_ast.observable() == via_text.observable()


class TestReferenceInterpreter:
    def test_deterministic(self, frontend, sample):
        first = frontend.run_reference_source(sample)
        second = frontend.run_reference_source(sample)
        assert isinstance(first, ExecutionResult)
        assert first.status is second.status
        assert first.observable() == second.observable()

    def test_sample_is_well_defined(self, frontend, sample):
        assert frontend.run_reference_source(sample).ok

    def test_try_run_returns_none_on_rejection(self, frontend):
        assert frontend.try_run_reference_source("int main( { $$$") is None

    def test_batch_asks_once_per_skeleton_run_and_keeps_order(
        self, frontend, sample, skeleton
    ):
        # Each run of consecutive same-skeleton variants asks the runner
        # hook once; a skeleton without a runner runs variant by variant.
        # Either way the batch observes what per-variant interpretation
        # observes, in input order.
        other = frontend.extract_skeleton(sample, name="other")
        asked = []

        class Hooked(type(frontend)):
            def runner_for_skeleton(self, candidate):
                asked.append(candidate)
                if candidate is other:
                    return None
                return super().runner_for_skeleton(candidate)

        def variants(of, count):
            vectors = SkeletonEnumerator(of).vectors(limit=count)
            return [BoundVariant(of, index, vector) for index, vector in enumerate(vectors)]

        own, others = variants(skeleton, 3), variants(other, 2)
        batch = own[:2] + others + own[2:]
        results = Hooked().run_reference_batch(batch)
        expected = [frontend.run_reference_variant(variant) for variant in batch]
        assert [(r.status, r.observable()) for r in results] == [
            (e.status, e.observable()) for e in expected
        ]
        assert [id(candidate) for candidate in asked] == [
            id(skeleton),
            id(other),
            id(skeleton),
        ]


class TestExecutorPair:
    def test_executor_surface(self, frontend, sample):
        version = frontend.default_versions[0]
        executor = frontend.executor(version, frontend.default_opt_levels[-1])
        assert hasattr(executor, "vm_max_steps")
        outcome = executor.compile_source(sample, name="surface")
        assert outcome.version == version
        if outcome.success:
            result = executor.run(outcome)
            assert isinstance(result, ExecutionResult)

    def test_reference_executor_agrees_with_interpreter(self, frontend, sample):
        # The fault-free reference member of the pair must reproduce the
        # reference interpreter's observable behaviour on a UB-free seed.
        executor = frontend.executor(
            frontend.reference_version, frontend.default_opt_levels[-1]
        )
        outcome = executor.compile_source(sample, name="reference")
        assert outcome.success and not outcome.triggered_faults
        compiled = executor.run(outcome)
        interpreted = frontend.run_reference_source(sample)
        assert compiled.observable() == interpreted.observable()


class TestOracle:
    def test_observation_shape(self, frontend, sample):
        for version in frontend.default_versions:
            for level in frontend.default_opt_levels:
                oracle = DifferentialOracle(
                    version=version, opt_level=level, frontend=frontend.name
                )
                observation = oracle.observe(sample, name="shape")
                assert isinstance(observation, Observation)
                assert observation.kind in ObservationKind
                assert observation.compiler == version
                assert observation.source_name == "shape"

    def test_variant_path_matches_source_path(self, frontend, skeleton):
        oracle = DifferentialOracle(
            version=frontend.default_versions[0],
            opt_level=frontend.default_opt_levels[-1],
            frontend=frontend.name,
        )
        for index, vector in enumerate(SkeletonEnumerator(skeleton).vectors(limit=5)):
            variant = BoundVariant(skeleton, index, vector)
            via_variant = oracle.observe_variant(variant, name="variant")
            via_source = oracle.observe(skeleton.realize(vector), name="variant")
            assert via_variant.kind is via_source.kind
            assert via_variant.signature == via_source.signature

    def test_reference_version_is_quiet(self, frontend, sample):
        oracle = DifferentialOracle(
            version=frontend.reference_version,
            opt_level=frontend.default_opt_levels[-1],
            frontend=frontend.name,
        )
        assert not oracle.observe(sample, name="quiet").is_bug


class TestReduction:
    def test_unsatisfied_predicate_keeps_input(self, frontend, sample):
        assert frontend.reduce(sample, lambda candidate: False) == sample

    def test_reduction_shrinks_and_stays_parsable(self, frontend, sample):
        reduced = frontend.reduce(sample, lambda candidate: True)
        assert len(reduced) <= len(sample)
        assert frontend.try_run_reference_source(reduced) is not None


class TestStoreRoundTrip:
    """The persistent campaign store must be exact for every frontend."""

    def campaign_corpus(self, frontend):
        return dict(list(frontend.build_corpus(files=8, seed=7).items())[:3])

    def bug_fingerprints(self, result) -> list[tuple]:
        return [
            (
                report.id,
                report.dedup_key,
                report.kind.value,
                report.compiler,
                str(report.opt_level),
                report.signature,
                report.test_program,
                report.duplicate_count,
            )
            for report in result.bugs.reports
        ]

    def test_journal_reload_reproduces_observations_and_bugs(self, frontend, tmp_path):
        state = tmp_path / "state"
        config = CampaignConfig(
            frontend=frontend.name, max_variants_per_file=5, state_dir=str(state)
        )
        live = Campaign(config).run_sources(self.campaign_corpus(frontend))

        rebuilt = CampaignResult()
        for group in load_unit_records(state / "journal.jsonl").values():
            rebuilt = rebuilt.merge(merge_unit_records(group))
        assert rebuilt.observations == live.observations
        assert rebuilt.variants_tested == live.variants_tested
        assert rebuilt.files_processed == live.files_processed
        assert self.bug_fingerprints(rebuilt) == self.bug_fingerprints(live)

    def test_resume_replay_matches_live_run(self, frontend, tmp_path):
        corpus = self.campaign_corpus(frontend)
        config = CampaignConfig(
            frontend=frontend.name, max_variants_per_file=5, state_dir=str(tmp_path / "state")
        )
        live = Campaign(config).run_sources(corpus)
        replayed = Campaign(config).run_sources(corpus, resume=True)
        assert replayed.summary() == live.summary()
        assert self.bug_fingerprints(replayed) == self.bug_fingerprints(live)

    def test_manifest_round_trips_registry_name(self, frontend, tmp_path):
        # The manifest stores the frontend as its registry *name*; resolving
        # it back must yield the same plug-in, so a journal written today can
        # be resumed by a process that registered the frontend afresh.
        state = tmp_path / "state"
        config = CampaignConfig(
            frontend=frontend.name, max_variants_per_file=3, state_dir=str(state)
        )
        Campaign(config).run_sources(self.campaign_corpus(frontend))
        manifest = CampaignStore(state).read_manifest()
        stored_name = manifest["fingerprint"]["frontend"]
        assert stored_name == frontend.name
        assert get_frontend(stored_name) is frontend


class TestCorpusAndCampaign:
    def test_build_corpus(self, frontend):
        corpus = frontend.build_corpus(files=8, seed=7)
        assert corpus and all(isinstance(source, str) for source in corpus.values())

    def test_campaign_smoke(self, frontend):
        corpus = dict(list(frontend.build_corpus(files=8, seed=7).items())[:3])
        config = CampaignConfig(frontend=frontend.name, max_variants_per_file=5)
        result = Campaign(config).run_sources(corpus)
        assert result.variants_tested > 0
        assert result.files_processed + result.files_skipped_budget + result.files_skipped_error == len(corpus)
