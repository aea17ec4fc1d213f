"""The ddmin reduction core: correctness, caching, parallel batches, policies."""

import pytest

from repro.compiler.pipeline import OptimizationLevel
from repro.frontends import get_frontend
from repro.frontends.base import Frontend
from repro.testing.bugs import BugKind
from repro.testing.executor import ProcessPoolExecutor, SerialExecutor
from repro.testing.harness import Campaign, CampaignConfig
from repro.testing.oracle import DifferentialOracle
from repro.triage import (
    BugPredicate,
    PredicateCache,
    ddmin_reduce,
    normalize_reduce_policy,
    observation_dedup_key,
)

MINIC_CRASH_SEED = """
int a;
int g1 = 3;
int g2 = 4;
int main() {
    if (a) a = a - a;
    int n0 = 0;
    n0 = n0 + 1;
    int n1 = 1;
    n1 = n1 + 1;
    int n2 = 2;
    n2 = n2 + 2;
    return 0;
}
"""

WHILE_CRASH_SEED = (
    "v0 := 0 ;\nv1 := 1 ;\nv2 := 2 ;\nv3 := 3 ;\nv4 := 4 ;\n"
    "a := 7 ;\nc := a - a\n"
)


def crash_predicate(source: str, frontend: str, version: str, opt_level: int) -> BugPredicate:
    observation = DifferentialOracle(
        version=version, opt_level=opt_level, frontend=frontend
    ).observe(source)
    assert observation.is_bug, observation.detail
    return BugPredicate.from_observation(observation, frontend)


class TestDdminReduce:
    def test_reduces_minic_crash_preserving_signature(self):
        predicate = crash_predicate(MINIC_CRASH_SEED, "minic", "scc-trunk", 2)
        outcome = ddmin_reduce("minic", MINIC_CRASH_SEED, predicate)
        assert outcome.reduced
        assert predicate(outcome.source)
        assert "a - a" in outcome.source
        assert "n0" not in outcome.source and "g1" not in outcome.source

    def test_reduces_while_crash(self):
        predicate = crash_predicate(WHILE_CRASH_SEED, "while", "wc-trunk", 2)
        outcome = ddmin_reduce("while", WHILE_CRASH_SEED, predicate)
        assert outcome.reduced
        assert predicate(outcome.source)
        assert "v0" not in outcome.source

    def test_failing_predicate_returns_input(self):
        outcome = ddmin_reduce("minic", MINIC_CRASH_SEED, lambda source: False)
        assert outcome.source == MINIC_CRASH_SEED
        assert not outcome.reduced
        assert outcome.stats.predicate_evaluations == 1

    def test_never_larger_and_fewer_evals_than_greedy(self):
        """The tentpole's headline: ddmin beats the greedy restart scan."""
        for frontend_name, seed, version, opt in (
            ("minic", MINIC_CRASH_SEED, "scc-trunk", 2),
            ("while", WHILE_CRASH_SEED, "wc-trunk", 2),
        ):
            frontend = get_frontend(frontend_name)
            predicate = crash_predicate(seed, frontend_name, version, opt)
            outcome = ddmin_reduce(frontend, seed, predicate)
            greedy_evals = {"count": 0}

            def counting(candidate: str) -> bool:
                greedy_evals["count"] += 1
                return predicate(candidate)

            greedy = frontend.reduce(seed, counting)
            assert len(outcome.source) <= len(greedy)
            assert outcome.stats.predicate_evaluations < greedy_evals["count"], frontend_name

    def test_predicate_cache_prevents_reevaluation(self):
        calls: list[str] = []
        base = crash_predicate(WHILE_CRASH_SEED, "while", "wc-trunk", 2)

        class Counting:
            cache_tag = ("test", "while-crash")

            def __call__(self, source: str) -> bool:
                calls.append(source)
                return base(source)

        cache = PredicateCache()
        outcome = ddmin_reduce("while", WHILE_CRASH_SEED, Counting(), cache=cache)
        assert outcome.reduced
        # Every evaluated source was evaluated exactly once.
        assert len(calls) == len(set(calls))
        assert outcome.stats.predicate_evaluations == len(calls)
        # A second reduction of the same program is answered from the cache.
        rerun = ddmin_reduce("while", WHILE_CRASH_SEED, Counting(), cache=cache)
        assert rerun.source == outcome.source
        assert len(calls) == outcome.stats.predicate_evaluations

    def test_parallel_batches_reduce_to_same_program(self):
        predicate = crash_predicate(WHILE_CRASH_SEED, "while", "wc-trunk", 2)
        serial = ddmin_reduce("while", WHILE_CRASH_SEED, predicate)

        class RecordingExecutor:
            """Parallel-shaped backend: batches arrive through map()."""

            def __init__(self) -> None:
                self.batches: list[int] = []

            def map(self, fn, items):
                items = list(items)
                self.batches.append(len(items))
                return [fn(item) for item in items]

        recording = RecordingExecutor()
        parallel = ddmin_reduce(
            "while", WHILE_CRASH_SEED, predicate, executor=recording, cache=PredicateCache()
        )
        assert parallel.source == serial.source
        assert recording.batches, "candidate batches must go through the executor"
        assert any(size > 1 for size in recording.batches)

    def test_process_pool_executor_integration(self):
        # BugPredicate pickles into real worker processes.
        predicate = crash_predicate(WHILE_CRASH_SEED, "while", "wc-trunk", 2)
        outcome = ddmin_reduce(
            "while", WHILE_CRASH_SEED, predicate, executor=ProcessPoolExecutor(2)
        )
        serial = ddmin_reduce("while", WHILE_CRASH_SEED, predicate, cache=PredicateCache())
        assert outcome.source == serial.source

    def test_frontend_without_hooks_falls_back_to_reduce(self):
        class Hookless(Frontend):
            name = "hookless"

            def extract_skeleton(self, source, name="<p>"):  # pragma: no cover
                raise NotImplementedError

            def run_reference_source(self, source, max_steps=200_000):  # pragma: no cover
                raise NotImplementedError

            def run_reference_variant(self, variant, max_steps=200_000):  # pragma: no cover
                raise NotImplementedError

            def executor(self, version, opt_level, machine_bits=64):  # pragma: no cover
                raise NotImplementedError

            def reduce(self, source, predicate):
                candidate = source.replace("noise\n", "")
                return candidate if predicate(candidate) else source

            def build_corpus(self, files=25, seed=2017):  # pragma: no cover
                return {}

        source = "keep\nnoise\n"
        outcome = ddmin_reduce(Hookless(), source, lambda s: "keep" in s)
        assert outcome.source == "keep\n"


class TestReducePolicy:
    def test_normalization(self):
        assert normalize_reduce_policy(True) == "crash"
        assert normalize_reduce_policy(False) == "off"
        assert normalize_reduce_policy(None) == "off"
        assert normalize_reduce_policy("all") == "all"
        with pytest.raises(ValueError):
            normalize_reduce_policy("everything")

    def test_config_normalizes_booleans(self):
        assert CampaignConfig(reduce_bugs=True).reduce_bugs == "crash"
        assert CampaignConfig(reduce_bugs=False).reduce_bugs == "off"
        assert CampaignConfig(reduce_bugs="all").reduce_bugs == "all"


def rerun_key(report, frontend: str) -> tuple:
    """Re-observe a report's (reduced) program; the dedup key it would file under."""
    observation = DifferentialOracle(
        version=report.compiler, opt_level=report.opt_level, frontend=frontend
    ).observe(report.test_program, name=report.source_name)
    return observation_dedup_key(observation)


class TestCampaignReducesAllKinds:
    """The reduce_bugs="all" policy: wrong-code and performance triggers are
    minimised too, and the reduced program still reproduces the same bug_id
    (the satellite for the historical crash-only gate)."""

    def run_pair(self, corpus, **overrides):
        base = dict(frontend="while", max_variants_per_file=60)
        base.update(overrides)
        reduced = Campaign(CampaignConfig(**base, reduce_bugs="all")).run_sources(corpus)
        plain = Campaign(CampaignConfig(**base, reduce_bugs="off")).run_sources(corpus)
        return reduced, plain

    def assert_reduced_and_stable(self, reduced, plain, kind):
        reports = [r for r in reduced.bugs.reports if r.kind is kind]
        baseline = {r.id: r for r in plain.bugs.reports if r.kind is kind}
        assert reports
        assert {r.id for r in reports} == set(baseline)
        for report in reports:
            assert len(report.test_program) <= len(baseline[report.id].test_program)
            assert rerun_key(report, "while") == report.dedup_key
            assert report.id == baseline[report.id].id

    def test_wrong_code_reports_carry_reduced_reproducing_programs(self):
        corpus = {
            "guard.while": "a := 4 ;\nb := 1 ;\nif (a >= b) then c := a - b else c := b\n"
        }
        reduced, plain = self.run_pair(
            corpus, versions=["wc-2.0"], opt_levels=[OptimizationLevel.O1],
            max_variants_per_file=80,
        )
        self.assert_reduced_and_stable(reduced, plain, BugKind.WRONG_CODE)

    def test_performance_reports_carry_reduced_reproducing_programs(self):
        corpus = {"copy.while": "a := 5 ;\nb := a ;\nc := b ;\na := c\n"}
        reduced, plain = self.run_pair(
            corpus, versions=["wc-trunk"], opt_levels=[OptimizationLevel.O2],
        )
        self.assert_reduced_and_stable(reduced, plain, BugKind.PERFORMANCE)

    def test_crash_policy_leaves_other_kinds_untouched(self):
        corpus = {"copy.while": "a := 5 ;\nb := a ;\nc := b ;\na := c\n"}
        base = dict(
            frontend="while", max_variants_per_file=60,
            versions=["wc-trunk"], opt_levels=[OptimizationLevel.O2],
        )
        crash_only = Campaign(CampaignConfig(**base, reduce_bugs="crash")).run_sources(corpus)
        plain = Campaign(CampaignConfig(**base, reduce_bugs="off")).run_sources(corpus)
        perf = {r.id: r for r in crash_only.bugs.reports if r.kind is BugKind.PERFORMANCE}
        baseline = {r.id: r for r in plain.bugs.reports if r.kind is BugKind.PERFORMANCE}
        assert perf and set(perf) == set(baseline)
        for bug_id, report in perf.items():
            assert report.test_program == baseline[bug_id].test_program

    def test_minic_crash_reduction_still_works_via_policy(self):
        from repro.core.spe import EnumerationBudget

        seed = (
            "int a; int b = 1; int c = 2;\n"
            "int main() { int t = 3; t = t + c; b = b + t; if (a) a = a - a; return b; }"
        )
        corpus = {"crash.c": seed}
        config = CampaignConfig(
            reduce_bugs="crash", max_variants_per_file=8,
            budget=EnumerationBudget(max_variants=None),
            versions=["scc-trunk"], opt_levels=[OptimizationLevel.O2],
        )
        result = Campaign(config).run_sources(corpus)
        crashes = [r for r in result.bugs.reports if r.kind is BugKind.CRASH]
        assert crashes
        for report in crashes:
            assert rerun_key(report, "minic") == report.dedup_key
            assert len(report.test_program) < len(seed)


class TestAdoptedRepresentativeStaysReduced:
    def test_adopting_duplicate_is_retriaged(self):
        # Regression: a duplicate observation that sorts earlier under
        # _representative_order is adopted as the bug's representative,
        # replacing the reduced test_program with its own unreduced one --
        # the harness must re-triage it so the filed report always carries
        # a reduced trigger, whatever order observations arrive in.
        from repro.testing.harness import CampaignResult

        config = CampaignConfig(
            frontend="while", reduce_bugs="all",
            versions=["wc-trunk"], opt_levels=[OptimizationLevel.O2],
        )
        campaign = Campaign(config)
        oracle = DifferentialOracle(version="wc-trunk", opt_level=2, frontend="while")
        result = CampaignResult()

        first_source = WHILE_CRASH_SEED
        campaign._file_bug(oracle.observe(first_source, name="b.while"), oracle, result)
        report = result.bugs.reports[0]
        assert len(report.test_program) < len(first_source)

        # Same crash (same signature base), earlier-sorting source name,
        # different (unreduced) trigger program: adoption swaps metadata.
        second_source = "u0 := 0 ;\nu1 := 1 ;\nu2 := 2 ;\nz := 9 ;\nd := z - z\n"
        campaign._file_bug(oracle.observe(second_source, name="a.while"), oracle, result)
        assert len(result.bugs.reports) == 1
        assert report.duplicate_count == 1
        assert report.source_name == "a.while"  # the duplicate was adopted
        assert len(report.test_program) < len(second_source)  # and re-reduced
        assert rerun_key(report, "while") == report.dedup_key


class TestSerialExecutorMarker:
    def test_serial_executor_path_short_circuits(self):
        # Serial mode evaluates lazily: once a passing candidate is found in
        # a round, later candidates of that round are not evaluated.  We pin
        # it indirectly: serial evals <= batch-mode evals on the same input.
        predicate = crash_predicate(WHILE_CRASH_SEED, "while", "wc-trunk", 2)
        serial = ddmin_reduce(
            "while", WHILE_CRASH_SEED, predicate,
            executor=SerialExecutor(), cache=PredicateCache(),
        )

        class Batching:
            def map(self, fn, items):
                return [fn(item) for item in items]

        batched = ddmin_reduce(
            "while", WHILE_CRASH_SEED, predicate,
            executor=Batching(), cache=PredicateCache(),
        )
        assert serial.source == batched.source
        assert serial.stats.predicate_evaluations <= batched.stats.predicate_evaluations
