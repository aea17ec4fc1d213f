"""Integration tests for the static-analysis layer.

Covers the ``verify_ir`` policy end to end (oracle classification, dedup,
predicate reproduction, pipeline-cache replay, campaign bug filing) and the
sanitizer gate in front of the differential oracle.
"""

import pytest

from repro.compiler.driver import PipelineCache
from repro.compiler.pipeline import OptimizationLevel
from repro.core.holes import BoundVariant
from repro.core.spe import EnumerationBudget, SkeletonEnumerator
from repro.frontends import get_frontend
from repro.testing.bugs import BugKind
from repro.testing.harness import Campaign, CampaignConfig
from repro.testing.oracle import DifferentialOracle, ObservationKind
from repro.triage.predicate import BugPredicate, observation_dedup_key

# A dead branch whose side effect survives const-prop/DCE: simplify-cfg at
# -O2/-O3 removes the unreachable block, which is exactly where scc-trunk's
# seeded cfg-retain-garbage-block fault corrupts the CFG.
TRIGGER = (
    "int main(void) {\n"
    "  int n = 0;\n"
    '  if (n) { printf("%d\\n", 1); }\n'
    '  printf("%d\\n", n);\n'
    "  return 0;\n"
    "}\n"
)

# Same shape, different body: must dedup to the same ill-formed-ir bug.
TRIGGER_B = (
    "int main(void) {\n"
    "  int a = 0;\n"
    '  if (a) { printf("%d\\n", 42); }\n'
    "  return 0;\n"
    "}\n"
)

# Use-before-init on one path: statically tainted, dynamically UNDEFINED.
UB_SEED = (
    "int main(void) {\n"
    "  int x;\n"
    "  int y = 3;\n"
    "  if (y > 10) { x = 1; }\n"
    '  printf("%d\\n", x + y);\n'
    "  return 0;\n"
    "}\n"
)


def ill_formed_oracle(policy="bugs"):
    return DifferentialOracle(version="scc-trunk", opt_level=3, verify_ir=policy)


class TestOraclePolicy:
    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="verify_ir"):
            DifferentialOracle(version="scc-trunk", opt_level=2, verify_ir="sometimes")

    def test_off_policy_is_blind_to_the_fault(self):
        observation = ill_formed_oracle("off").observe(TRIGGER)
        assert observation.kind is ObservationKind.OK

    def test_bugs_policy_flags_ill_formed_ir(self):
        observation = ill_formed_oracle("bugs").observe(TRIGGER)
        assert observation.kind is ObservationKind.ILL_FORMED_IR
        assert observation.is_bug
        assert "simplify-cfg" in observation.signature
        assert observation.signature.startswith("ill-formed IR after ")

    def test_policy_wires_the_executor_flags(self):
        # "bugs" verifies only the compiler under test; "always" both.
        bugs = ill_formed_oracle("bugs")
        assert bugs._compiler.verify_ir and not bugs._reference.verify_ir
        always = ill_formed_oracle("always")
        assert always._compiler.verify_ir and always._reference.verify_ir
        off = ill_formed_oracle("off")
        assert not off._compiler.verify_ir and not off._reference.verify_ir

    def test_always_policy_reference_stays_clean(self):
        # The fault-free reference pipeline passes its own verification, so
        # "always" classifies the trigger exactly like "bugs" does.
        observation = ill_formed_oracle("always").observe(TRIGGER)
        assert observation.kind is ObservationKind.ILL_FORMED_IR


class TestDedupAndPredicate:
    def test_distinct_triggers_share_one_dedup_key(self):
        oracle = ill_formed_oracle()
        key_a = observation_dedup_key(oracle.observe(TRIGGER, name="a.c"))
        key_b = observation_dedup_key(oracle.observe(TRIGGER_B, name="b.c"))
        assert key_a is not None
        assert key_a == key_b

    def test_predicate_reproduces_ill_formed_bug(self):
        observation = ill_formed_oracle().observe(TRIGGER, name="t.c")
        predicate = BugPredicate.from_observation(observation, frontend="minic")
        # The symptom is invisible without verification, so the predicate
        # must carry the policy along.
        assert predicate.verify_ir == "bugs"
        assert predicate(TRIGGER)
        assert predicate(TRIGGER_B)  # same dedup key, same bug
        assert not predicate("int main(void) { return 0; }")

    def test_other_bug_kinds_keep_verification_off(self):
        oracle = DifferentialOracle(version="scc-trunk", opt_level=2)
        crash = oracle.observe(
            "int a, b = 1; int main() { if (a) a = a - a; return b; }"
        )
        assert crash.kind is ObservationKind.CRASH
        predicate = BugPredicate.from_observation(crash, frontend="minic")
        assert predicate.verify_ir == "off"


class TestPipelineCacheReplay:
    def test_cache_hit_replays_verdict_and_fault(self):
        frontend = get_frontend("minic")
        skeleton = frontend.extract_skeleton(TRIGGER, name="t.c")
        variant = BoundVariant(skeleton, 0, skeleton.original_vector)
        oracle = ill_formed_oracle("bugs")
        cache = PipelineCache()
        oracle.enable_pipeline_cache(cache)

        first = oracle.observe_variant(variant, name="t.c")
        assert first.kind is ObservationKind.ILL_FORMED_IR
        hits_before = cache.hits
        second = oracle.observe_variant(variant, name="t.c")
        assert cache.hits > hits_before
        assert second.kind is first.kind
        assert second.signature == first.signature


class TestCampaignPolicy:
    def run(self, sources, **overrides):
        defaults = dict(
            versions=["scc-trunk"],
            opt_levels=[OptimizationLevel.O3],
            budget=EnumerationBudget(max_variants=10_000),
            max_variants_per_file=8,
        )
        defaults.update(overrides)
        return Campaign(CampaignConfig(**defaults)).run_sources(sources)

    def test_config_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="verify_ir"):
            CampaignConfig(verify_ir="maybe")

    def test_bugs_policy_files_ill_formed_bug(self):
        result = self.run({"t.c": TRIGGER}, verify_ir="bugs")
        ill = [r for r in result.bugs.reports if r.kind is BugKind.ILL_FORMED_IR]
        assert len(ill) == 1
        assert "simplify-cfg" in ill[0].signature
        assert result.observations.get("ill-formed ir", 0) >= 1

    def test_off_policy_files_nothing(self):
        result = self.run({"t.c": TRIGGER}, verify_ir="off")
        assert all(r.kind is not BugKind.ILL_FORMED_IR for r in result.bugs.reports)
        assert "ill-formed ir" not in result.observations


class TestSanitizerGate:
    def run(self, **overrides):
        defaults = dict(
            versions=["scc-trunk"],
            opt_levels=[OptimizationLevel.O2],
            budget=EnumerationBudget(max_variants=10_000),
            max_variants_per_file=8,
        )
        defaults.update(overrides)
        return Campaign(CampaignConfig(**defaults)).run_sources({"ub.c": UB_SEED})

    def test_gate_removes_tainted_variants_from_oracle_input(self):
        gated = self.run(sanitize=True)
        open_run = self.run(sanitize=False)
        assert gated.observations.get("sanitized", 0) > 0
        assert "sanitized" not in open_run.observations
        # Filtering happens before the oracle, not after: the variants still
        # count as tested, they just never reach the differential matrix.
        assert gated.variants_tested == open_run.variants_tested

    def test_gate_telemetry_counters(self):
        result = self.run(sanitize=True)
        stats = result.cache_stats
        decisions = stats.get("sanitizer_clean", 0) + stats.get("sanitizer_tainted", 0)
        # The gate decides once for every order-clean variant tested.
        skeleton = get_frontend("minic").extract_skeleton(UB_SEED, name="ub.c")
        variants = SkeletonEnumerator(skeleton).indexed_programs(stop=8)
        gated = sum(1 for variant in variants if variant.order_clean)
        assert gated > 0
        assert decisions == gated
        assert stats.get("sanitizer_tainted", 0) == result.observations.get("sanitized", 0)

    def test_gate_off_by_default_keeps_counters_silent(self):
        result = self.run()
        assert not any(key.startswith("sanitizer_") for key in result.cache_stats)
