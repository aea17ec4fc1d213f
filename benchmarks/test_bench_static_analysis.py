"""Overhead of the static-analysis layer on the campaign hot path.

Runs the same default-corpus workload three times -- baseline, with the
between-pass IR verifier at ``verify_ir="always"``, and with the sanitizer
gate -- and records overhead percentages plus the sanitizer's tainted
filter rate in ``BENCH_campaign.json`` under the ``"static_analysis"`` key.

The headline assertion is that between-pass verification costs less than
10% of campaign time: the verifier only runs after passes that changed the
module (plus simplify-cfg for the unreachable-block rule), and the pipeline
cache replays verified outcomes without re-verifying.  The sanitizer makes
one AST walk per gated variant, so it stays in the same band.

Campaigns here are serial, in-process and write no files, so their cost is
the CPU time of this process: it is timed on the process CPU clock, which
leaves out the time other processes (or, on a virtual machine, other
guests) hold the CPU.  Load on a shared machine still slows the CPU
itself, by tens of percent for seconds at a time, so the repeats run
round-robin (baseline, verified, sanitized, baseline, ...), each from a
collected heap, and each configuration is timed as its mean over all
rounds: a stretch of load slows neighbouring runs of every configuration
alike, and cancels out of the ratio of the means instead of landing on
one configuration's block of repeats.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

from repro.experiments.table1 import build_corpus
from repro.testing.harness import Campaign, CampaignConfig

REPO_ROOT = Path(__file__).resolve().parent.parent

WORKLOAD = dict(files=10, seed=2017, max_variants_per_file=20)


#: Round-robin rounds; every round times each configuration once.
REPEATS = 5

#: The timed configurations, in round-robin order.
CONFIGURATIONS = {
    "baseline": {},
    "verified": {"verify_ir": "always"},
    "sanitized": {"sanitize": True},
}


def _run_once(corpus, **overrides):
    config = CampaignConfig(
        max_variants_per_file=WORKLOAD["max_variants_per_file"], **overrides
    )
    # Collect the previous run's garbage first, so no configuration pays
    # for another's.
    gc.collect()
    started = time.process_time()
    result = Campaign(config).run_sources(corpus)
    return result, time.process_time() - started


def _run_round_robin(corpus):
    """Each configuration's last result and mean CPU time per run over
    ``REPEATS`` rounds, every round running each configuration once."""
    results, total = {}, dict.fromkeys(CONFIGURATIONS, 0.0)
    for _ in range(REPEATS):
        for name, overrides in CONFIGURATIONS.items():
            results[name], elapsed = _run_once(corpus, **overrides)
            total[name] += elapsed
    return {name: (results[name], total[name] / REPEATS) for name in CONFIGURATIONS}


def _overhead_pct(base_seconds, seconds):
    return round(100.0 * (seconds - base_seconds) / base_seconds, 2)


def test_static_analysis_overhead(run_once, benchmark):
    corpus = build_corpus(files=WORKLOAD["files"], seed=WORKLOAD["seed"])

    def experiment():
        # Warm one throwaway run so interpreter/pipeline code paths are hot
        # before the baseline is timed (first-run costs would otherwise be
        # charged entirely to the baseline, deflating every overhead ratio).
        _run_once(dict(list(corpus.items())[:2]))
        return _run_round_robin(corpus)

    timings = run_once(benchmark, experiment)
    baseline_result, baseline_seconds = timings["baseline"]
    verified_result, verified_seconds = timings["verified"]
    sanitized_result, sanitized_seconds = timings["sanitized"]

    # Policy off/always must agree on everything except verification
    # verdicts: same variants, same files.
    assert verified_result.variants_tested == baseline_result.variants_tested
    assert sanitized_result.variants_tested == baseline_result.variants_tested

    stats = sanitized_result.cache_stats
    tainted = stats.get("sanitizer_tainted", 0)
    clean = stats.get("sanitizer_clean", 0)
    gated = tainted + clean
    assert gated > 0, "sanitizer gate never ran on the benchmark workload"

    verify_overhead = _overhead_pct(baseline_seconds, verified_seconds)
    sanitize_overhead = _overhead_pct(baseline_seconds, sanitized_seconds)

    payload = {
        "static_analysis": {
            "workload": dict(WORKLOAD),
            "clock": "process CPU time",
            "baseline_seconds": round(baseline_seconds, 3),
            "verify_ir": {
                "policy": "always",
                "seconds": round(verified_seconds, 3),
                "overhead_pct": verify_overhead,
                "ill_formed_observations": verified_result.observations.get(
                    "ill-formed ir", 0
                ),
            },
            "sanitizer": {
                "seconds": round(sanitized_seconds, 3),
                "overhead_pct": sanitize_overhead,
                "variants_gated": gated,
                "variants_tainted": tainted,
                "tainted_rate": round(tainted / gated, 4),
            },
        }
    }
    bench_path = REPO_ROOT / "BENCH_campaign.json"
    try:
        existing = json.loads(bench_path.read_text())
    except (OSError, json.JSONDecodeError):
        existing = {}
    existing.update(payload)
    bench_path.write_text(json.dumps(existing, indent=2) + "\n")

    # The design target: between-pass verification and the sanitizer gate
    # each cost under 10% of campaign time.  The CPU clock and round-robin
    # means keep the comparison out of noise territory; a regression that
    # re-verifies unchanged modules or walks a variant more than once
    # measures in integer multiples of the baseline, far past this line.
    assert verify_overhead < 10.0, f"IR verification overhead {verify_overhead}%"
    assert sanitize_overhead < 10.0, f"sanitizer overhead {sanitize_overhead}%"
