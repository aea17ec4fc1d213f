"""Campaign supervision: deadlines, retry, quarantine, chaos injection.

The fault-tolerance contract of the supervisor (``repro.testing.supervisor``),
through which every campaign runs:

* **no-fault byte-identity** -- with no faults injected, deadlines and the
  quarantine policy change nothing: a supervised run journals unit records
  byte-identical to a default-config run and produces the same report;
* **fail-fast default** -- a default-config campaign aborts on its first
  failing unit (exception or worker crash) with a ``UnitExecutionError``
  naming it;
* **degrade-and-continue** -- an injected crash (worker SIGKILL), hang
  (sleep past ``unit_timeout``) or deterministic exception costs exactly the
  poison unit: it is quarantined after ``max_retries`` and every batch-mate
  still produces its (byte-identical) result;
* **no resume livelock** -- a journal containing quarantine records resumes
  as a pure replay: quarantined units are skipped, not re-crashed.

Crashes can only be survived by the pooled backend (an in-process crash
kills the campaign process itself), so crash tests pin the process pool;
exception and soft-hang recovery are additionally exercised in-process.
"""

import json

import pytest

from repro.frontends import get_frontend
from repro.store import load_quarantine_records, read_journal, unit_key_for
from repro.testing.executor import ProcessPoolExecutor, SerialExecutor
from repro.testing.harness import (
    Campaign,
    CampaignConfig,
    CampaignShard,
    ChaosSpec,
    UnitExecutionError,
)
from repro.testing.supervisor import CampaignSupervisor, _tier_config


def corpus_for(language: str) -> dict[str, str]:
    return dict(get_frontend(language).build_corpus(files=4, seed=11))


def config_for(language: str, **overrides) -> CampaignConfig:
    defaults = dict(frontend=language, max_variants_per_file=8, retry_backoff=0.01)
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def unit_lines(state_dir) -> list[str]:
    """The journal's unit records as raw lines (the byte-identity currency).

    Deduplicated: supervision may journal a unit twice (a batch-mate re-run
    after a pool kill writes an identical second record; replay dedups), so
    equality is over the distinct record set.
    """
    lines = set()
    with open(state_dir / "journal.jsonl", encoding="utf-8") as handle:
        for line in handle:
            if '"type":"unit"' in line:
                lines.add(line.rstrip("\n"))
    return sorted(lines)


def unit_count(language: str) -> int:
    """How many units the planner carves this corpus into (build_corpus
    includes fixed figure files on top of the generated ones, so the count
    is corpus-derived, not ``files * 1``)."""
    plan = Campaign(config_for(language)).plan(corpus_for(language), shard_count=1)
    return sum(len(shard.units) for shard in plan.shards)


def fingerprint(result) -> tuple:
    return (
        result.summary(),
        [(r.id, r.dedup_key, r.signature) for r in result.bugs.reports],
        sorted((q.key, q.kind) for q in result.quarantined),
    )


# -- no-fault equivalence ---------------------------------------------------


@pytest.mark.parametrize("language", ["minic", "while"])
def test_supervised_no_fault_serial_byte_identical(tmp_path, language):
    """In-process, a unit deadline and the quarantine policy leave every
    unit record and the report unchanged when nothing fails."""
    corpus = corpus_for(language)
    plain = str(tmp_path / "plain")
    supervised = str(tmp_path / "supervised")
    baseline = Campaign(config_for(language, state_dir=plain)).run_sources(corpus)
    result = Campaign(
        config_for(
            language, state_dir=supervised, on_fault="quarantine", unit_timeout=60
        )
    ).run_sources(corpus)
    assert result.quarantined == []
    assert fingerprint(result)[:2] == fingerprint(baseline)[:2]
    assert unit_lines(tmp_path / "supervised") == unit_lines(tmp_path / "plain")


def test_supervised_no_fault_pooled_byte_identical(tmp_path):
    """On a pool too -- with the parent watchdog armed by the deadline --
    a fault-free supervised run journals the default run's unit records."""
    corpus = corpus_for("while")
    plain = str(tmp_path / "plain")
    supervised = str(tmp_path / "supervised")
    with ProcessPoolExecutor(jobs=2) as executor:
        Campaign(config_for("while", jobs=2, state_dir=plain)).run_sources(
            corpus, executor=executor
        )
    with ProcessPoolExecutor(jobs=2) as executor:
        result = Campaign(
            config_for(
                "while",
                jobs=2,
                state_dir=supervised,
                on_fault="quarantine",
                unit_timeout=60,
            )
        ).run_sources(corpus, executor=executor)
    assert result.quarantined == []
    assert unit_lines(tmp_path / "supervised") == unit_lines(tmp_path / "plain")


# -- exception faults -------------------------------------------------------


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_injected_exception_quarantined_batchmates_intact(tmp_path, backend):
    corpus = corpus_for("minic")
    clean_state = tmp_path / "clean"
    chaos_state = tmp_path / "chaos"
    Campaign(config_for("minic", state_dir=str(clean_state))).run_sources(corpus)

    jobs = 2 if backend == "process" else 1
    config = config_for(
        "minic",
        jobs=jobs,
        state_dir=str(chaos_state),
        on_fault="quarantine",
        max_retries=1,
        chaos=ChaosSpec(raise_at=(1,)),
    )
    if backend == "process":
        with ProcessPoolExecutor(jobs=2) as executor:
            result = Campaign(config).run_sources(corpus, executor=executor)
    else:
        result = Campaign(config).run_sources(corpus)

    assert [q.kind for q in result.quarantined] == ["exception"]
    record = result.quarantined[0]
    assert record.attempts == 2, "max_retries=1 means two attempts total"
    assert "ChaosError" in record.detail
    # every non-poisoned unit's journal record is byte-identical to the
    # fault-free run's
    clean = unit_lines(clean_state)
    chaotic = unit_lines(chaos_state)
    assert set(chaotic) <= set(clean)
    missing = [line for line in clean if line not in set(chaotic)]
    assert [json.loads(line)["key"] for line in missing] == [record.key]
    # ...and the journal holds the quarantine decision
    assert list(load_quarantine_records(chaos_state / "journal.jsonl")) == [record.key]


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "process"])
def test_exception_abort_names_poison_unit(tmp_path, jobs):
    """Default-policy (fail-fast) runs abort with the failing unit's context."""
    corpus = corpus_for("minic")
    config = config_for(
        "minic", jobs=jobs, chaos=ChaosSpec(raise_at=(1,)), state_dir=str(tmp_path)
    )
    assert not config.supervised
    with pytest.raises(UnitExecutionError) as excinfo:
        Campaign(config).run_sources(corpus)
    error = excinfo.value
    assert error.unit_name in corpus
    assert error.unit_key
    assert error.kind == "exception"
    assert error.span in str(error)
    assert "ChaosError" in str(error)
    if jobs == 1:
        # Fail-fast: the unit before the poison one is journaled, and nothing
        # after the poison unit ran.  (On a pool, how much of the other
        # shard ran before the abort killed it is a matter of timing.)
        plan = Campaign(config_for("minic")).plan(corpus)
        first = plan.shards[0].units[0]
        assert first.ordinal == 0
        assert [json.loads(line)["key"] for line in unit_lines(tmp_path)] == [
            unit_key_for(first)
        ]


def test_default_policy_worker_crash_names_the_unit():
    """A worker that dies under the default policy aborts the campaign with
    the crashing unit's identity, not a bare ``BrokenProcessPool``."""
    corpus = corpus_for("minic")
    config = config_for("minic", jobs=2, chaos=ChaosSpec(crash_at=(1,)))
    assert not config.supervised
    plan = Campaign(config_for("minic")).plan(corpus)
    poison = next(
        unit for shard in plan.shards for unit in shard.units if unit.ordinal == 1
    )
    with pytest.raises(UnitExecutionError) as excinfo:
        Campaign(config).run_sources(corpus)
    error = excinfo.value
    assert error.kind == "crash"
    assert error.unit_name == poison.name
    assert error.unit_key == unit_key_for(poison)


def test_default_policy_pooled_abort_leaves_the_callers_pool_usable():
    """The abort kills the shard still in flight; a pool the caller owns
    respawns for the next campaign."""
    corpus = corpus_for("minic")
    config = config_for("minic", jobs=2, chaos=ChaosSpec(raise_at=(1,)))
    with ProcessPoolExecutor(jobs=2) as executor:
        with pytest.raises(UnitExecutionError, match="after 1 attempts"):
            Campaign(config).run_sources(corpus, executor=executor)
        clean = Campaign(config_for("minic", jobs=2)).run_sources(
            corpus, executor=executor
        )
    assert clean.variants_tested == unit_count("minic") * 8
    assert clean.quarantined == []


def test_exception_abort_supervised_raises_after_retries():
    corpus = corpus_for("minic")
    config = config_for(
        "minic",
        unit_timeout=60,
        on_fault="abort",
        max_retries=1,
        chaos=ChaosSpec(raise_at=(1,)),
    )
    assert config.supervised
    with pytest.raises(UnitExecutionError, match="after 2 attempts"):
        Campaign(config).run_sources(corpus)


# -- hang faults ------------------------------------------------------------


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_soft_hang_quarantined_via_worker_deadline(tmp_path, backend):
    corpus = corpus_for("while")
    config = config_for(
        "while",
        jobs=2 if backend == "process" else 1,
        state_dir=str(tmp_path / "state"),
        on_fault="quarantine",
        # generous against genuinely slow units on loaded CI hosts, but far
        # below the injected hang's duration
        unit_timeout=5.0,
        max_retries=0,
        chaos=ChaosSpec(hang_at=(2,), hang_seconds=30.0),
    )
    if backend == "process":
        with ProcessPoolExecutor(jobs=2) as executor:
            result = Campaign(config).run_sources(corpus, executor=executor)
    else:
        result = Campaign(config).run_sources(corpus)
    assert [q.kind for q in result.quarantined] == ["hang"]
    expected = (unit_count("while") - 1) * 8
    assert result.variants_tested == expected, "batch-mates must still run"


def test_hard_hang_recovered_by_parent_watchdog(tmp_path, monkeypatch):
    """A worker stuck where SIGALRM cannot fire is killed by the watchdog,
    the pool respawns, and innocent in-flight work is re-run uncharged."""
    monkeypatch.setattr(CampaignSupervisor, "WATCHDOG_GRACE", 0.5)
    corpus = corpus_for("while")
    config = config_for(
        "while",
        jobs=2,
        state_dir=str(tmp_path / "state"),
        on_fault="quarantine",
        unit_timeout=3.0,
        max_retries=0,
        chaos=ChaosSpec(hang_at=(2,), hang_seconds=120.0, hang_hard=True),
    )
    with ProcessPoolExecutor(jobs=2) as executor:
        result = Campaign(config).run_sources(corpus, executor=executor)
    assert [q.kind for q in result.quarantined] == ["hang"]
    assert "watchdog" in result.quarantined[0].detail
    assert result.variants_tested == (unit_count("while") - 1) * 8


# -- crash faults (pooled only: an in-process crash kills the campaign) -----


def test_worker_sigkill_pool_respawns_and_campaign_completes(tmp_path):
    corpus = corpus_for("minic")
    config = config_for(
        "minic",
        jobs=2,
        state_dir=str(tmp_path / "state"),
        on_fault="quarantine",
        max_retries=1,
        chaos=ChaosSpec(crash_at=(1,)),
    )
    with ProcessPoolExecutor(jobs=2) as executor:
        result = Campaign(config).run_sources(corpus, executor=executor)
        # the pool must have survived for later work: run a fault-free
        # campaign through the same executor
        clean = Campaign(config_for("minic", jobs=2)).run_sources(
            corpus, executor=executor
        )
    assert [q.kind for q in result.quarantined] == ["crash"]
    assert result.quarantined[0].attempts == 2
    assert clean.variants_tested == result.variants_tested + 8
    assert clean.quarantined == []


# -- resume over quarantine -------------------------------------------------


def test_resume_skips_quarantined_units(tmp_path):
    corpus = corpus_for("minic")
    state = tmp_path / "state"
    config = config_for(
        "minic",
        jobs=2,
        state_dir=str(state),
        on_fault="quarantine",
        max_retries=0,
        chaos=ChaosSpec(crash_at=(1,), raise_at=(2,)),
    )
    with ProcessPoolExecutor(jobs=2) as executor:
        first = Campaign(config).run_sources(corpus, executor=executor)
    assert sorted(q.kind for q in first.quarantined) == ["crash", "exception"]
    units_before = unit_lines(state)

    # Resume with the chaos still configured: quarantined units must be
    # skipped (not re-crashed -- the livelock this record type exists to
    # break), nothing re-executes, and the result round-trips.
    with ProcessPoolExecutor(jobs=2) as executor:
        resumed = Campaign(config).run_sources(corpus, executor=executor, resume=True)
    assert unit_lines(state) == units_before, "resume must be a pure replay"
    assert fingerprint(resumed) == fingerprint(first)


# -- acceptance: 3 poison units, per language -------------------------------


@pytest.mark.parametrize("language", ["minic", "while"])
def test_acceptance_three_poison_units(tmp_path, language):
    """ISSUE 7 acceptance: injected SIGKILL + hang + exception run to
    completion under quarantine, journal exactly 3 quarantine records,
    resume without re-executing, and every non-poisoned unit's record is
    byte-identical to a fault-free run's."""
    corpus = corpus_for(language)
    clean_state = tmp_path / "clean"
    chaos_state = tmp_path / "chaos"
    Campaign(config_for(language, state_dir=str(clean_state))).run_sources(corpus)

    config = config_for(
        language,
        jobs=2,
        state_dir=str(chaos_state),
        on_fault="quarantine",
        unit_timeout=5.0,
        max_retries=0,
        chaos=ChaosSpec(crash_at=(0,), hang_at=(2,), raise_at=(3,), hang_seconds=30.0),
    )
    with ProcessPoolExecutor(jobs=2) as executor:
        result = Campaign(config).run_sources(corpus, executor=executor)

    assert sorted(q.kind for q in result.quarantined) == ["crash", "exception", "hang"]
    journaled = load_quarantine_records(chaos_state / "journal.jsonl")
    assert len(journaled) == 3
    poisoned = set(journaled)

    clean = unit_lines(clean_state)
    chaotic = unit_lines(chaos_state)
    assert set(chaotic) <= set(clean), "surviving unit records must be byte-identical"
    missing_keys = {json.loads(line)["key"] for line in clean if line not in set(chaotic)}
    assert missing_keys == poisoned

    with ProcessPoolExecutor(jobs=2) as executor:
        resumed = Campaign(config).run_sources(corpus, executor=executor, resume=True)
    assert unit_lines(chaos_state) == chaotic, "resume must not re-execute anything"
    assert sorted(q.kind for q in resumed.quarantined) == ["crash", "exception", "hang"]


# -- mechanics --------------------------------------------------------------


def test_tier_config_degradation_ladder():
    config = CampaignConfig(batch_size=16, use_ast_rebinding=True)
    assert _tier_config(config, 0) is config
    tier1 = _tier_config(config, 1)
    assert tier1.batch_size == 0 and tier1.use_ast_rebinding
    tier2 = _tier_config(config, 2)
    assert tier2.batch_size == 0 and not tier2.use_ast_rebinding
    # tier knobs are fingerprint-excluded, so degraded re-runs replay into
    # the same store
    from repro.store import config_fingerprint

    assert config_fingerprint(tier2) == config_fingerprint(config)


def test_shard_stops_at_its_first_failed_unit():
    """The shard runner reports one failure, the first, and runs nothing
    after it: the supervisor owns the rest of the shard."""
    corpus = corpus_for("minic")
    campaign = Campaign(config_for("minic", chaos=ChaosSpec(raise_at=(1, 2))))
    shard = campaign.plan(corpus, shard_count=1).shards[0]
    outcome = campaign._run_shard(shard)
    [(position, failure)] = outcome.failed
    poison = shard.units[position]
    assert poison.ordinal == 1
    assert failure.kind == "exception"
    assert failure.unit_key == unit_key_for(poison)
    assert "ChaosError" in failure.detail
    before = Campaign(config_for("minic"))._run_shard(
        CampaignShard(index=shard.index, units=shard.units[:position])
    )
    assert outcome.result.variants_tested == before.result.variants_tested


def test_only_the_failed_unit_is_charged():
    """The units a shard left behind at its failure are requeued uncharged;
    retries are counted against the failed unit alone."""
    corpus = corpus_for("minic")
    campaign = Campaign(
        config_for(
            "minic",
            on_fault="quarantine",
            max_retries=1,
            chaos=ChaosSpec(raise_at=(1,)),
        )
    )
    plan = campaign.plan(corpus, shard_count=1)
    work, _ = campaign._partition(plan.shards, None, False)
    supervisor = CampaignSupervisor(campaign, work, SerialExecutor(), None)
    [result] = supervisor.run()
    poison = next(unit for unit in plan.shards[0].units if unit.ordinal == 1)
    assert supervisor.attempts == {unit_key_for(poison): 2}
    assert [q.key for q in result.quarantined] == [unit_key_for(poison)]
    assert result.variants_tested == (unit_count("minic") - 1) * 8


def checkpoints(state_dir) -> list[int]:
    return [
        record["units_seen"]
        for record in read_journal(state_dir / "journal.jsonl")
        if record["type"] == "checkpoint"
    ]


@pytest.mark.parametrize("language", ["minic", "while"])
def test_serial_checkpoints_count_units(tmp_path, language):
    """Shard, supervisor and final checkpoints all count units: a serial
    journal's ``units_seen`` never decreases and ends at its unit count."""
    Campaign(
        config_for(language, state_dir=str(tmp_path), checkpoint_every=2)
    ).run_sources(corpus_for(language))
    seen = checkpoints(tmp_path)
    assert len(seen) > 2
    assert seen == sorted(seen)
    assert seen[-1] == len(unit_lines(tmp_path)) == unit_count(language)


def test_checkpoints_skip_a_failed_unit_and_its_leftovers(tmp_path):
    """A failed unit adds nothing to ``units_seen``, and neither do the
    units its shard left behind until they have run."""
    Campaign(
        config_for(
            "minic",
            state_dir=str(tmp_path),
            checkpoint_every=10**6,  # only the supervisor and the final checkpoint
            on_fault="quarantine",
            max_retries=1,
            chaos=ChaosSpec(raise_at=(1,)),
        )
    ).run_sources(corpus_for("minic"))
    units = unit_count("minic")
    seen = checkpoints(tmp_path)
    # One checkpoint per folded task (unit 0 then the failure, the failed
    # retry, the leftovers, in the order the retry's backoff allows), then
    # the final one; the quarantined unit never counts.
    assert len(seen) == 4 and seen == sorted(seen)
    assert seen[0] == 1
    assert seen[-2:] == [units - 1, units - 1]
    assert len(unit_lines(tmp_path)) == units - 1


def test_supervised_picks_only_the_retry_budget():
    def budget(**overrides):
        campaign = Campaign(config_for("minic", max_retries=3, **overrides))
        return CampaignSupervisor(campaign, [], SerialExecutor(), None).retry_budget

    assert budget() == 0
    assert budget(on_fault="quarantine") == 3
    assert budget(unit_timeout=60) == 3


def test_supervised_engagement_conditions():
    assert not CampaignConfig().supervised
    assert CampaignConfig(on_fault="quarantine").supervised
    assert CampaignConfig(unit_timeout=5).supervised
    with pytest.raises(ValueError):
        CampaignConfig(on_fault="retry")
    with pytest.raises(ValueError):
        CampaignConfig(unit_timeout=0)
    with pytest.raises(ValueError):
        CampaignConfig(max_retries=-1)


def test_chaos_ordinals_are_plan_stable():
    """Unit ordinals depend only on the corpus and planning knobs -- never on
    the shard count -- so an injected fault names the same unit at any
    parallelism."""
    corpus = corpus_for("minic")
    campaign = Campaign(config_for("minic"))

    def ordinals(shards):
        plan = campaign.plan(corpus, shard_count=shards)
        return sorted(
            (unit_key_for(unit), unit.ordinal)
            for shard in plan.shards
            for unit in shard.units
        )

    assert ordinals(1) == ordinals(2) == ordinals(4)
    seen = [ordinal for _, ordinal in ordinals(1)]
    assert sorted(seen) == list(range(len(seen)))
