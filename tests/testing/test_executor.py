"""Tests for the sharded campaign pipeline and its execution backends."""

import multiprocessing
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.compiler.pipeline import OptimizationLevel
from repro.core.spe import EnumerationBudget
from repro.store import source_sha
from repro.testing.executor import (
    ProcessPoolExecutor,
    SerialExecutor,
    default_executor,
    worker_source,
)
from repro.testing.harness import Campaign, CampaignConfig, CampaignResult


# Worker functions must be module-level to pickle across the pool boundary.
def _sleep_then_return(item):
    index, delay = item
    time.sleep(delay)
    return index


def _double(x):
    return x * 2


def _explode(x):
    raise ValueError(f"worker exploded on {x}")


def _resolve_preloaded(sha):
    return worker_source(sha)


def _explode_or_mark(item):
    directory, index, delay = item
    if index == 0:
        raise ValueError("worker exploded on 0")
    time.sleep(delay)
    (directory / f"ran-{index}").touch()
    return index

SEEDS = {
    "sub.c": "int main() { int a = 7, b = 3; int x = 0, y = 0; x = a - b; y = a - b; return x + y; }",
    "alias.c": "int a = 0; int b = 0; int main() { int *p = &a; a = 1; *p = 2; return a + b; }",
}


def small_config(**overrides) -> CampaignConfig:
    defaults = dict(
        versions=["scc-trunk"],
        opt_levels=[OptimizationLevel.O2],
        budget=EnumerationBudget(max_variants=10_000),
        max_variants_per_file=12,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def bug_keys(result: CampaignResult) -> set:
    return {report.dedup_key for report in result.bugs.reports}


class TestExecutors:
    def test_serial_executor_maps_in_order(self):
        assert SerialExecutor().map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]

    def test_default_executor_selection(self):
        assert isinstance(default_executor(None), SerialExecutor)
        assert isinstance(default_executor(1), SerialExecutor)
        pool = default_executor(3)
        assert isinstance(pool, ProcessPoolExecutor)
        assert pool.jobs == 3

    def test_process_pool_falls_back_to_serial_for_single_item(self):
        assert ProcessPoolExecutor(jobs=4).map(abs, [-3]) == [3]

    def test_jobs_one_pool_never_spawns_workers(self):
        pool = ProcessPoolExecutor(jobs=1)
        assert pool.map(_double, [1, 2, 3]) == [2, 4, 6]
        assert pool._pool is None  # delegated to SerialExecutor, no spawn


class TestExceptionPropagation:
    def test_serial_map_propagates_worker_exception(self):
        with pytest.raises(ValueError, match="worker exploded"):
            SerialExecutor().map(_explode, [1, 2])

    def test_pool_map_propagates_worker_exception(self):
        with ProcessPoolExecutor(jobs=2) as pool:
            with pytest.raises(ValueError, match="worker exploded"):
                pool.map(_explode, [1, 2, 3])

    def test_pool_survives_an_ordinary_worker_exception(self):
        # A ValueError in a task is not a pool failure; the persistent pool
        # must stay usable for the next map() without respawning.
        with ProcessPoolExecutor(jobs=2) as pool:
            with pytest.raises(ValueError):
                pool.map(_explode, [1, 2, 3])
            inner = pool._pool
            assert inner is not None
            assert pool.map(_double, [4, 5, 6]) == [8, 10, 12]
            assert pool._pool is inner  # same workers, no respawn


class TestPersistentPool:
    def test_pool_reused_across_map_calls(self):
        with ProcessPoolExecutor(jobs=2) as pool:
            assert pool.map(_double, [1, 2, 3]) == [2, 4, 6]
            inner = pool._pool
            assert inner is not None
            assert pool.map(_double, [7, 8, 9]) == [14, 16, 18]
            assert pool._pool is inner

    def test_close_is_idempotent_and_pool_respawns_after_close(self):
        pool = ProcessPoolExecutor(jobs=2)
        assert pool.map(_double, [1, 2]) == [2, 4]
        pool.close()
        assert pool._pool is None
        pool.close()  # idempotent
        assert pool.map(_double, [3, 4]) == [6, 8]  # usable again
        pool.close()

    def test_preload_resolves_in_workers(self):
        sources = {"int main() { return 0; }": None, "x := 1": None}
        corpus = {source_sha(text): text for text in sources}
        shas = list(corpus)
        with ProcessPoolExecutor(jobs=2) as pool:
            pool.preload(corpus)
            assert pool.map(_resolve_preloaded, shas) == [corpus[sha] for sha in shas]

    def test_preload_is_cumulative_and_idempotent(self):
        first = {source_sha("alpha"): "alpha", source_sha("beta"): "beta"}
        extra = {source_sha("gamma"): "gamma"}
        with ProcessPoolExecutor(jobs=2) as pool:
            pool.preload(first)
            pool.map(_resolve_preloaded, list(first))
            inner = pool._pool
            pool.preload(dict(first))  # already-known shas: no respawn
            assert pool._pool is inner
            pool.preload(extra)  # genuinely new source: workers respawn
            assert pool._pool is None
            everything = {**first, **extra}
            shas = list(everything)
            assert pool.map(_resolve_preloaded, shas) == [everything[s] for s in shas]

    def test_worker_source_raises_on_missing_preload(self):
        with pytest.raises(RuntimeError, match="was not preloaded"):
            worker_source("0" * 16)

    def test_pool_reuse_across_two_campaigns(self):
        serial_a = Campaign(small_config()).run_sources(SEEDS)
        only_sub = {"sub.c": SEEDS["sub.c"]}
        serial_b = Campaign(small_config()).run_sources(only_sub)
        with ProcessPoolExecutor(jobs=2) as pool:
            pooled_a = Campaign(small_config()).run_sources(
                SEEDS, shard_count=2, executor=pool
            )
            # The harness must leave a caller-provided executor open...
            pooled_b = Campaign(small_config()).run_sources(
                only_sub, shard_count=2, executor=pool
            )
        assert pooled_a.summary() == serial_a.summary()
        assert bug_keys(pooled_a) == bug_keys(serial_a)
        assert pooled_b.summary() == serial_b.summary()
        assert bug_keys(pooled_b) == bug_keys(serial_b)


class TestFaultContainment:
    """The supervision-facing executor surface: hard worker kills and
    cancellation of work nobody will read."""

    def test_kill_workers_on_unspawned_pool_is_a_noop(self):
        pool = ProcessPoolExecutor(jobs=2)
        pool.kill_workers()  # nothing spawned yet: must not raise
        assert pool._pool is None

    def test_kill_workers_fails_inflight_and_respawns_with_preload(self):
        sha = source_sha("alpha")
        with ProcessPoolExecutor(jobs=2) as pool:
            pool.preload({sha: "alpha"})
            future = pool.submit(_sleep_then_return, (1, 60.0))
            time.sleep(0.3)  # let a worker pick the task up
            pool.kill_workers()
            with pytest.raises(BrokenProcessPool):
                future.result(timeout=10)
            assert pool._pool is None
            # The next map respawns a fresh pool whose initializer re-installs
            # the preloaded corpus -- hang recovery must not strand slim
            # payloads.
            assert pool.map(_resolve_preloaded, [sha, sha]) == ["alpha", "alpha"]

    def test_failed_map_cancels_outstanding_futures(self, tmp_path):
        # Item 0 explodes immediately; the other items sleep, then drop a
        # marker file.  Without cancellation the pool would drain the whole
        # queue after map() raised (workers only stop at close()), so every
        # marker would appear; with it, the still-queued tail never runs.
        items = [(tmp_path, index, 0.3) for index in range(8)]
        with ProcessPoolExecutor(jobs=2) as pool:
            with pytest.raises(ValueError, match="worker exploded"):
                pool.map(_explode_or_mark, items)
            # wait long enough that any *uncancelled* queue would have fully
            # drained ((8-1) * 0.3s across 2 workers ~= 1.1s)
            time.sleep(2.0)
            ran = len(list(tmp_path.glob("ran-*")))
        assert ran < 7, f"queued futures were not cancelled ({ran}/7 ran)"


class TestCampaignResultMerge:
    def test_merge_sums_counters_and_takes_max_wall_clock(self):
        a = CampaignResult(files_processed=1, variants_tested=5, wall_seconds=2.0,
                           observations={"ok": 3, "crash": 1})
        b = CampaignResult(files_processed=2, variants_tested=7, wall_seconds=9.0,
                           observations={"ok": 4})
        merged = a.merge(b)
        assert merged.files_processed == 3
        assert merged.variants_tested == 12
        assert merged.observations == {"ok": 7, "crash": 1}
        assert merged.wall_seconds == 9.0
        # merge is pure: inputs untouched
        assert a.variants_tested == 5 and b.variants_tested == 7

    def test_merge_is_order_independent(self):
        campaign = Campaign(small_config())
        parts = [
            campaign.run_sources(SEEDS, shard_count=4, shard_index=i) for i in range(4)
        ]
        forward = parts[0]
        for part in parts[1:]:
            forward = forward.merge(part)
        backward = parts[3]
        for part in (parts[2], parts[1], parts[0]):
            backward = backward.merge(part)
        assert forward.summary() == backward.summary()
        assert bug_keys(forward) == bug_keys(backward)

    def test_serial_vs_four_shards_identical_summaries(self):
        serial = Campaign(small_config()).run_sources(SEEDS)
        sharded = Campaign(small_config()).run_sources(
            SEEDS, shard_count=4, executor=SerialExecutor()
        )
        assert serial.summary() == sharded.summary()
        assert bug_keys(serial) == bug_keys(sharded)
        assert sorted(r.duplicate_count for r in serial.bugs.reports) == sorted(
            r.duplicate_count for r in sharded.bugs.reports
        )


class TestShardedCampaign:
    def test_plan_tiles_every_files_variants(self):
        campaign = Campaign(small_config())
        plan = campaign.plan(SEEDS, shard_count=3)
        per_file: dict[str, list[int]] = {}
        primaries: dict[str, int] = {}
        for shard in plan.shards:
            for unit in shard.units:
                indices = (
                    list(unit.indices)
                    if unit.indices is not None
                    else list(range(unit.start, unit.stop))
                )
                per_file.setdefault(unit.name, []).extend(indices)
                primaries[unit.name] = primaries.get(unit.name, 0) + bool(unit.primary)
        serial_plan = campaign.plan(SEEDS, shard_count=1)
        serial_indices = {
            unit.name: list(range(unit.start, unit.stop))
            for shard in serial_plan.shards
            for unit in shard.units
        }
        assert {name: sorted(ix) for name, ix in per_file.items()} == serial_indices
        assert all(count == 1 for count in primaries.values())

    def test_shard_index_runs_are_partial_and_merge_to_serial(self):
        serial = Campaign(small_config()).run_sources(SEEDS)
        parts = [
            Campaign(small_config()).run_sources(SEEDS, shard_count=4, shard_index=i)
            for i in range(4)
        ]
        assert sum(part.variants_tested for part in parts) == serial.variants_tested
        merged = parts[0]
        for part in parts[1:]:
            merged = merged.merge(part)
        assert merged.summary() == serial.summary()

    def test_process_pool_campaign_finds_the_same_bugs(self):
        serial = Campaign(small_config()).run_sources(SEEDS)
        parallel = Campaign(small_config(jobs=4)).run_sources(SEEDS)
        assert parallel.summary() == serial.summary()
        assert bug_keys(parallel) == bug_keys(serial)

    def test_sampled_campaign_is_shard_invariant(self):
        config = dict(sample_per_file=6, max_variants_per_file=None)
        serial = Campaign(small_config(**config)).run_sources(SEEDS)
        assert serial.variants_tested == 12  # 6 per file
        sharded = Campaign(small_config(**config)).run_sources(
            SEEDS, shard_count=4, executor=SerialExecutor()
        )
        assert serial.summary() == sharded.summary()

    def test_bug_representatives_are_shard_invariant(self):
        """Not just the bug *set*: the reported metadata must match too."""
        serial = Campaign(small_config()).run_sources(SEEDS)
        sharded = Campaign(small_config()).run_sources(
            SEEDS, shard_count=4, executor=SerialExecutor()
        )

        def lines(result):
            # summary_line minus the id prefix (ids depend on merge order)
            return sorted(report.summary_line()[5:] for report in result.bugs.reports)

        assert lines(serial) == lines(sharded)
        assert sorted(r.signature for r in serial.bugs.reports) == sorted(
            r.signature for r in sharded.bugs.reports
        )
        assert sorted(r.test_program for r in serial.bugs.reports) == sorted(
            r.test_program for r in sharded.bugs.reports
        )

    def test_naive_mode_shards_too(self):
        config = dict(use_naive_enumeration=True, max_variants_per_file=6)
        serial = Campaign(small_config(**config)).run_sources(SEEDS)
        sharded = Campaign(small_config(**config)).run_sources(
            SEEDS, shard_count=3, executor=SerialExecutor()
        )
        assert serial.summary() == sharded.summary()

    def test_skipped_files_counted_once_across_shards(self):
        config = small_config(budget=EnumerationBudget(max_variants=2))
        sharded = Campaign(config).run_sources(SEEDS, shard_count=4, executor=SerialExecutor())
        assert sharded.files_skipped_budget == 2
        assert sharded.variants_tested == 0

    def test_invalid_shard_parameters(self, tmp_path):
        campaign = Campaign(small_config())
        with pytest.raises(ValueError):
            campaign.plan(SEEDS, shard_count=0)
        with pytest.raises(ValueError):
            campaign.run_sources(SEEDS, shard_count=2, shard_index=5)
        # A rejected shard index must not create the state directory.
        state_dir = tmp_path / "state"
        durable = Campaign(small_config(state_dir=str(state_dir)))
        with pytest.raises(ValueError, match="out of range"):
            durable.run_sources(SEEDS, shard_count=2, shard_index=5)
        assert not state_dir.exists()

    def test_shard_index_run_honours_jobs(self):
        """--shard i/n --jobs m: the shard is sub-sharded over m workers."""
        serial_parts = [
            Campaign(small_config()).run_sources(SEEDS, shard_count=2, shard_index=i)
            for i in range(2)
        ]
        workers_before = set(multiprocessing.active_children())
        parallel_parts = [
            Campaign(small_config(jobs=3)).run_sources(SEEDS, shard_count=2, shard_index=i)
            for i in range(2)
        ]
        # The pool the run created for itself is shut down before it returns.
        assert set(multiprocessing.active_children()) <= workers_before
        for serial, parallel in zip(serial_parts, parallel_parts):
            assert serial.variants_tested == parallel.variants_tested
            assert serial.files_processed == parallel.files_processed
            assert serial.observations == parallel.observations
            assert bug_keys(serial) == bug_keys(parallel)

    def test_single_shard_on_a_pool_matches_serial(self):
        # One work item on a pool -- e.g. a resumed run with one shard left --
        # ships a slim payload that only a worker can rehydrate.
        serial = Campaign(small_config()).run_sources(SEEDS)
        with ProcessPoolExecutor(jobs=2) as pool:
            pooled = Campaign(small_config(jobs=2)).run_sources(
                SEEDS, shard_count=1, executor=pool
            )
        assert pooled.variants_tested == serial.variants_tested
        assert pooled.observations == serial.observations
        assert bug_keys(pooled) == bug_keys(serial)
