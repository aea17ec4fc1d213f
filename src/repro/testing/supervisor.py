"""The campaign supervisor: fault-tolerant execution of partitioned work.

``Campaign._execute`` routes here when ``CampaignConfig.supervised`` is true
(an ``--on-fault quarantine`` policy or a ``--unit-timeout`` deadline).  The
supervisor owns the scheduling loop the plain path delegates to
``executor.map``, because surviving worker failures needs exactly what
``map`` cannot give: per-future deadlines, selective retry, and a pool that
can be killed and respawned mid-run.

Failure taxonomy and recovery (see ``docs/ARCHITECTURE.md`` section 9):

* **exception** -- a unit raised in the worker.  Under supervision the
  shard runner (:meth:`~repro.testing.harness.Campaign._run_shard`) catches
  it *per unit* and keeps going, so one pass yields every batch-mate's
  result plus a precise :class:`~repro.testing.harness.UnitFailure`; no
  bisection is ever needed.
* **hang (soft)** -- a unit overran ``unit_timeout`` but the worker-side
  ``SIGALRM`` could interrupt it.  Reported exactly like an exception.
* **hang (hard)** -- the worker is stuck where no signal lands (C code,
  blocked signals).  The parent watchdog notices the task's wall-clock
  deadline (``unit_timeout * len(units) + WATCHDOG_GRACE``) expiring, kills
  the whole pool (:meth:`ProcessPoolExecutor.kill_workers` -- a plain
  ``shutdown`` would wait forever), requeues the innocent in-flight tasks
  uncharged, and bisects the expired one.
* **crash** -- a worker died (segfault, OOM kill, ``os._exit``); the pool
  reports :class:`BrokenProcessPool` without saying which task was on the
  dead worker.  With one task in flight the culprit is certain and is
  bisected; with several, *nobody* is charged -- all in-flight tasks become
  suspects and re-run one at a time (isolation mode) until attribution is
  certain.  Innocent batch-mates therefore never burn retry budget on
  someone else's crash.

A failed single unit is charged one attempt and requeued with exponential
backoff (``retry_backoff * 2**(attempt-1)``), degrading down the execution
tiers -- batched codegen, then scalar, then the legacy render+reparse
pipeline -- so a codegen-tier bug costs one tier, not the campaign.  A unit
that exhausts ``max_retries`` is *resolved*: under ``on_fault="quarantine"``
it is journaled as a ``type="quarantine"`` record (excluded from resume
replay, so a deterministic crasher cannot livelock the campaign) and
surfaced in ``CampaignResult.quarantined``; under ``on_fault="abort"`` the
run fails fast with a :class:`~repro.testing.harness.UnitExecutionError`
naming the unit.

Equivalence contract: with no faults injected and none occurring, the
supervisor dispatches the same units through the same worker code and the
journals (and reports) are byte-identical to the unsupervised path -- the
equivalence and resume suites pin this.

Caveats by backend: in-process (serial) execution cannot survive a *crash*
(the campaign process itself dies) or a *hard* hang (no parent watches it);
soft deadlines and exception retry/quarantine work everywhere.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

from repro.store import QuarantineRecord, unit_key_for
from repro.testing.executor import SerialExecutor, _cancel_outstanding
from repro.testing.harness import (
    Campaign,
    CampaignInterrupted,
    CampaignResult,
    CampaignShard,
    FAILURE_CRASH,
    FAILURE_HANG,
    ShardOutcome,
    ShardUnit,
    UnitExecutionError,
    _Payloads,
    _run_shard_payload,
)


def _tier_config(config, attempt: int):
    """The execution tier for a unit's ``attempt``-th run (0 = as configured).

    Tier knobs (``batch_size``, ``use_ast_rebinding``) are proven
    observationally identical by the equivalence suite and excluded from the
    store fingerprint, so degraded re-runs journal records indistinguishable
    from first-try ones.
    """
    if attempt <= 0:
        return config
    if attempt == 1:
        return replace(config, batch_size=0)
    return replace(config, batch_size=0, use_ast_rebinding=False)


@dataclass
class _Task:
    """One dispatchable piece of work: a slice of a work item's units."""

    item_index: int
    units: tuple[ShardUnit, ...]
    #: Execution tier for this run; single-unit retries carry the unit's
    #: failure count, fresh/bisected tasks keep their parent's tier.
    attempt: int = 0
    #: Earliest monotonic time this task may be dispatched (retry backoff).
    not_before: float = 0.0
    #: Part of a crash's ambiguous in-flight set: runs alone (isolation
    #: mode) until the culprit is identified, so attribution is certain.
    suspect: bool = False


@dataclass
class _InFlight:
    task: _Task
    #: Absolute monotonic watchdog deadline; ``None`` without a timeout.
    deadline: float | None


class CampaignSupervisor:
    """Run partitioned campaign work, surviving worker failures.

    Constructed per :meth:`Campaign._execute` call with the already
    partitioned work items; :meth:`run` returns one result per item, aligned
    with the input (exactly the contract the plain path's ``map`` has), with
    quarantined units recorded on the item they belonged to.
    """

    #: Slack added to a task's worker-side deadline budget before the parent
    #: watchdog declares it hung: covers worker spawn, payload pickling and
    #: result transfer.  Class attribute so tests can tighten it.
    WATCHDOG_GRACE = 2.0

    def __init__(self, campaign: Campaign, work, executor, store) -> None:
        self.campaign = campaign
        self.config = campaign.config
        self.work = list(work)
        self.executor = executor
        self.store = store
        self.results = [CampaignResult() for _ in self.work]
        self.pending: deque[_Task] = deque(
            _Task(index, item.shard.units) for index, item in enumerate(self.work)
        )
        #: Failed-attempt count per unit key; only *attributed* failures
        #: charge it (collateral requeues and bisection splits never do).
        self.attempts: dict[str, int] = {}
        self.exhausted_items: set[int] = set()
        self._in_flight: dict[Future, _InFlight] = {}
        self._payloads: _Payloads | None = None
        self._completed = 0
        self._progress = CampaignResult()

    # -- entry point -------------------------------------------------------

    def run(self) -> list[CampaignResult]:
        if (
            isinstance(self.executor, SerialExecutor)
            or not hasattr(self.executor, "submit")
            or getattr(self.executor, "jobs", 1) <= 1
        ):
            self._run_inline()
        else:
            self._payloads = _Payloads(self.executor, self.work)
            self._run_pooled()
        return self.results

    # -- shared bookkeeping ------------------------------------------------

    def _pop_ready(self, now: float) -> _Task | None:
        """The first dispatchable pending task (backoffs and exhausted items
        respected); ``None`` when everything pending is backed off."""
        for _ in range(len(self.pending)):
            task = self.pending.popleft()
            if task.item_index in self.exhausted_items:
                continue  # stop_after_bugs hit: drop the item's leftovers
            if task.not_before <= now:
                return task
            self.pending.append(task)
        return None

    def _next_wakeup(self) -> float | None:
        times = [
            task.not_before
            for task in self.pending
            if task.item_index not in self.exhausted_items
        ]
        return min(times) if times else None

    def _fold_outcome(self, task: _Task, outcome: ShardOutcome) -> None:
        index = task.item_index
        self.results[index] = self.results[index].merge(outcome.result)
        if outcome.exhausted:
            self.exhausted_items.add(index)
        for position, failure in outcome.failed:
            self._charge(task, task.units[position], failure.kind, failure.detail)
        self._completed += 1
        self._progress = self._progress.merge(outcome.result)
        if self.store is not None:
            self.store.checkpoint(self._completed, self._progress)

    def _charge(self, task: _Task, unit: ShardUnit, kind: str, detail: str) -> None:
        """Attribute one failure to one unit: retry with backoff, or resolve."""
        key = unit_key_for(unit)
        count = self.attempts.get(key, 0) + 1
        self.attempts[key] = count
        if count > self.config.max_retries:
            self._resolve_poison(task.item_index, unit, kind, detail, count)
            return
        backoff = self.config.retry_backoff * (2 ** (count - 1))
        self.pending.appendleft(
            _Task(
                task.item_index,
                (unit,),
                attempt=count,
                not_before=time.monotonic() + backoff,
                suspect=task.suspect,
            )
        )

    def _bisect_or_charge(self, task: _Task, kind: str, detail: str) -> None:
        """Crash/hard-hang of a whole task: narrow down to the poison unit.

        Splitting charges nobody -- only a single-unit failure is precise
        enough to count against a retry budget.  Halves keep their parent's
        tier and suspect status, and go to the *front* of the queue so
        attribution finishes before fresh work dilutes it.
        """
        if len(task.units) == 1:
            self._charge(task, task.units[0], kind, detail)
            return
        mid = len(task.units) // 2
        for half in (task.units[mid:], task.units[:mid]):
            self.pending.appendleft(
                _Task(task.item_index, half, task.attempt, suspect=task.suspect)
            )

    def _resolve_poison(
        self, item_index: int, unit: ShardUnit, kind: str, detail: str, attempts: int
    ) -> None:
        if self.config.on_fault != "quarantine":
            self._abort_inflight()
            raise UnitExecutionError.for_unit(
                unit, kind, f"{detail} (after {attempts} attempts)"
            )
        record = QuarantineRecord(
            key=unit_key_for(unit),
            name=unit.name,
            start=unit.start,
            stop=unit.stop,
            indices=unit.indices,
            primary=unit.primary,
            kind=kind,
            attempts=attempts,
            detail=detail,
        )
        if self.store is not None:
            self.store.writer().append_quarantine(record)
        self.results[item_index].note_quarantine(record)

    def _abort_inflight(self) -> None:
        kill = getattr(self.executor, "kill_workers", None)
        if kill is not None:
            kill()
        _cancel_outstanding(self._in_flight)
        self._in_flight.clear()

    # -- serial (in-process) -----------------------------------------------

    def _run_inline(self) -> None:
        """In-process execution: worker-side deadlines and exception
        retry/quarantine, no crash/hard-hang recovery (there is no parent to
        watch this very process)."""
        journal = self.store.writer() if self.store is not None else None
        while True:
            now = time.monotonic()
            task = self._pop_ready(now)
            if task is None:
                wakeup = self._next_wakeup()
                if wakeup is None:
                    return
                time.sleep(max(0.0, wakeup - now))
                continue
            item = self.work[task.item_index]
            config = _tier_config(item.config, task.attempt)
            if config is self.campaign.config:
                # First-tier work under the campaign's own config reuses its
                # caches, exactly like the unsupervised serial path.
                campaign = self.campaign
            else:
                campaign = Campaign(config)
            shard = CampaignShard(index=item.shard.index, units=task.units)
            outcome = campaign._run_shard(shard, journal=journal)
            self._fold_outcome(task, outcome)

    # -- pooled ------------------------------------------------------------

    def _payload(self, task: _Task):
        item = self.work[task.item_index]
        return self._payloads(
            _tier_config(item.config, task.attempt), item.shard.index, task.units
        )

    def _deadline_for(self, task: _Task, now: float) -> float | None:
        if self.config.unit_timeout is None:
            return None
        return now + self.config.unit_timeout * len(task.units) + self.WATCHDOG_GRACE

    def _capacity(self) -> int:
        jobs = max(1, getattr(self.executor, "jobs", 1) or 1)
        suspects = any(task.suspect for task in self.pending) or any(
            tracked.task.suspect for tracked in self._in_flight.values()
        )
        # Isolation mode: while crash suspects exist, run one task at a time
        # so the next BrokenProcessPool names its culprit with certainty.
        return 1 if suspects else jobs

    def _run_pooled(self) -> None:
        in_flight = self._in_flight
        try:
            while self.pending or in_flight:
                now = time.monotonic()
                while len(in_flight) < self._capacity():
                    task = self._pop_ready(now)
                    if task is None:
                        break
                    future = self.executor.submit(
                        _run_shard_payload, self._payload(task)
                    )
                    in_flight[future] = _InFlight(task, self._deadline_for(task, now))
                if not in_flight:
                    wakeup = self._next_wakeup()
                    if wakeup is None:
                        return
                    time.sleep(max(0.0, wakeup - now))
                    continue
                timeout = None
                deadlines = [
                    tracked.deadline
                    for tracked in in_flight.values()
                    if tracked.deadline is not None
                ]
                if deadlines:
                    timeout = max(0.0, min(deadlines) - time.monotonic())
                wakeup = self._next_wakeup()
                if wakeup is not None:
                    until_wakeup = max(0.0, wakeup - time.monotonic())
                    timeout = (
                        until_wakeup if timeout is None else min(timeout, until_wakeup)
                    )
                done, _ = wait(in_flight, timeout=timeout, return_when=FIRST_COMPLETED)
                if done:
                    self._consume(done)
                else:
                    self._check_watchdog()
        except BaseException:
            self._abort_inflight()
            raise

    def _consume(self, done) -> None:
        in_flight = self._in_flight
        broken: list[_InFlight] = []
        for future in done:
            tracked = in_flight.pop(future, None)
            if tracked is None:
                continue
            try:
                outcome = future.result()
            except BrokenProcessPool:
                broken.append(tracked)
                continue
            except CampaignInterrupted:
                raise
            # Results that landed before the pool broke still count: fold
            # successes first so a crash never discards a batch-mate's work.
            self._fold_outcome(tracked.task, outcome)
        if broken:
            self._on_broken_pool(broken)

    def _on_broken_pool(self, broken: list[_InFlight]) -> None:
        """A worker died without an outcome (segfault / OOM / SIGKILL).

        The pool cannot say which in-flight task was on the dead worker --
        every outstanding future fails with the same ``BrokenProcessPool``.
        With a single task in flight the culprit is certain and gets
        bisected; otherwise all in-flight tasks are requeued *uncharged* as
        suspects and re-run in isolation until the crash reproduces with
        certain attribution.
        """
        in_flight = self._in_flight
        kill = getattr(self.executor, "kill_workers", None)
        if kill is not None:
            kill()  # drop the broken pool; next submit respawns it
        survivors = [tracked.task for tracked in in_flight.values()]
        _cancel_outstanding(list(in_flight))
        in_flight.clear()
        suspects = [tracked.task for tracked in broken] + survivors
        if len(suspects) == 1:
            self._bisect_or_charge(
                suspects[0], FAILURE_CRASH, "worker process died without a result"
            )
            return
        for task in suspects:
            self.pending.appendleft(replace(task, suspect=True))

    def _check_watchdog(self) -> None:
        """No future finished before the earliest deadline: hunt for hangs."""
        now = time.monotonic()
        in_flight = self._in_flight
        expired = [
            future
            for future, tracked in in_flight.items()
            if tracked.deadline is not None and tracked.deadline <= now
        ]
        if not expired:
            return  # spurious wakeup (e.g. a retry-backoff timer)
        kill = getattr(self.executor, "kill_workers", None)
        if kill is not None:
            kill()
        timeout = self.config.unit_timeout
        for future, tracked in list(in_flight.items()):
            if future in expired:
                self._bisect_or_charge(
                    tracked.task,
                    FAILURE_HANG,
                    f"no result within {timeout:g}s/unit (parent watchdog)",
                )
            else:
                # Collateral damage of the pool kill: requeue unchanged and
                # uncharged, at the front so its deadline clock restarts.
                self.pending.appendleft(tracked.task)
        _cancel_outstanding(list(in_flight))
        in_flight.clear()


__all__ = ["CampaignSupervisor"]
