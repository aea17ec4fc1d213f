"""Pluggable execution backends for sharded campaigns.

The campaign harness (:mod:`repro.testing.harness`) splits a run into
index-range work shards; an *executor* decides how those shards are
evaluated:

* :class:`SerialExecutor` runs them one after another in-process -- the
  default, and the reference behaviour every parallel backend must match;
* :class:`ProcessPoolExecutor` fans them out over worker processes.  Work
  units carry plain source text (not skeletons, whose ``realize`` closures do
  not pickle) and the campaign config carries its frontend as a registry
  *name*, so shard payloads are language-agnostic and picklable: each worker
  resolves the frontend plug-in and re-extracts its skeletons; results come
  back as :class:`~repro.testing.harness.CampaignResult` values and are
  merged with :meth:`CampaignResult.merge`.

The process pool is *persistent*: it is spawned lazily on the first parallel
``map`` and reused by every later call (and by later campaigns in the same
process) until :meth:`ProcessPoolExecutor.close` -- the executor is a
context manager, and the harness closes executors it created itself.  A
campaign's corpus can be *preloaded* into the workers once via
:meth:`ProcessPoolExecutor.preload`: sources travel keyed by content sha
through the pool initializer's arguments (workers started by ``fork``, the
Linux default before Python 3.14, inherit them without pickling), and shard
payloads then reference them by sha instead of re-pickling source text per
unit (see ``harness._Payloads``/``harness._run_shard_payload``).
Preloading is content-addressed and cumulative, so reusing one executor
across campaigns only respawns the pool when genuinely new sources appear,
and supervisor ``kill_workers`` respawns re-run the initializer with the
same corpus.

Both backends expose the same ``map(fn, items)`` surface, so anything
shaped like that (e.g. an MPI or job-queue adapter) can be plugged into
``Campaign.run_sources(..., executor=...)``.

When a campaign runs with a persistent state directory
(``CampaignConfig.state_dir``), durability is layered on both sides of the
executor boundary: shard *workers* append per-unit records to the campaign
journal themselves (so a record survives worker, pool and parent all dying
-- the payload config carries the state directory across the process
boundary), and the *parent* streams shard completions through the optional
``completed`` callback of :func:`map_streaming` to write progress
checkpoints as results arrive instead of only after the whole pool drains.
"""

from __future__ import annotations

import concurrent.futures
import inspect
import os
from typing import Callable, Iterable, Sequence, TypeVar

from concurrent.futures.process import BrokenProcessPool

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")

#: Optional per-result callback, invoked as each work item completes (in
#: completion order, which for parallel backends differs from item order).
CompletedCallback = Callable[[_Result], None]

#: Per-worker-process corpus installed by the pool initializer: content sha
#: -> source text.  Module-level so shard payloads can reference sources by
#: sha (see ``worker_source``); only ever written in worker processes.
_WORKER_SOURCES: dict[str, str] = {}


def _install_worker_sources(sources: dict[str, str]) -> None:
    """Pool initializer: runs once per worker at spawn."""
    _WORKER_SOURCES.update(sources)


def worker_source(sha: str) -> str:
    """Resolve a preloaded source by content sha (inside a worker process)."""
    text = _WORKER_SOURCES.get(sha)
    if text is not None:
        return text
    raise RuntimeError(
        f"source {sha[:12]}... was not preloaded into this worker "
        "(executor.preload must run before dispatching slim payloads)"
    )


class SerialExecutor:
    """Evaluate work items sequentially in the calling process."""

    def map(
        self,
        fn: Callable[[_Item], _Result],
        items: Iterable[_Item],
        completed: CompletedCallback | None = None,
    ) -> list[_Result]:
        results: list[_Result] = []
        for item in items:
            result = fn(item)
            if completed is not None:
                completed(result)
            results.append(result)
        return results


class ProcessPoolExecutor:
    """Evaluate work items in a persistent pool of worker processes.

    Args:
        jobs: number of worker processes (defaults to the CPU count).  Both
            ``fn`` and the items must be picklable; the campaign's shard
            worker is a module-level function for exactly this reason.

    The underlying pool is created lazily on the first parallel ``map`` call
    and *kept alive* across calls -- worker spawn cost is paid once per
    corpus, not once per ``map``.  Use as a context manager (or call
    :meth:`close`) to shut the workers down; the campaign harness closes
    executors it constructed internally and leaves caller-provided ones
    running for reuse.
    """

    def __init__(self, jobs: int | None = None) -> None:
        self.jobs = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None
        self._preloaded: dict[str, str] = {}

    # -- lifecycle ---------------------------------------------------------

    def preload(self, sources: dict[str, str]) -> None:
        """Make ``sources`` (content sha -> text) resolvable in every worker.

        Content-addressed and cumulative: preloading a subset of what the
        workers already hold is free; genuinely new sources force a pool
        respawn (a live worker cannot be re-initialized), after which the
        union is installed at each worker's spawn.
        """
        if not sources:
            return
        missing = {sha: text for sha, text in sources.items() if sha not in self._preloaded}
        if not missing:
            return
        if self._pool is not None:
            self._shutdown_pool()
        self._preloaded.update(missing)

    def close(self) -> None:
        """Shut down the worker pool (idempotent); the executor stays usable
        and respawns workers on the next parallel ``map``."""
        self._shutdown_pool()

    def __enter__(self) -> "ProcessPoolExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def kill_workers(self) -> None:
        """Hard-kill the worker processes (SIGKILL) and drop the pool.

        The escape hatch for a *hung* worker: :meth:`close` waits for running
        tasks, which never return when a worker is stuck past its deadline.
        The campaign supervisor calls this when a unit deadline expires; the
        next ``map``/``submit`` respawns a fresh pool (re-running the pool
        initializer, so preloaded sources survive).  Outstanding futures fail
        with :class:`~concurrent.futures.process.BrokenProcessPool`.
        """
        pool = self._pool
        if pool is None:
            return
        self._pool = None
        for process in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                process.kill()
            except (OSError, AttributeError):  # pragma: no cover - already dead
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            kwargs = {}
            if self._preloaded:
                kwargs = {
                    "initializer": _install_worker_sources,
                    "initargs": (dict(self._preloaded),),
                }
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.jobs, **kwargs
            )
        return self._pool

    # -- execution ---------------------------------------------------------

    def submit(self, fn: Callable[[_Item], _Result], item: _Item) -> concurrent.futures.Future:
        """Submit one work item to the persistent pool and return its future.

        The fine-grained entry point the campaign supervisor dispatches
        through: it tracks per-future deadlines itself, so it needs futures
        rather than a gathered ``map``.
        """
        return self._ensure_pool().submit(fn, item)

    def map(
        self,
        fn: Callable[[_Item], _Result],
        items: Iterable[_Item],
        completed: CompletedCallback | None = None,
    ) -> list[_Result]:
        items = list(items)
        # A trivial map runs in-process -- unless sources were preloaded:
        # slim payloads reference them by sha, which only a worker resolves.
        if not self._preloaded and (self.jobs <= 1 or len(items) <= 1):
            return SerialExecutor().map(fn, items, completed)
        pool = self._ensure_pool()
        futures: list[concurrent.futures.Future] = []
        try:
            futures = [pool.submit(fn, item) for item in items]
            if completed is None:
                return [future.result() for future in futures]
            # Single gathering pass: each future's result is consumed exactly
            # once, streamed to the callback in *completion* order (which is
            # what lets the harness checkpoint a long campaign's durable
            # store while other shards are still running) and slotted back
            # into *submission* order for the return value.
            results: list[_Result] = [None] * len(futures)  # type: ignore[list-item]
            slot_of = {future: index for index, future in enumerate(futures)}
            for future in concurrent.futures.as_completed(futures):
                result = future.result()
                results[slot_of[future]] = result
                completed(result)
            return results
        except BrokenProcessPool:
            # A worker died abnormally; the pool is unusable.  Drop it so the
            # next map() call starts from a fresh spawn, then surface the
            # failure to the caller.
            self._shutdown_pool()
            raise
        except BaseException:
            # One future failed mid-gather: cancel the outstanding ones
            # before re-raising so an aborting campaign stops burning CPU on
            # shards whose results nobody will ever read.  Already-running
            # futures cannot be cancelled (stdlib semantics) -- their
            # eventual results/exceptions are consumed silently instead of
            # leaking "exception was never retrieved" noise.
            _cancel_outstanding(futures)
            raise


def _cancel_outstanding(futures: Iterable[concurrent.futures.Future]) -> None:
    """Cancel queued futures; drain running ones without surfacing results."""
    for future in futures:
        if future.done():
            # Consume a possibly-set exception so the interpreter does not
            # warn about it at garbage collection.
            try:
                future.exception(timeout=0)
            except BaseException:
                pass
        elif not future.cancel():
            future.add_done_callback(_swallow_result)


def _swallow_result(future: concurrent.futures.Future) -> None:
    try:
        future.exception(timeout=0)
    except BaseException:
        pass


def map_streaming(
    executor,
    fn: Callable[[_Item], _Result],
    items: Sequence[_Item],
    completed: CompletedCallback | None = None,
) -> list[_Result]:
    """``executor.map`` with a completion callback when the backend has one.

    Third-party executors only promise ``map(fn, items)``; both built-in
    backends additionally accept ``completed``.  This helper feature-detects
    the parameter so streaming checkpoints degrade gracefully (callback
    invoked once per result after the fact) on minimal backends.
    """
    if completed is None:
        return executor.map(fn, items)
    try:
        accepts = "completed" in inspect.signature(executor.map).parameters
    except (TypeError, ValueError):  # builtins / C callables
        accepts = False
    if accepts:
        return executor.map(fn, items, completed=completed)
    results = executor.map(fn, items)
    for result in results:
        completed(result)
    return results


def default_executor(jobs: int | None) -> SerialExecutor | ProcessPoolExecutor:
    """The executor implied by a ``--jobs`` setting: serial for 1, a pool otherwise."""
    if jobs is None or jobs <= 1:
        return SerialExecutor()
    return ProcessPoolExecutor(jobs)


__all__ = [
    "ProcessPoolExecutor",
    "SerialExecutor",
    "default_executor",
    "map_streaming",
    "worker_source",
]
