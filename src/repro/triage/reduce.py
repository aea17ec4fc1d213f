"""Chunked ddmin reduction over frontend deletion-candidate hooks.

The triage engine's reducer.  Where the legacy per-language reducers delete
one statement at a time and restart from scratch after every success (an
O(n^2) predicate-evaluation scan), this module runs Zeller-style delta
debugging (*ddmin*) over the indexed deletion candidates a frontend exposes
(:meth:`repro.frontends.base.Frontend.deletion_candidates` /
:meth:`~repro.frontends.base.Frontend.delete_candidates`):

1. partition the current program's candidate indices into ``k`` chunks;
2. **reduce to subset** -- try keeping only one chunk (deleting the whole
   complement), the big win early in a reduction;
3. **reduce to complement** -- try deleting one chunk at a time;
4. on success restart from the smaller program at coarse granularity, on
   failure double ``k`` until it reaches single-element granularity.

Every candidate program is validated by the frontend *before* the predicate
runs (invalid deletions are free), predicate results are cached by source
hash (:class:`PredicateCache`) so no program is ever evaluated twice across
reduction rounds -- or across the bisection that follows -- and each round's
candidate batch can be evaluated in parallel on any
:mod:`repro.testing.executor` backend (the predicate must then be picklable;
:class:`repro.triage.predicate.BugPredicate` is).

Frontends that do not implement the hooks (``deletion_candidates() == 0``)
fall back to their own :meth:`Frontend.reduce`, still predicate-cached, so
``reduce()`` is safe to call for every registered language.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.frontends import Frontend, get_frontend
from repro.testing.executor import SerialExecutor

Predicate = Callable[[str], bool]


@dataclass
class ReductionStats:
    """Bookkeeping of one reduction (the triage benchmark's raw material)."""

    predicate_evaluations: int = 0
    cache_hits: int = 0
    invalid_candidates: int = 0
    rounds: int = 0
    initial_bytes: int = 0
    final_bytes: int = 0


@dataclass
class ReductionOutcome:
    """A reduced program plus how much work finding it took."""

    source: str
    stats: ReductionStats

    @property
    def reduced(self) -> bool:
        return self.stats.final_bytes < self.stats.initial_bytes


class PredicateCache:
    """Predicate results keyed by (predicate identity, source hash).

    The contract: a predicate presenting the same ``cache_tag`` must be a
    pure function of the source text, so a cached verdict substitutes for an
    evaluation anywhere in the triage pipeline -- across ddmin rounds,
    between reduction and bisection, and across the bugs of one campaign
    (different bugs carry different tags, so entries never collide).
    Predicates without a ``cache_tag`` (plain callables in tests) key by
    object identity, which still deduplicates within one reduction.
    """

    def __init__(self) -> None:
        self._verdicts: dict[tuple, bool] = {}
        self.hits = 0

    @staticmethod
    def _key(predicate, source: str) -> tuple:
        tag = getattr(predicate, "cache_tag", None)
        if tag is None:
            tag = id(predicate)
        return (tag, hashlib.sha256(source.encode()).hexdigest())

    def get(self, predicate, source: str) -> bool | None:
        verdict = self._verdicts.get(self._key(predicate, source))
        if verdict is not None:
            self.hits += 1
        return verdict

    def put(self, predicate, source: str, verdict: bool) -> None:
        self._verdicts[self._key(predicate, source)] = verdict

    def __len__(self) -> int:
        return len(self._verdicts)


class _Evaluator:
    """Cached, optionally parallel predicate evaluation."""

    def __init__(
        self,
        predicate: Predicate,
        cache: PredicateCache,
        stats: ReductionStats,
        executor=None,
    ) -> None:
        self.predicate = predicate
        self.cache = cache
        self.stats = stats
        self.executor = executor
        self._parallel = executor is not None and not isinstance(executor, SerialExecutor)

    def check(self, source: str) -> bool:
        cached = self.cache.get(self.predicate, source)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        verdict = bool(self.predicate(source))
        self.stats.predicate_evaluations += 1
        self.cache.put(self.predicate, source, verdict)
        return verdict

    def first_passing(self, candidates: Sequence[str | None]) -> str | None:
        """The first candidate satisfying the predicate, deterministically.

        ``None`` entries (invalid deletions) are free failures.  On a serial
        backend candidates are checked lazily in order (short-circuiting on
        the first pass); on a parallel backend the whole uncached batch is
        evaluated at once -- more predicate evaluations, less wall clock --
        and the winner is still the first passing candidate in batch order,
        so both modes reduce to the same program.
        """
        ordered: list[str] = []
        seen: set[str] = set()
        for candidate in candidates:
            if candidate is None:
                self.stats.invalid_candidates += 1
                continue
            if candidate in seen:
                continue
            seen.add(candidate)
            ordered.append(candidate)
        if not ordered:
            return None
        if self._parallel:
            verdicts: dict[str, bool] = {}
            unknown: list[str] = []
            for candidate in ordered:
                cached = self.cache.get(self.predicate, candidate)
                if cached is None:
                    unknown.append(candidate)
                else:
                    verdicts[candidate] = cached
                    self.stats.cache_hits += 1
            if unknown:
                results = self.executor.map(self.predicate, unknown)
                self.stats.predicate_evaluations += len(unknown)
                for candidate, verdict in zip(unknown, results):
                    verdicts[candidate] = bool(verdict)
                    self.cache.put(self.predicate, candidate, bool(verdict))
            for candidate in ordered:
                if verdicts[candidate]:
                    return candidate
            return None
        for candidate in ordered:
            if self.check(candidate):
                return candidate
        return None


def _chunks(count: int, parts: int) -> list[list[int]]:
    """Partition ``range(count)`` into ``parts`` near-equal contiguous chunks."""
    parts = max(1, min(parts, count))
    size, extra = divmod(count, parts)
    chunks: list[list[int]] = []
    start = 0
    for index in range(parts):
        stop = start + size + (1 if index < extra else 0)
        chunks.append(list(range(start, stop)))
        start = stop
    return chunks


def ddmin_reduce(
    frontend: str | Frontend,
    source: str,
    predicate: Predicate,
    *,
    executor=None,
    cache: PredicateCache | None = None,
    max_rounds: int = 200,
) -> ReductionOutcome:
    """Minimise ``source`` while ``predicate`` holds, ddmin-style.

    Returns the input unchanged (with zero-progress stats) when the
    predicate does not hold on it.  ``cache`` may be shared across calls --
    and with :func:`repro.triage.bisect.bisect_report` -- to pool predicate
    verdicts for one campaign's triage pass.
    """
    frontend = get_frontend(frontend)
    cache = cache if cache is not None else PredicateCache()
    stats = ReductionStats(initial_bytes=len(source), final_bytes=len(source))
    evaluator = _Evaluator(predicate, cache, stats, executor=executor)

    if not evaluator.check(source):
        return ReductionOutcome(source=source, stats=stats)

    count = frontend.deletion_candidates(source)
    if count == 0:
        # The frontend opted out of chunked ddmin (or the program exposes
        # nothing deletable): run its own reducer, still predicate-cached.
        reduced = frontend.reduce(source, evaluator.check)
        stats.final_bytes = len(reduced)
        return ReductionOutcome(source=reduced, stats=stats)

    current = source
    granularity = min(2, count)
    while count >= 1 and stats.rounds < max_rounds:
        stats.rounds += 1
        chunks = _chunks(count, granularity)
        indices = set(range(count))

        # Reduce to subset: keep one chunk, delete everything else.  Only
        # meaningful at granularity >= 2 (keeping the single chunk of a
        # 1-chunk partition deletes nothing).
        winner = None
        if len(chunks) >= 2:
            winner = evaluator.first_passing(
                [
                    frontend.delete_candidates(current, sorted(indices - set(chunk)))
                    for chunk in chunks
                ]
            )
            if winner is not None:
                current = winner
                count = frontend.deletion_candidates(current)
                granularity = min(2, count)
                continue

        # Reduce to complement: delete one chunk at a time.
        winner = evaluator.first_passing(
            [frontend.delete_candidates(current, chunk) for chunk in chunks]
        )
        if winner is not None:
            current = winner
            count = frontend.deletion_candidates(current)
            granularity = max(min(granularity - 1, count), min(2, count))
            continue

        if granularity >= count:
            break
        granularity = min(granularity * 2, count)

    stats.final_bytes = len(current)
    return ReductionOutcome(source=current, stats=stats)


__all__ = [
    "PredicateCache",
    "ReductionOutcome",
    "ReductionStats",
    "ddmin_reduce",
]
