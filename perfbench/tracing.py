"""Outside-in tracing: spans around the public calls into each layer.

The wrappers live in the benchmark's own files and patch the program's
classes only for the timed phase of a traced run.  A span records the layer
name, start, end, the span that was open when it started, and an amount
(variants in a batch, whether a pass changed the function).  Spans stay in
memory until the run ends, are then written out, and are reduced to
per-layer metrics: a layer's self time is its spans' time minus the time of
the spans nested in them, and ``testing.harness.s`` is the timed phase
minus every span, so the self times and ``testing.harness.s`` add up to the
timed phase.

Only calls made in the traced process are seen: a pooled run traces its
parent side, and the per-variant layers come from the serial workloads.
Seconds are at reference host speed, like the end-to-end times.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter, defaultdict

PASSES = ("const-fold", "const-prop", "copy-prop", "cse", "dce", "licm", "simplify-cfg")


def _one(args, result) -> int:
    return 1


def _batch(args, result) -> int:
    return len(args[1])


def _changed(args, result) -> int:
    return 1 if result else 0


def _charged(args, result) -> int:
    """Failed attempts the supervisor charged to units (retries + give-ups)."""
    return sum(args[0].attempts.values())


#: Marks a wrapped method that returns an iterator: each ``next`` is a span.
_ITERATOR = object()
_RAISED = object()


def _targets() -> list[tuple[object, str, str, object]]:
    """``(owner, attribute, span name, amount)`` for every wrapped call."""
    from repro.compiler import driver
    from repro.compiler.driver import Compiler
    from repro.compiler.passes import ALL_PASSES
    from repro.core.holes import Skeleton
    from repro.core.spe import SkeletonEnumerator
    from repro.frontends.minic import MiniCFrontend
    from repro.frontends.whilelang import WhileFrontend
    from repro.lang.codegen import WhileSkeletonRunner
    from repro.lang.compile import WhileCompiler
    from repro.minic.codegen import SkeletonRunner
    from repro.store.journal import JournalWriter
    from repro.testing.executor import ProcessPoolExecutor
    from repro.testing.oracle import DifferentialOracle
    from repro.testing.supervisor import CampaignSupervisor

    targets = [
        (SkeletonEnumerator, "indexed_programs", "core.spe", _ITERATOR),
        (SkeletonEnumerator, "programs_at", "core.spe", _ITERATOR),
        (SkeletonEnumerator, "unrank", "core.spe", None),
        (Skeleton, "bind", "core.holes.bind", None),
        (SkeletonRunner, "run_batch", "minic.codegen", _batch),
        (WhileSkeletonRunner, "run_batch", "lang.codegen", _batch),
        (Compiler, "compile_variant", "compiler.driver", None),
        (Compiler, "compile_source", "compiler.driver", None),
        (driver, "lower_module", "compiler.lowering", None),
        (Compiler, "run", "compiler.vm", None),
        (WhileCompiler, "compile_variant", "lang.compile.compile", None),
        (WhileCompiler, "compile_source", "lang.compile.compile", None),
        (WhileCompiler, "run", "lang.compile.run", None),
        (DifferentialOracle, "observe_variant", "testing.oracle", None),
        (DifferentialOracle, "observe", "testing.oracle", None),
        (JournalWriter, "append_unit", "store.journal", None),
        (ProcessPoolExecutor, "submit", "testing.executor.submit", _one),
        (ProcessPoolExecutor, "preload", "testing.executor.submit", None),
        (CampaignSupervisor, "run", "testing.supervisor", _charged),
    ]
    for frontend, interp in ((MiniCFrontend, "minic.interp"), (WhileFrontend, "lang.interp")):
        targets += [
            (frontend, "extract_skeleton", "frontends.extract", None),
            (frontend, "run_reference_batch", "frontends.reference", None),
            (frontend, "run_reference_variant", interp, _one),
            # try_run_reference_source delegates here, so it needs no span.
            (frontend, "run_reference_source", interp, _one),
        ]
    for name in PASSES:
        targets.append((ALL_PASSES[name], "run", f"compiler.passes.{name}", _changed))
    return targets


class Tracer:
    """Installs the wrappers for the life of a ``with`` block."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: ``(name, start, end, parent index, amount)``; ``None`` while open.
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _traced(self, fn, name: str, amount):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = _RAISED
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                counted = amount(args, result) if amount and result is not _RAISED else 0
                spans[index] = (name, start, end, parent, counted)

        return traced

    def _wrapper(self, fn, name: str, amount):
        if amount is not _ITERATOR:
            return self._traced(fn, name, amount)

        def iterate(*args, **kwargs):
            # A callable iterator ends when the call raises StopIteration.
            return iter(self._traced(iter(fn(*args, **kwargs)).__next__, name, _one), _RAISED)

        return iterate

    def __enter__(self) -> "Tracer":
        # Pool workers forked during the run get the program unwrapped:
        # their spans could not reach this process anyway.
        os.register_at_fork(after_in_child=self.uninstall)
        try:
            for owner, attribute, name, amount in _targets():
                original = vars(owner).get(attribute)
                self._originals.append((owner, attribute, original))
                setattr(owner, attribute, self._wrapper(getattr(owner, attribute), name, amount))
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def uninstall(self) -> None:
        """Put back every original attribute; a no-op once done."""
        while self._originals:
            owner, attribute, original = self._originals.pop()
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def dump(self, path) -> None:
        """Write the spans out, one JSON row each after a header of names."""
        names: dict[str, int] = {}
        rows = [
            json.dumps([names.setdefault(name, len(names)), *rest]) for name, *rest in self.spans
        ]
        with open(path, "w") as handle:
            handle.write(json.dumps({"run_id": self.run_id, "names": list(names)}) + "\n")
            handle.write("\n".join(rows))


def wrapped_attributes() -> dict[tuple[object, str], object]:
    """The current value of every attribute the tracer patches."""
    return {(owner, attribute): vars(owner).get(attribute) for owner, attribute, _, _ in _targets()}


def load_spans(path) -> list[tuple]:
    """The spans :meth:`Tracer.dump` wrote, with their layer names."""
    with open(path) as handle:
        names = json.loads(handle.readline())["names"]
        return [(names[row[0]], *row[1:]) for row in map(json.loads, handle)]


def self_times(spans) -> tuple[dict[str, float], Counter, Counter]:
    """Per-layer self seconds, call counts and summed amounts."""
    seconds: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    amounts: Counter = Counter()
    for name, start, end, parent, amount in spans:
        duration = end - start
        seconds[name] += duration
        if parent >= 0:
            seconds[spans[parent][0]] -= duration
        calls[name] += 1
        amounts[name] += amount
    return seconds, calls, amounts


def _per_layer_metrics() -> list[tuple[str, str, str]]:
    metrics = [
        ("core.spe.s", "s", "lower"),
        ("core.spe.variants", "count", "higher"),
        ("core.holes.bind.s", "s", "lower"),
        ("core.holes.bind.calls", "count", "lower"),
        ("frontends.extract.s", "s", "lower"),
        ("frontends.extract.calls", "count", "lower"),
        ("frontends.reference.s", "s", "lower"),
        ("frontends.reference.codegen_share", "ratio", "higher"),
        ("minic.codegen.s", "s", "lower"),
        ("minic.codegen.variants", "count", "higher"),
        ("minic.interp.s", "s", "lower"),
        ("minic.interp.variants", "count", "lower"),
        ("compiler.driver.s", "s", "lower"),
        ("compiler.driver.calls", "count", "lower"),
        ("compiler.lowering.s", "s", "lower"),
        ("compiler.lowering.calls", "count", "lower"),
    ]
    for name in PASSES:
        metrics += [
            (f"compiler.passes.{name}.s", "s", "lower"),
            (f"compiler.passes.{name}.calls", "count", "lower"),
            (f"compiler.passes.{name}.changed", "count", "higher"),
        ]
    metrics += [
        ("compiler.vm.s", "s", "lower"),
        ("compiler.vm.runs", "count", "lower"),
        ("lang.codegen.s", "s", "lower"),
        ("lang.codegen.variants", "count", "higher"),
        ("lang.interp.s", "s", "lower"),
        ("lang.interp.variants", "count", "lower"),
        ("lang.compile.compile.s", "s", "lower"),
        ("lang.compile.compile.calls", "count", "lower"),
        ("lang.compile.run.s", "s", "lower"),
        ("lang.compile.run.calls", "count", "lower"),
        ("testing.oracle.s", "s", "lower"),
        ("testing.oracle.observations", "count", "higher"),
        ("testing.harness.s", "s", "lower"),
    ]
    for prefix, cache in (
        ("testing.oracle", "module"),
        ("testing.harness", "reference"),
        ("compiler.driver", "pipeline"),
    ):
        metrics += [
            (f"{prefix}.{cache}_hit_rate", "ratio", "higher"),
            (f"{prefix}.{cache}_hits", "count", "higher"),
            (f"{prefix}.{cache}_misses", "count", "lower"),
        ]
    metrics += [
        ("store.journal.s", "s", "lower"),
        ("store.journal.units", "count", "higher"),
        ("store.journal.bytes", "B", "lower"),
        ("testing.executor.tasks", "count", "lower"),
        ("testing.executor.submit.s", "s", "lower"),
        ("testing.executor.busy_share", "ratio", "higher"),
        ("testing.supervisor.s", "s", "lower"),
        ("testing.supervisor.retries", "count", "lower"),
        ("testing.supervisor.quarantined", "count", "lower"),
        ("setup.import_s", "s", "lower"),
        ("corpus.build_s", "s", "lower"),
        ("testing.harness.init_s", "s", "lower"),
        ("run.off_cpu_share", "ratio", "lower"),
        ("run.host_slowdown", "ratio", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return metrics


#: ``(metric, unit, better)`` for every per-layer metric, in report order.
PER_LAYER = _per_layer_metrics()
#: Span names, each reported as ``<name>.s`` with its self time.
_TIMED_LAYERS = tuple(
    name[: -len(".s")]
    for name, _, _ in PER_LAYER
    if name.endswith(".s") and name != "testing.harness.s"
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def off_cpu_share(runs: list[dict]) -> float:
    """1 - CPU / (jobs x wall) over the timed phases of ``runs``."""
    cpu = sum(run["timed"]["cpu_s"] for run in runs)
    capacity = sum(run["timed"]["wall_s"] * run["jobs"] for run in runs)
    return 1.0 - _ratio(cpu, capacity)


def layer_values(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer metric values from traced runs and their untraced twins.

    Each traced run carries its loaded ``spans``; seconds and counts are
    summed over the runs, and ratios are taken of the sums.
    """
    seconds: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    amounts: Counter = Counter()
    cache: Counter = Counter()
    values: dict[str, float] = {}
    timed = sum(run["timed"]["wall_s"] / run["host_slowdown"] for run in traced)
    for run in traced:
        run_seconds, run_calls, run_amounts = self_times(run["spans"])
        for name, value in run_seconds.items():
            seconds[name] += value / run["host_slowdown"]
        calls.update(run_calls)
        amounts.update(run_amounts)
        cache.update(run["cache_stats"])
    unknown = set(seconds) - set(_TIMED_LAYERS)
    if unknown:
        raise ValueError(f"spans with no per-layer metric: {sorted(unknown)}")
    for name in _TIMED_LAYERS:
        values[f"{name}.s"] = seconds[name]
    values["testing.harness.s"] = timed - sum(seconds.values())

    values["core.spe.variants"] = amounts["core.spe"]
    for name in ("core.holes.bind", "frontends.extract", "compiler.driver", "compiler.lowering"):
        values[f"{name}.calls"] = calls[name]
    for name in ("minic.codegen", "minic.interp", "lang.codegen", "lang.interp"):
        values[f"{name}.variants"] = amounts[name]
    generated = amounts["minic.codegen"] + amounts["lang.codegen"]
    values["frontends.reference.codegen_share"] = _ratio(
        generated, generated + amounts["minic.interp"] + amounts["lang.interp"]
    )
    for name in PASSES:
        values[f"compiler.passes.{name}.calls"] = calls[f"compiler.passes.{name}"]
        values[f"compiler.passes.{name}.changed"] = amounts[f"compiler.passes.{name}"]
    values["compiler.vm.runs"] = calls["compiler.vm"]
    values["lang.compile.compile.calls"] = calls["lang.compile.compile"]
    values["lang.compile.run.calls"] = calls["lang.compile.run"]
    values["testing.oracle.observations"] = calls["testing.oracle"]

    for prefix, key in (
        ("testing.oracle", "module"),
        ("testing.harness", "reference"),
        ("compiler.driver", "pipeline"),
    ):
        hits, misses = cache[f"{key}_hits"], cache[f"{key}_misses"]
        values[f"{prefix}.{key}_hits"] = hits
        values[f"{prefix}.{key}_misses"] = misses
        values[f"{prefix}.{key}_hit_rate"] = _ratio(hits, hits + misses)

    values["store.journal.units"] = sum(run["journal"]["units"] for run in traced)
    values["store.journal.bytes"] = sum(run["journal"]["bytes"] for run in traced)
    values["testing.executor.tasks"] = amounts["testing.executor.submit"]
    values["testing.executor.busy_share"] = _ratio(
        sum(run["timed"]["workers_cpu_s"] for run in untraced),
        sum(run["timed"]["wall_s"] * run["jobs"] for run in untraced if run["jobs"] > 1),
    )
    quarantined = sum(run["outputs"]["quarantined_units"] for run in traced)
    # Every charged failure is followed by a retry, except a unit's last.
    values["testing.supervisor.retries"] = amounts["testing.supervisor"] - quarantined
    values["testing.supervisor.quarantined"] = quarantined
    for key, metric in (
        ("import_s", "setup.import_s"),
        ("corpus_s", "corpus.build_s"),
        ("init_s", "testing.harness.init_s"),
    ):
        values[metric] = statistics.median(
            run["setup"][key] / run["host_slowdown"] for run in untraced
        )
    values["run.off_cpu_share"] = off_cpu_share(untraced)
    values["run.host_slowdown"] = statistics.median(run["host_slowdown"] for run in untraced)
    values["trace.overhead_pct"] = 100.0 * (
        _ratio(timed, sum(run["timed"]["wall_s"] / run["host_slowdown"] for run in untraced)) - 1.0
    )
    return values
