"""Coverage measurement (the Figure 9 metric).

The paper measures GCC/Clang function and line coverage with gcov while
compiling a fixed set of test programs, then reports the *improvement* that
SPE variants (or Orion-style mutants) add on top of the baseline programs.

Our compiler's analogue: the set of distinct pass events recorded by
:class:`repro.compiler.passes.CoverageRecorder` plays the role of "functions"
(coarse units), and the multiset of (event, count-bucket) pairs plays the
role of "lines" (finer units).  Both are monotone under adding programs, so
"improvement over baseline" is well defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.compiler.driver import Compiler
from repro.compiler.pipeline import OptimizationLevel


@dataclass
class CoverageReport:
    """Coverage accumulated over a set of programs for one compiler config."""

    function_events: set[str] = field(default_factory=set)
    line_events: set[tuple[str, int]] = field(default_factory=set)

    @property
    def function_coverage(self) -> int:
        return len(self.function_events)

    @property
    def line_coverage(self) -> int:
        return len(self.line_events)

    def merge(self, other: "CoverageReport") -> None:
        self.function_events |= other.function_events
        self.line_events |= other.line_events

    def improvement_over(self, baseline: "CoverageReport") -> dict[str, float]:
        """Percentage improvement of this report relative to ``baseline``.

        An empty baseline cannot be improved *relatively*: any nonzero
        coverage on top of zero is reported as ``float("inf")`` (the
        documented sentinel -- the historical 0.0 silently understated a
        strict improvement), and only zero-over-zero is 0.0.  Renderers
        display the sentinel as ``inf`` (see the Figure 9 table).
        """

        def percent(new: int, base: int) -> float:
            if base == 0:
                return float("inf") if new > 0 else 0.0
            return 100.0 * (new - base) / base

        combined = CoverageReport(
            function_events=set(baseline.function_events),
            line_events=set(baseline.line_events),
        )
        combined.merge(self)
        return {
            "function": percent(combined.function_coverage, baseline.function_coverage),
            "line": percent(combined.line_coverage, baseline.line_coverage),
        }


@dataclass
class CoverageMeter:
    """Compile programs and accumulate pass-event coverage."""

    version: str = "reference"
    opt_level: OptimizationLevel | int = OptimizationLevel.O2

    def __post_init__(self) -> None:
        self.opt_level = OptimizationLevel(int(self.opt_level))
        self._compiler = Compiler(self.version, self.opt_level)

    def measure(self, programs: Iterable[str]) -> CoverageReport:
        """Compile every program and return the union of the coverage it exercised."""
        report = CoverageReport()
        for index, source in enumerate(programs):
            outcome = self._compiler.compile_source(source, name=f"coverage-{index}")
            if outcome.crashed or outcome.rejected:
                continue
            report.function_events |= set(outcome.coverage.events)
            for event, count in outcome.coverage.counts.items():
                report.line_events.add((event, _bucket(count)))
        return report


def _bucket(count: int) -> int:
    """Bucket an event count logarithmically so 'line' coverage stays bounded."""
    bucket = 0
    while count > 0:
        count //= 2
        bucket += 1
    return bucket


__all__ = ["CoverageMeter", "CoverageReport"]
