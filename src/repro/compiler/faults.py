"""Seeded compiler faults.

The paper's evaluation observes real latent bugs in GCC/Clang.  To reproduce
the *shape* of that evaluation offline, our compiler versions carry seeded
faults: precisely-triggered deviations inside specific passes (or the
frontend) that either raise an :class:`~repro.compiler.errors.InternalCompilerError`
(a crash bug), silently produce wrong IR (a wrong-code bug), or blow up
compile time (a performance bug).

Each fault carries the metadata Figure 10 aggregates: the affected component,
a priority, the optimization levels at which it can fire and the version
range in which it is present.  The catalogue itself lives in
:mod:`repro.compiler.versions`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.compiler.errors import InternalCompilerError


class FaultKind(enum.Enum):
    """The observable class of a seeded bug (Table 4's classification)."""

    CRASH = "crash"
    WRONG_CODE = "wrong code"
    PERFORMANCE = "performance"
    #: A pass leaves structurally broken IR behind without crashing or (yet)
    #: changing behaviour -- only the between-pass verifier
    #: (:mod:`repro.compiler.verify`) can observe it, under the campaign's
    #: ``verify_ir`` policy.
    ILL_FORMED_IR = "ill-formed ir"


@dataclass(frozen=True)
class Fault:
    """One seeded bug."""

    id: str
    component: str
    kind: FaultKind
    description: str
    priority: str = "P3"
    min_opt_level: int = 0
    introduced_in: str = ""
    fixed_in: str | None = None
    crash_signature: str = ""
    #: For :attr:`FaultKind.ILL_FORMED_IR` faults: the pipeline pass whose
    #: output the corruption appears in.  The driver's between-pass verifier
    #: uses it to mark the fault triggered when a violation surfaces after
    #: that pass (the fault itself stays silent so that campaigns with
    #: verification off remain byte-identical to the pre-verifier behaviour).
    pass_name: str = ""

    def active_at(self, opt_level: int) -> bool:
        return opt_level >= self.min_opt_level


@dataclass
class FaultSet:
    """The faults enabled for one compiler version at one optimization level.

    Code that a seeded fault can change asks :meth:`active` at the decision
    the fault changes, and nowhere else.  While ``transcript`` is a dict,
    every answer is recorded in it by fault id; a pass-pipeline run's
    transcript is then everything the run learnt about its version, which
    is what lets :class:`repro.compiler.driver.PipelineCache` reuse the run
    for any fault set that :meth:`answers` it the same way.
    """

    faults: dict[str, Fault] = field(default_factory=dict)
    opt_level: int = 0
    triggered: list[str] = field(default_factory=list)
    transcript: dict[str, bool] | None = None

    @staticmethod
    def of(faults: list[Fault], opt_level: int = 0) -> "FaultSet":
        return FaultSet(faults={fault.id: fault for fault in faults}, opt_level=opt_level)

    def active(self, fault_id: str) -> bool:
        """Whether the fault is present and armed at the current opt level."""
        answer = self._armed(fault_id)
        if self.transcript is not None:
            self.transcript[fault_id] = answer
        return answer

    def answers(self, transcript: tuple[tuple[str, bool], ...]) -> bool:
        """Whether :meth:`active` gives every ``(fault id, answer)`` of a
        recorded transcript (without recording anything itself)."""
        return all(self._armed(fault_id) == answer for fault_id, answer in transcript)

    def _armed(self, fault_id: str) -> bool:
        fault = self.faults.get(fault_id)
        return fault is not None and fault.active_at(self.opt_level)

    def get(self, fault_id: str) -> Fault | None:
        return self.faults.get(fault_id)

    def trigger(self, fault_id: str) -> Fault:
        """Mark a fault as triggered (for wrong-code/performance bugs) and return it."""
        fault = self.faults[fault_id]
        self.triggered.append(fault_id)
        return fault

    def crash(self, fault_id: str, detail: str = "") -> None:
        """Raise the crash corresponding to ``fault_id`` (must be active).

        The only reader of a fault's definition: the signature and
        component come from this set's own lineage, so a crash recorded as
        ``(fault id, detail)`` re-raises here in the asking version's words.
        """
        fault = self.trigger(fault_id)
        message = fault.crash_signature or fault.description
        if detail:
            message = f"{message} ({detail})"
        raise InternalCompilerError(
            message, component=fault.component, fault_id=fault.id, detail=detail
        )


__all__ = ["Fault", "FaultKind", "FaultSet"]
