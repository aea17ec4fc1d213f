"""The benchmark's workloads and the check of each run's outputs.

Every workload is the ``Campaign.run_sources`` call that ``repro campaign``
makes on a frontend's generated corpus.  One benchmark run spans
``SUBCORPORA`` corpora drawn from its seed, each tested in its own fresh
interpreter: the per-variant cost of a campaign depends on which generated
files a corpus holds, and three draws per run keep that dependence from
setting the figure.  The first corpus of a run is always the one
``repro campaign --seed SEED`` builds.

This module imports nothing from ``repro``, so the parent process that
orchestrates a run stays light.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 2017
#: Corpora per run, each tested in its own fresh process.
SUBCORPORA = 3
#: Distance between the corpus seeds of one run; large, so the corpora of
#: runs made with nearby seeds never coincide.
SUBCORPUS_STRIDE = 100_003


@dataclass(frozen=True)
class Workload:
    """One campaign shape.

    ``variants`` is the per-file prefix (the CLI's ``--variants``) and
    ``sample`` the per-file uniform sample (``--sample``); exactly one is
    set.  ``pins`` names the workload whose pinned outputs this one must
    reproduce.
    """

    name: str
    why: str
    language: str
    files: int
    variants: int | None = None
    sample: int | None = None
    jobs: int = 1
    supervised: bool = False
    pins: str = ""

    def corpus_seeds(self, seed: int) -> list[int]:
        return [seed + index * SUBCORPUS_STRIDE for index in range(SUBCORPORA)]

    @property
    def pin_source(self) -> str:
        return self.pins or self.name


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="minic-campaign",
            why=(
                "mini-C prefix campaign, serial and journaled: the headline language, "
                "whose time goes to the IR VM, the passes and the reference tiers"
            ),
            language="minic",
            files=160,
            variants=16,
        ),
        Workload(
            name="while-campaign",
            why=(
                "WHILE sampled campaign, serial and journaled: bypasses every mini-C and "
                "IR layer, runs random-access unrank, weighs per-variant harness cost most"
            ),
            language="while",
            files=40,
            sample=60,
        ),
        Workload(
            name="minic-pooled",
            why=(
                "minic-campaign on 2 supervised pool workers: the --jobs scaling point and "
                "the only workload that runs testing.executor and testing.supervisor"
            ),
            language="minic",
            files=160,
            variants=16,
            jobs=2,
            supervised=True,
            pins="minic-campaign",
        ),
    )
}


def check_outputs(outputs: dict, pinned: dict | None) -> list[str]:
    """Problems with one campaign's outputs; empty when they are right.

    Every seed gets the structural checks: one observation per variant and
    matrix cell, and no quarantined unit.  A corpus with pinned values
    must also reproduce the variants tested, the observation histogram and
    the sorted bug ids exactly.
    """
    problems = []
    if outputs["quarantined_units"]:
        problems.append(f"{outputs['quarantined_units']} units quarantined")
    expected = outputs["variants"] * outputs["matrix"]
    observed = sum(outputs["observations"].values())
    if observed != expected:
        problems.append(f"{observed} observations for {expected} variant x configuration cells")
    if pinned is not None:
        for key in ("variants", "observations", "bugs"):
            if outputs[key] != pinned[key]:
                problems.append(f"{key} {outputs[key]!r} != pinned {pinned[key]!r}")
    return problems
