"""Tests of the benchmark's own code.

They run tiny probe campaigns, never a benchmark workload: the workloads
run on demand through ``run.py`` and take tens of seconds each.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import child
import run
import tracing
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent

PROBES = [
    Workload(name="probe-minic", why="", language="minic", files=16, variants=4),
    Workload(name="probe-while", why="", language="while", files=8, sample=5),
]


def _traced(workload: Workload, tmp_path: Path) -> dict:
    summary = child.measure(workload, 7, str(tmp_path / "state"), str(tmp_path / "spans.jsonl"))
    summary["spans"] = tracing.load_spans(summary["spans_path"])
    return summary


@pytest.mark.parametrize("workload", PROBES, ids=lambda workload: workload.name)
def test_self_times_and_harness_time_add_up_to_the_timed_phase(workload, tmp_path):
    summary = _traced(workload, tmp_path)
    values = tracing.layer_values([summary], [summary])
    timed = summary["timed"]["wall_s"] / summary["host_slowdown"]
    layers = {name: value for name, value in values.items() if name.endswith(".s")}
    assert min(layers.values()) > -1e-9  # no span outlives the span that encloses it
    assert 0 < values["testing.harness.s"] < timed
    assert sum(layers.values()) == pytest.approx(timed, rel=1e-9)
    # The spans count the same work the program's own counters do.
    variants = summary["outputs"]["variants"]
    assert values["core.spe.variants"] == variants
    assert values["testing.oracle.observations"] == variants * summary["outputs"]["matrix"]
    tiers = ("minic.codegen", "minic.interp", "lang.codegen", "lang.interp")
    reference_runs = sum(values[f"{tier}.variants"] for tier in tiers)
    assert reference_runs == values["testing.harness.reference_misses"]
    assert values["store.journal.units"] > 0


def test_wrappers_are_gone_after_a_traced_run(tmp_path):
    before = tracing.wrapped_attributes()
    summary = _traced(PROBES[0], tmp_path)
    assert {span[0] for span in summary["spans"]} >= {"compiler.vm", "minic.codegen", "store.journal"}
    after = tracing.wrapped_attributes()
    assert all(after[key] is value for key, value in before.items())

    with pytest.raises(RuntimeError):
        with tracing.Tracer("raises"):
            raise RuntimeError("the traced phase failed")
    after = tracing.wrapped_attributes()
    assert all(after[key] is value for key, value in before.items())


def test_a_perturbed_pin_fails_every_variant(tmp_path):
    workload = PROBES[1]
    summary = child.measure(workload, 7, str(tmp_path / "state"))
    outputs = summary["outputs"]
    pin = {key: outputs[key] for key in ("variants", "observations", "bugs")}
    assert run.account([summary], {"7": pin}) == (True, outputs["variants"], 0)
    assert run.account([summary], {}) == (True, outputs["variants"], 0)

    kind = next(iter(outputs["observations"]))
    for perturbed in (
        {**pin, "variants": pin["variants"] + 1},
        {**pin, "observations": {**pin["observations"], kind: pin["observations"][kind] + 1}},
        {**pin, "bugs": sorted(pin["bugs"] + ["b00000000000"])},
    ):
        assert run.account([summary], {"7": perturbed}) == (False, outputs["variants"], outputs["variants"])

    aborted = {**summary, "aborted": "unit raised", "planned": 40}
    del aborted["outputs"]
    assert run.account([aborted, summary], {}) == (False, 40 + outputs["variants"], 40 + outputs["variants"])


def test_no_workload_runs_under_pytest_collection():
    assert not {probe.name for probe in PROBES} & set(WORKLOADS)
    collected = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", str(HERE)],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert collected.returncode == 0, collected.stdout + collected.stderr
    files = {line.split("::")[0] for line in collected.stdout.splitlines() if "::" in line}
    assert [Path(name).name for name in files] == ["test_perfbench.py"]
