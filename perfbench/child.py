"""One measured campaign run, in the fresh interpreter it was started in.

``run.py`` starts this script once per corpus; it prints one JSON object
with the run's set-up and timed-phase clocks, peak RSS, the host slowdown
its calibration passes measured, cache counters and the outputs that
``workloads.check_outputs`` checks.  Run by hand, it shows
the values to pin for a corpus::

    PYTHONPATH=src python3 perfbench/child.py --workload minic-campaign \\
        --corpus-seed 2017 --state-dir /tmp/state

Set-up (imports, corpus generation, ``Campaign`` construction) is taken on
the process CPU clock from interpreter start; the timed phase is the
``Campaign.run_sources`` call, on the wall clock and on the CPU clock of
this process plus its reaped pool workers.
"""

from __future__ import annotations

import time  # first: the set-up clock reads below count every import after it

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

from repro.frontends import get_frontend
from repro.store import CampaignStore
from repro.testing.harness import Campaign, CampaignConfig, UnitExecutionError

from tracing import Tracer
from workloads import WORKLOADS, Workload

IMPORTED_CPU_S = time.process_time()

#: Per-unit deadline of the supervised workload: far above any unit's run
#: time, so it only fires on a genuine hang.
UNIT_TIMEOUT_S = 120.0
#: CPU seconds of one ``calibration_pass`` on the reference host (a 2-vCPU
#: Xeon VM, Python 3.11.7); ``host_slowdown`` is measured against it.
REFERENCE_PASS_S = 0.04
CALIBRATION_PASSES = 3


def calibration_pass() -> float:
    """CPU seconds of a fixed pass of plain interpreter work.

    The host's speed drifts by up to a third within minutes as other
    tenants load it, and every timing moves with it.  Passes run just
    before and after the timed phase, in the same process, so their time
    measures the speed the run got; the pass touches no ``repro`` code, so
    no change to the program moves it, and it holds only a few kilobytes,
    so it does not move the process's peak RSS either.
    """
    started = time.process_time()
    table: dict[int, str] = {}
    for number in range(60_000):
        key = (number * 7919) % 1009
        table[key] = str(number) + table.get(key, "")[:8]
    sorted(table.items())

    def walk(depth: int) -> int:
        return 1 if depth == 0 else walk(depth - 1) + walk(depth - 1)

    walk(14)
    return time.process_time() - started


def campaign_config(workload: Workload, corpus_seed: int, state_dir: str) -> CampaignConfig:
    """The config ``repro campaign`` builds for this workload's flags."""
    extra = {}
    if workload.supervised:
        extra = {"unit_timeout": UNIT_TIMEOUT_S, "on_fault": "quarantine"}
    return CampaignConfig(
        frontend=workload.language,
        max_variants_per_file=workload.variants,
        sample_per_file=workload.sample,
        sample_seed=corpus_seed,
        jobs=workload.jobs,
        state_dir=state_dir,
        **extra,
    )


def _cpu_s() -> float:
    """CPU seconds of this process and of every child it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def measure(
    workload: Workload, corpus_seed: int, state_dir: str, spans_path: str | None = None
) -> dict:
    """Set up and run one campaign; traced when ``spans_path`` is given."""
    started = time.process_time()
    corpus = get_frontend(workload.language).build_corpus(files=workload.files, seed=corpus_seed)
    built = time.process_time()
    config = campaign_config(workload, corpus_seed, state_dir)
    campaign = Campaign(config)
    ready = time.process_time()

    passes = [calibration_pass() for _ in range(CALIBRATION_PASSES)]
    tracer = Tracer(f"{workload.name}:{corpus_seed}:{os.getpid()}") if spans_path else None
    aborted = None
    workers_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_before = _cpu_s()
    wall_before = time.perf_counter()
    try:
        if tracer is None:
            result = campaign.run_sources(corpus)
        else:
            with tracer:
                result = campaign.run_sources(corpus)
    except UnitExecutionError as error:
        # A unit raised and the unsupervised campaign stopped: the whole
        # run is lost, so every planned variant counts as failed.
        aborted = str(error)
    wall = time.perf_counter() - wall_before
    cpu = _cpu_s() - cpu_before
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    peak_rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, workers.ru_maxrss)
    passes += [calibration_pass() for _ in range(CALIBRATION_PASSES)]

    summary = {
        "workload": workload.name,
        "corpus_seed": corpus_seed,
        "jobs": workload.jobs,
        "setup": {
            "import_s": IMPORTED_CPU_S,
            "corpus_s": built - started,
            "init_s": ready - built,
            "total_s": ready,
        },
        "timed": {
            "wall_s": wall,
            "cpu_s": cpu,
            "workers_cpu_s": (workers.ru_utime + workers.ru_stime)
            - (workers_before.ru_utime + workers_before.ru_stime),
        },
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "host_slowdown": statistics.median(passes) / REFERENCE_PASS_S,
    }
    if aborted is not None:
        summary["aborted"] = aborted
        summary["planned"] = Campaign(config).plan(corpus).num_variants()
        return summary

    quarantined_variants = sum(
        len(record.indices) if record.indices is not None else record.stop - record.start
        for record in result.quarantined
    )
    summary["outputs"] = {
        "variants": result.variants_tested,
        "observations": dict(sorted(result.observations.items())),
        "bugs": sorted(report.id for report in result.bugs.reports),
        "matrix": len(config.oracles()),
        "quarantined_units": len(result.quarantined),
        "quarantined_variants": quarantined_variants,
    }
    summary["cache_stats"] = dict(result.cache_stats)
    journal = Path(state_dir) / CampaignStore.JOURNAL_NAME
    with journal.open() as handle:
        units = sum(1 for line in handle if json.loads(line)["type"] == "unit")
    summary["journal"] = {"units": units, "bytes": journal.stat().st_size}
    if tracer is not None:
        tracer.dump(spans_path)
        summary["spans_path"] = spans_path
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--corpus-seed", type=int, required=True)
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--spans", help="trace the timed phase and write its spans here")
    args = parser.parse_args(argv)
    summary = measure(WORKLOADS[args.workload], args.corpus_seed, args.state_dir, args.spans)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
