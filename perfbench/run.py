"""Campaign benchmark: end-to-end and per-layer numbers for ``repro`` campaigns.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload minic-campaign [--seed 2017]
        [--seconds 40] [--trace 0|1]

A run tests the workload's corpora (see ``workloads.py``), each in a fresh
interpreter started from ``child.py``, in rounds: one per ``ROUND_S`` of
``--seconds`` and at least two; a round takes about ``ROUND_S`` on a
2-vCPU host.  The last line of standard output is one JSON object with
``correct``, ``attempted`` (planned variants), ``failed`` and ``metrics``:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of ``tracing.py``, taken from one traced and one
untraced process per corpus.  Times are reported at reference host speed:
each process divides its times by the slowdown its calibration passes
measured (``child.calibration_pass``).  Every run's outputs are checked,
against ``pins.json`` for the corpora pinned there and structurally for
the rest; if any check fails, every variant of the run counts as failed.
A diagnostic line per process goes to standard error.

The benchmark reads and writes only inside the checkout: campaign journals
and spans go to a scratch directory under ``.perfbench-tmp/`` that is
removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
from workloads import DEFAULT_SEED, WORKLOADS, check_outputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A run that has not finished by then is stopped: the whole run must end
#: well inside three minutes.
DEADLINE_S = 170.0
#: An untraced run makes one round over its corpora per this many seconds
#: of ``--seconds``, and at least two.  The count depends on the arguments
#: alone, never on how fast a round went, so every run at the same
#: settings takes its minimum over the same number of samples.
ROUND_S = 20.0
MIN_ROUNDS = 2

END_TO_END = {
    "variants_per_s": "1/s",
    "cpu_ms_per_variant": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a wrong program output)."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
    return env


def run_child(workload: str, corpus_seed: int, scratch: Path, deadline: float, trace: bool) -> dict:
    """Run one fresh-process measurement and return its summary."""
    label = f"{'traced' if trace else 'plain'}-{corpus_seed}"
    state_dir = scratch / f"state-{label}"
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--corpus-seed", str(corpus_seed),
        "--state-dir", str(state_dir),
    ]
    if trace:
        command += ["--spans", str(scratch / f"spans-{label}.jsonl")]
    # Its own session, so a stop takes the pool workers down with it.
    process = subprocess.Popen(
        command, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} corpus {corpus_seed} overran the run's deadline") from None
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if process.returncode != 0:
        raise BenchmarkError(f"{workload} corpus {corpus_seed} exited with {process.returncode}")
    summary = json.loads(stdout.decode().strip().splitlines()[-1])
    shutil.rmtree(state_dir, ignore_errors=True)
    if "spans_path" in summary:
        summary["spans"] = tracing.load_spans(summary["spans_path"])
        os.unlink(summary["spans_path"])
    _diagnose(summary, trace)
    return summary


def _diagnose(summary: dict, trace: bool) -> None:
    timed = summary["timed"]
    variants = summary.get("outputs", {}).get("variants", 0)
    print(
        f"# perfbench {summary['workload']} corpus {summary['corpus_seed']}"
        f"{' traced' if trace else ''}: {variants} variants, wall {timed['wall_s']:.3f} s, "
        f"cpu {timed['cpu_s']:.3f} s, off_cpu_share {tracing.off_cpu_share([summary]):.4f}, "
        f"setup {summary['setup']['total_s']:.3f} s, rss {summary['peak_rss_mb']:.1f} MB, "
        f"host_slowdown {summary['host_slowdown']:.3f}"
        + (f", aborted: {summary['aborted']}" if "aborted" in summary else ""),
        file=sys.stderr,
    )


def load_pins() -> dict:
    with open(HERE / "pins.json") as handle:
        return json.load(handle)


def account(runs: list[dict], pinned: dict) -> tuple[bool, int, int]:
    """``(correct, attempted, failed)`` over every process of a run.

    ``pinned`` maps corpus seeds to the outputs pinned for them.  A variant
    fails when its unit raised or was quarantined; when any output check
    fails, every variant of the run counts as failed.
    """
    attempted = failed = 0
    correct = True
    for run in runs:
        if "aborted" in run:
            attempted += run["planned"]
            failed += run["planned"]
            correct = False
            continue
        outputs = run["outputs"]
        attempted += outputs["variants"] + outputs["quarantined_variants"]
        failed += outputs["quarantined_variants"]
        problems = check_outputs(outputs, pinned.get(str(run["corpus_seed"])))
        for problem in problems:
            print(f"# perfbench check failed, corpus {run['corpus_seed']}: {problem}", file=sys.stderr)
        correct = correct and not problems
    if not correct:
        failed = attempted
    return correct and failed == 0, max(attempted, 1), failed


def end_to_end(runs: list[dict]) -> dict[str, float]:
    """End-to-end metrics over the processes of a run, at reference host speed.

    Every time is divided by its process's ``host_slowdown`` (see
    ``child.calibration_pass``), so a run on a loaded host reads like one
    on an idle host.  Contention left over only ever adds time, so each
    corpus contributes the least wall and CPU time of its rounds, and
    throughput and cost are taken over the summed corpora.
    """
    best: dict[int, tuple[int, float, float]] = {}
    for run in runs:
        if "outputs" in run:
            seed, timed, slowdown = run["corpus_seed"], run["timed"], run["host_slowdown"]
            variants, wall, cpu = best.get(seed, (0, float("inf"), float("inf")))
            best[seed] = (
                run["outputs"]["variants"],
                min(wall, timed["wall_s"] / slowdown),
                min(cpu, timed["cpu_s"] / slowdown),
            )
    variants = sum(value[0] for value in best.values())
    wall = sum(value[1] for value in best.values())
    cpu = sum(value[2] for value in best.values())
    return {
        "variants_per_s": variants / wall if wall else 0.0,
        "cpu_ms_per_variant": 1000.0 * cpu / variants if variants else 0.0,
        "setup_s": statistics.median(run["setup"]["total_s"] / run["host_slowdown"] for run in runs),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    corpus_seeds = WORKLOADS[workload].corpus_seeds(seed)
    if trace:
        plain, traced = [], []
        for corpus_seed in corpus_seeds:
            plain.append(run_child(workload, corpus_seed, scratch, deadline, trace=False))
            traced.append(run_child(workload, corpus_seed, scratch, deadline, trace=True))
        runs = plain + traced
        values = tracing.layer_values([run for run in traced if "outputs" in run], plain)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        rounds = max(MIN_ROUNDS, int(seconds // ROUND_S))
        runs = [
            run_child(workload, corpus_seed, scratch, deadline, trace=False)
            for _ in range(rounds)
            for corpus_seed in corpus_seeds
        ]
        values = end_to_end(runs)
        units = END_TO_END
    pinned = load_pins().get(WORKLOADS[workload].pin_source, {})
    correct, attempted, failed = account(runs, pinned)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def _stop(signum, frame) -> None:
    # Unwind through the ``finally`` blocks that stop the children.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _stop)
    scratch_root = ROOT / ".perfbench-tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
