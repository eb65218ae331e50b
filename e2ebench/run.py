"""Outside-in end-to-end benchmark of the colour-picker lab.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload fleet-direct --seed 1 --seconds 26 --trace 0

``--trace 0`` runs the workload untraced in ``PROCESSES`` fresh processes,
one after another, each measuring an equal share of ``--seconds``, and
reports the end-to-end metrics.  ``--trace 1`` runs it once untraced for
half of ``--seconds`` and once more, traced, over exactly the same work, and
reports the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any failed process, timeout or unknown argument
exits non-zero without that line.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from e2ebench.layers import PER_LAYER_UNITS  # noqa: E402

WORKLOADS = ("fleet-direct", "vision-loop", "bayes-lanes")

#: Untraced processes per run; ``setup_s`` and ``peak_rss_mb`` are medians
#: over them, ``runs_per_s`` pools their campaigns.
PROCESSES = 2

#: Everything, every process included, ends within this many seconds.
DEADLINE_S = 170.0

#: Keep numpy's BLAS to the worker's one thread, so a workload process has
#: no threads and no spinning BLAS helpers that make the 2-core timings noisy.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS: Dict[str, str] = {
    "runs_per_s": "runs/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def spawn(workload: str, seed: int, deadline: float, *extra: str) -> Dict[str, Any]:
    """Run one worker process to completion and return its JSON result."""
    spawned_at = time.monotonic()
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--spawned-at",
        repr(spawned_at),
        *extra,
    ]
    completed = subprocess.run(
        command,
        cwd=ROOT,
        env={**os.environ, **SINGLE_THREADED},
        capture_output=True,
        text=True,
        timeout=max(deadline - spawned_at, 1.0),
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"worker for {workload} exited with {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def check_results(results: List[Dict[str, Any]]) -> List[str]:
    """Errors of every process, plus a fingerprint that differs between them."""
    errors = [error for result in results for error in result["errors"]]
    digests = {result["digest"] for result in results}
    if len(digests) > 1:
        errors.append(f"campaign fingerprints differ between processes: {sorted(digests)}")
    return errors


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    share = seconds / PROCESSES
    results = [
        spawn(
            workload,
            seed,
            deadline,
            "--seconds",
            repr(share),
            *(["--check-placement"] if index == 0 else []),
        )
        for index in range(PROCESSES)
    ]
    runs = sum(result["runs"] for result in results)
    runs_s = sum(result["runs_s"] for result in results)
    metrics = {
        "runs_per_s": runs / runs_s if runs_s else 0.0,
        "setup_s": statistics.median(result["setup_s"] for result in results),
        "peak_rss_mb": statistics.median(result["peak_rss_mb"] for result in results),
    }
    notes = {
        "runs_per_s": f"{runs} runs in {runs_s:.3f} s of run_campaign",
        "setup_s": f"median of {PROCESSES} processes",
        "peak_rss_mb": f"median of {PROCESSES} processes",
    }
    return results, metrics, notes, END_TO_END_UNITS


def traced_metrics(untraced: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics from a traced run and the untraced run of the same work."""
    metrics = dict(traced["layers"])
    metrics["trace_overhead_pct"] = 100.0 * (traced["region_s"] / untraced["region_s"] - 1.0)
    metrics["core.campaign.makespan_h"] = untraced["extra"].get("makespan_h", 0.0)
    metrics["core.campaign.best_score_mean"] = untraced["extra"].get("best_score_mean", 0.0)
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def per_layer(workload: str, seed: int, seconds: float, deadline: float):
    untraced = spawn(workload, seed, deadline, "--seconds", repr(seconds / 2), "--check-placement")
    traced = spawn(workload, seed, deadline, "--units", str(untraced["units"]), "--traced")
    notes = {"trace.wall_s": f"{untraced['units']} units of work, traced"}
    return [untraced, traced], traced_metrics(untraced, traced), notes, PER_LAYER_UNITS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Outside-in end-to-end benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        parser.error(f"no repro sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if args.trace else end_to_end
    try:
        results, metrics, notes, units = measure(args.workload, args.seed, args.seconds, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    errors = check_results(results)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:44s} {value:>16.6g} {units[name]:<10s} {note}")
    for key, value in sorted(results[0]["extra"].items()):
        print(f"  {key:44s} {value!r}")
    for error in errors:
        print(f"  CHECK FAILED: {error}")
    summary = {
        "correct": not errors,
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
