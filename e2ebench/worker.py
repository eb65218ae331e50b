"""One workload process: set up, measure, check, print one JSON line.

``run.py`` starts this script once per measuring process, one at a time, so
each workload runs in its own single-threaded process.  Usage::

    python3 e2ebench/worker.py --workload fleet-direct --seed 3 --seconds 5 \
        --spawned-at <time.monotonic() of the parent> [--traced] [--check-placement]

``--units N`` replaces ``--seconds`` with a fixed number of campaigns, which
the traced run uses to repeat exactly the work of the untraced run it is
compared with.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space (span files) inside the checkout; git-ignored.
WORK_DIR = ROOT / ".e2ebench"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    budget = parser.add_mutually_exclusive_group(required=True)
    budget.add_argument("--seconds", type=float)
    budget.add_argument("--units", type=int)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--check-placement", action="store_true")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise SystemExit(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")
    from e2ebench import layers, workloads

    recorder = layers.SpanRecorder().install() if args.traced else None
    watch = layers.Stopwatch(recorder)
    measured = workloads.measure_campaign(
        workloads.WORKLOADS[args.workload],
        args.seed,
        watch,
        seconds=args.seconds,
        units=args.units,
        check_placement=args.check_placement,
    )
    result = measured.to_dict()
    result["setup_s"] = watch.first_at - args.spawned_at
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        recorder.uninstall()
        result["layers"] = layers.layer_metrics(recorder, measured.region_s)
        recorder.write_spans(WORK_DIR / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
