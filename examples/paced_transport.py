#!/usr/bin/env python3
"""Paced-transport demo: real-time execution with out-of-band completions.

The simulation usually finishes an 8-hour campaign in milliseconds because
the `SimClock` jumps straight to each action's sampled end time.  Real
hardware does not: a driver accepts the command immediately and reports the
completion later, from its own callback thread.  This example runs the same
small campaign twice --

* once on the **sim clock** (instant), and
* once over a **paced mock transport** at 2000x wall speed: every module's
  actions are dispatched to a `PacedMockTransport` whose background worker
  paces the already-sampled duration against a speedup-scaled `WallClock`
  and posts the completion to the engine's `CompletionBridge` strictly
  out-of-band --

and verifies the per-run scores are identical (the transport changes *when,
in real time* completions arrive, never the science).  It then demonstrates
deterministic transport-fault handling: a duplicated completion is deduped
exactly once, and a silent transport fails fast with `CompletionTimeout`
instead of hanging the event loop.

Run with:  python examples/paced_transport.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import run_campaign  # noqa: E402
from repro.wei.concurrent import ConcurrentWorkflowEngine  # noqa: E402
from repro.wei.drivers import (  # noqa: E402
    CompletionTimeout,
    DriverRegistry,
    TransportFaultPlan,
)
from repro.wei.workcell import build_color_picker_workcell  # noqa: E402
from repro.wei.workflow import WorkflowSpec, WorkflowStep  # noqa: E402

N_RUNS = 3
SAMPLES_PER_RUN = 4
SEED = 816
SPEEDUP = 2000.0


def main() -> int:
    shared = dict(
        n_runs=N_RUNS, samples_per_run=SAMPLES_PER_RUN, batch_size=2, seed=SEED
    )

    print(f"1) sim-clock campaign ({N_RUNS} runs x {SAMPLES_PER_RUN} samples)")
    wall = time.monotonic()
    sim = run_campaign(experiment_id="paced-demo-sim", **shared)
    print(
        f"   simulated {sim.makespan_s / 3600:.2f} h "
        f"in {time.monotonic() - wall:.2f} s real time"
    )

    print(f"\n2) paced transport at {SPEEDUP:g}x wall speed")
    paced = run_campaign(
        experiment_id="paced-demo-paced", transport="paced", speedup=SPEEDUP, **shared
    )
    stats = paced.transport_stats
    print(
        f"   simulated {paced.makespan_s / 3600:.2f} h "
        f"in {stats.wall_elapsed_s:.2f} s real time "
        f"(effective {paced.makespan_s / stats.wall_elapsed_s:.0f}x)"
    )
    print(
        f"   {stats.delivered} completions delivered out-of-band, "
        f"mean delivery latency {stats.mean_delivery_latency_s * 1000:.2f} ms"
    )

    sim_scores = [run.best_score for run in sim.runs]
    paced_scores = [run.best_score for run in paced.runs]
    assert sim_scores == paced_scores, "transport must never change the science"
    print(f"   per-run best scores identical to sim: {[f'{s:.1f}' for s in paced_scores]}")

    print("\n3) transport faults are deterministic")
    spec = WorkflowSpec(
        name="wf_fetch",
        steps=[
            WorkflowStep(module="sciclops", action="get_plate", args={}),
            WorkflowStep(
                module="pf400",
                action="transfer",
                args={"source": "sciclops.exchange", "target": "camera.stage"},
            ),
        ],
    )

    # A duplicated completion is rejected exactly once; the run still succeeds.
    workcell = build_color_picker_workcell(seed=SEED)
    registry = DriverRegistry.paced(
        workcell,
        speedup=1_000_000.0,
        fault_plan=TransportFaultPlan(by_ticket={0: "duplicate"}),
    )
    engine = ConcurrentWorkflowEngine(workcell, drivers=registry)
    result = engine.run_all([spec])[0]
    bridge_stats = registry.bridge.stats()
    registry.close()
    print(
        f"   duplicate completion: run success={result.success}, "
        f"rejected_duplicate={bridge_stats.rejected_duplicate}"
    )

    # A silent transport times out instead of hanging the event loop.
    workcell = build_color_picker_workcell(seed=SEED)
    registry = DriverRegistry.paced(
        workcell,
        speedup=1_000_000.0,
        fault_plan=TransportFaultPlan(by_ticket={1: "timeout"}),
    )
    engine = ConcurrentWorkflowEngine(
        workcell, drivers=registry, completion_timeout_s=0.2
    )
    try:
        engine.run_all([spec])
        raise AssertionError("expected the silent transport to time out")
    except CompletionTimeout as error:
        print(f"   silent transport: {error}")
    finally:
        registry.close()

    print("\nTransport bindings are visible on every module:")
    described = build_color_picker_workcell(seed=SEED).module("sciclops").describe()
    print(f"   unbound module: actions={described['actions']}, driver={described['driver']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
