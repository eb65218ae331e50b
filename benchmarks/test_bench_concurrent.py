"""Benchmark: executed concurrency vs. the resource-timeline planner.

The seed repo could only *plan* the Section 4 multi-OT-2 ablation offline
(mean durations, no faults, no engine).  With the
:class:`~repro.wei.concurrent.ConcurrentWorkflowEngine` the same workload is
now *executed*: sampled durations, real deck state, shared pf400/camera.
This benchmark validates the engine against the planner and measures the
makespan speedup of a two-lane campaign over a one-lane campaign.
"""

import numpy as np
import pytest

from repro.analysis.report import format_table
from repro.core.campaign import run_campaign
from repro.core.protocol import build_mix_protocol
from repro.hardware.labware import Plate
from repro.wei.concurrent import ConcurrentWorkflowEngine
from repro.wei.scheduler import plan_parallel_mixes
from repro.wei.workflow import WorkflowSpec

SEED = 99
BATCH_SIZE = 16
N_BATCHES = 6  # 6 x 16 = 96 wells: one full plate per single-OT-2 lane
#: Sampled-vs-mean tolerance: log-normal jitter (cv 0.05) plus the slightly
#: different stage interleaving of the executed chain vs. the planner's.
TOLERANCE = 0.15


def mix_chain_spec(ot2: str) -> WorkflowSpec:
    """The executed equivalent of one planned batch: mix, image, return."""
    deck_location = f"{ot2}.deck"
    spec = WorkflowSpec(name=f"mix_{ot2}")
    spec.add_step(ot2, "run_protocol", protocol="$payload.protocol")
    spec.add_step("pf400", "transfer", source=deck_location, target="camera.stage")
    spec.add_step("camera", "take_picture")
    spec.add_step("pf400", "transfer", source="camera.stage", target=deck_location)
    return spec


def execute_workload(make_workcell, n_ot2: int):
    """Run N_BATCHES mixing batches of BATCH_SIZE wells on ``n_ot2`` lanes."""
    workcell = make_workcell(seed=SEED, n_ot2=n_ot2)
    lanes = [name for name, _ in workcell.ot2_barty_pairs()]
    dye_names = workcell.chemistry.dyes.names
    reference = Plate(barcode="well-names")

    for ot2 in lanes:
        device = workcell.module(ot2).device
        workcell.deck.place(Plate(barcode=f"plate-{ot2}"), device.deck_location)
        for reservoir in device.reservoirs.values():
            reservoir.fill()

    specs, payloads, lane_batch_count = [], [], {ot2: 0 for ot2 in lanes}
    for index in range(N_BATCHES):
        ot2 = lanes[index % n_ot2]
        start = BATCH_SIZE * lane_batch_count[ot2]
        lane_batch_count[ot2] += 1
        wells = reference.empty_wells[start : start + BATCH_SIZE]
        protocol = build_mix_protocol(
            name=f"batch_{index:02d}",
            wells=wells,
            ratios=[[0.25, 0.25, 0.25, 0.25]] * BATCH_SIZE,
            dye_names=dye_names,
            max_component_volume_ul=40.0,
        )
        specs.append(mix_chain_spec(ot2))
        payloads.append({"protocol": protocol})

    engine = ConcurrentWorkflowEngine(workcell)
    results = engine.run_all(specs, payloads)
    assert all(result.success for result in results)
    return engine


def run_benchmark_matrix(make_workcell):
    plans = {n: plan_parallel_mixes([BATCH_SIZE] * N_BATCHES, n_ot2=n) for n in (1, 2)}
    engines = {n: execute_workload(make_workcell, n) for n in (1, 2)}
    return plans, engines


@pytest.mark.benchmark(group="concurrent-engine")
def test_concurrent_engine_matches_planner(benchmark, report, make_workcell):
    plans, engines = benchmark.pedantic(
        run_benchmark_matrix, args=(make_workcell,), rounds=1, iterations=1
    )

    rows = []
    for n in (1, 2):
        plan, engine = plans[n], engines[n]
        rows.append(
            (
                n,
                f"{plan.makespan / 3600:.2f} h",
                f"{engine.makespan / 3600:.2f} h",
                f"{plan.utilisation().get('ot2', 0.0):.2f}",
                f"{engine.utilisation().get('ot2', 0.0):.2f}",
            )
        )
    report(
        "Executed concurrency vs. planner (makespan and ot2 utilisation)",
        format_table(
            ["OT-2s", "planned", "executed", "planned ot2 util", "executed ot2 util"], rows
        ),
    )

    for n in (1, 2):
        plan, engine = plans[n], engines[n]
        # Makespan agreement within the sampled-vs-mean tolerance.
        assert engine.makespan == pytest.approx(plan.makespan, rel=TOLERANCE)
        # Device utilisation agreement for the dominating resource.
        planned = plan.utilisation()
        executed = engine.utilisation()
        for device in ("ot2", "pf400"):
            assert executed[device] == pytest.approx(planned[device], rel=TOLERANCE, abs=0.05)

    # The executed speedup reproduces the planner's headline prediction.
    executed_speedup = engines[1].makespan / engines[2].makespan
    planned_speedup = plans[1].makespan / plans[2].makespan
    assert engines[2].makespan < engines[1].makespan
    assert executed_speedup == pytest.approx(planned_speedup, rel=TOLERANCE)
    assert executed_speedup > 1.5


def run_campaigns():
    shared = dict(
        n_runs=4, samples_per_run=16, batch_size=8, measurement="direct", seed=SEED
    )
    sequential = run_campaign(experiment_id="bench-seq", **shared)
    concurrent = run_campaign(experiment_id="bench-conc", n_ot2=2, **shared)
    return sequential, concurrent


@pytest.mark.benchmark(group="concurrent-engine")
def test_concurrent_campaign_beats_sequential_engine(benchmark, report):
    sequential, concurrent = benchmark.pedantic(run_campaigns, rounds=1, iterations=1)

    report(
        "Campaign makespan: one OT-2 lane vs. two concurrent lanes",
        format_table(
            ["engine", "runs", "samples", "best score", "makespan"],
            [
                (
                    "one lane",
                    sequential.n_runs,
                    sequential.total_samples,
                    f"{sequential.best_score:.2f}",
                    f"{sequential.makespan_s / 3600:.2f} h",
                ),
                (
                    "concurrent x2",
                    concurrent.n_runs,
                    concurrent.total_samples,
                    f"{concurrent.best_score:.2f}",
                    f"{concurrent.makespan_s / 3600:.2f} h",
                ),
            ],
        ),
    )

    assert concurrent.total_samples == sequential.total_samples
    # Same seeds, same batches -> identical proposals and scores; the solver
    # cannot tell which lane executed it.  Only the clock differs.
    for seq_run, conc_run in zip(sequential.runs, concurrent.runs):
        np.testing.assert_allclose(seq_run.scores(), conc_run.scores())
    # Two lanes must finish the same workload strictly faster.
    assert concurrent.makespan_s < sequential.makespan_s
    assert concurrent.makespan_s < 0.75 * sequential.makespan_s
