"""The benchmark's own tests: small-scale smoke runs, wrapper coverage, self-time sums.

Each workload runs in-process at a shrunken size, once untraced and once
traced over the same work.  The coverage test fails when a per-layer
counter that must be nonzero on its heavy workload reads zero -- the sign
that a refactor moved a call site away from the wrapped entry points.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from e2ebench import layers, run, workloads

ROOT = Path(__file__).resolve().parents[2]

SMALL = {
    "fleet-direct": replace(
        workloads.WORKLOADS["fleet-direct"], n_workcells=4, n_runs=8, compare_workcells=2
    ),
    "vision-loop": replace(workloads.WORKLOADS["vision-loop"], n_runs=2, samples_per_run=8),
    "bayes-lanes": replace(workloads.WORKLOADS["bayes-lanes"], samples_per_run=12),
}

#: Per-layer metrics that must be nonzero on the workload that stresses them.
HEAVY = {
    "fleet-direct": [
        "vision.render.frames",
        "vision.render.busy_s",
        "wei.coordinator.self_s",
        "wei.coordinator.next_time_calls_per_step",
        "wei.concurrent.self_s",
        "sim.events.steps",
        "hardware.actions",
        "hardware.complete_self_s",
        "hardware.labware.plates",
        "hardware.labware.plate_init_s",
        "core.app.self_s",
        "color.mix_s",
        "color.score_s",
        "publish.portal.ingests",
        "publish.portal.ingest_s",
        "core.campaign.makespan_h",
    ],
    "vision-loop": [
        "vision.render.frames_read_ratio",
        "vision.extraction.calls",
        "vision.extraction.self_s",
        "vision.hough.busy_s",
        "vision.fiducial.busy_s",
        "core.campaign.best_score_mean",
    ],
    "bayes-lanes": [
        "solvers.proposals",
        "solvers.propose_s",
        "solvers.observe_s",
        "solvers.gp.fits",
        "solvers.gp.fit_s",
        "solvers.gp.predict_s",
    ],
}


def _measure(name, *, traced):
    recorder = layers.SpanRecorder().install() if traced else None
    watch = layers.Stopwatch(recorder)
    try:
        measured = workloads.measure_campaign(
            SMALL[name], 5, watch, units=1, check_placement=not traced
        )
    finally:
        if recorder is not None:
            recorder.uninstall()
    result = measured.to_dict()
    if recorder is not None:
        result["layers"] = layers.layer_metrics(recorder, measured.region_s)
    return result


@pytest.fixture(scope="module")
def traced_runs():
    """``{workload: (untraced result, traced result, per-layer metrics)}``."""
    runs = {}
    for name in SMALL:
        untraced = _measure(name, traced=False)
        traced = _measure(name, traced=True)
        runs[name] = (untraced, traced, run.traced_metrics(untraced, traced))
    return runs


@pytest.mark.parametrize("name", list(SMALL))
def test_smoke_run_is_correct(traced_runs, name):
    untraced, traced, _ = traced_runs[name]
    for result in (untraced, traced):
        assert result["errors"] == []
        assert result["failed"] == 0
        assert result["runs"] > 0 and result["runs_s"] > 0
    assert run.check_results([untraced, traced]) == []


def test_direct_mode_is_placement_invariant(traced_runs):
    untraced, _, _ = traced_runs["fleet-direct"]
    assert untraced["extra"]["placement_invariant_4_vs_2_workcells"] is True


def test_vision_mode_invariance_is_reported_not_gated(traced_runs):
    untraced, _, _ = traced_runs["vision-loop"]
    assert "placement_invariant_2_vs_1_workcells" in untraced["extra"]
    assert untraced["errors"] == []


@pytest.mark.parametrize("name", list(HEAVY))
def test_heavy_layer_counters_are_nonzero(traced_runs, name):
    metrics = traced_runs[name][2]
    zero = [metric for metric in HEAVY[name] if not metrics[metric] > 0]
    assert zero == [], f"{name}: per-layer metrics read zero: {zero}"


def test_layer_ratios_match_the_workload_shape(traced_runs):
    fleet = traced_runs["fleet-direct"][2]
    vision = traced_runs["vision-loop"][2]
    bayes = traced_runs["bayes-lanes"][2]
    assert fleet["vision.render.frames_read_ratio"] == 0.0
    assert vision["vision.render.frames_read_ratio"] == 1.0
    assert fleet["vision.extraction.calls"] == 0 and bayes["vision.extraction.calls"] == 0
    # One next_time poll per shard per merge step, plus the final empty polls.
    assert 3.0 < fleet["wei.coordinator.next_time_calls_per_step"] <= 4.5
    assert 0.9 < bayes["wei.coordinator.next_time_calls_per_step"] <= 1.2


@pytest.mark.parametrize("name", list(SMALL))
def test_self_times_and_residual_sum_to_traced_wall(traced_runs, name):
    metrics = traced_runs[name][2]
    covered = sum(metrics[metric] for metric in layers.SELF_TIME_METRICS.values())
    assert covered > 0
    assert metrics["residual_s"] >= -1e-9
    assert covered + metrics["residual_s"] == pytest.approx(metrics["trace.wall_s"], rel=1e-9)


def test_uninstall_restores_every_entry_point():
    from repro.core.app import ColorPickerApp
    from repro.hardware import camera
    from repro.publish.portal import DataPortal
    from repro.vision import render

    before = (
        render.render_plate_image,
        camera.render_plate_image,
        ColorPickerApp.__dict__["program"],
        DataPortal.__dict__["ingest"],
    )
    recorder = layers.SpanRecorder().install()
    assert camera.render_plate_image is not before[1]
    recorder.uninstall()
    after = (
        render.render_plate_image,
        camera.render_plate_image,
        ColorPickerApp.__dict__["program"],
        DataPortal.__dict__["ingest"],
    )
    assert after == before


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero, printing no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench")
    completed = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "fleet-direct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
