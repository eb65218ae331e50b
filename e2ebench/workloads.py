"""The three workloads: inputs from a seed, a measured closed loop, output checks.

Each workload is a campaign on the ``"sim"`` transport (one process, no
threads), timed around :func:`repro.run_campaign`.  Checks run outside the
measured calls.

Sizes are fixed here and the command line cannot change them: the seed
changes the inputs, never their size, so the placement-invariance checks
cannot be dodged by shrinking a run.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from repro import TARGET_COLORS, DataPortal, run_campaign
from repro.wei.chaos.soak import campaign_fingerprint
from repro.wei.concurrent import ConcurrentWorkflowEngine
from repro.wei.coordinator import MultiWorkcellCoordinator
from repro.wei.workcell import build_color_picker_workcell

from e2ebench.layers import Stopwatch

#: Largest possible RGB distance, sqrt(3) * 255.
MAX_SCORE = 441.7


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign workload: fleet shape plus run shape."""

    n_workcells: int
    n_ot2: int
    n_runs: int
    samples_per_run: int
    batch_size: int
    measurement: str
    solver: str
    cycle_targets: bool
    #: Workcell count the placement-invariance check compares against
    #: (``None``: no check, the workload has a single workcell).
    compare_workcells: Optional[int]
    #: Whether a placement-invariance mismatch fails the run (direct mode)
    #: or is only reported (vision mode, a known defect).
    invariance_gates: bool


WORKLOADS: Dict[str, CampaignSpec] = {
    "fleet-direct": CampaignSpec(
        n_workcells=16,
        n_ot2=1,
        n_runs=64,
        samples_per_run=1,
        batch_size=1,
        measurement="direct",
        solver="evolutionary",
        cycle_targets=False,
        compare_workcells=4,
        invariance_gates=True,
    ),
    "vision-loop": CampaignSpec(
        n_workcells=2,
        n_ot2=1,
        n_runs=8,
        samples_per_run=24,
        batch_size=8,
        measurement="vision",
        solver="evolutionary",
        cycle_targets=True,
        compare_workcells=1,
        invariance_gates=False,
    ),
    "bayes-lanes": CampaignSpec(
        n_workcells=1,
        n_ot2=2,
        n_runs=2,
        samples_per_run=48,
        batch_size=4,
        measurement="direct",
        solver="bayesian",
        cycle_targets=False,
        compare_workcells=None,
        invariance_gates=True,
    ),
}


@dataclass
class Measurement:
    """What one workload process measured and checked."""

    #: Campaign runs delivered by campaigns that completed.
    runs: int = 0
    #: Wall seconds of those campaigns' ``run_campaign`` calls.
    runs_s: float = 0.0
    #: Wall seconds of every measured region (what a traced run records).
    region_s: float = 0.0
    #: Campaigns run (the unit of fixed work).
    units: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    digest: Optional[str] = None
    #: Workload-specific results: makespan, scores, invariance.
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return dict(vars(self))


def build_fleet(spec: CampaignSpec, seed: int) -> MultiWorkcellCoordinator:
    """The fleet ``run_campaign`` would build for this shape and seed."""
    if spec.n_workcells == 1:
        workcell = build_color_picker_workcell(seed=seed, n_ot2=spec.n_ot2)
        return MultiWorkcellCoordinator([ConcurrentWorkflowEngine(workcell)])
    return MultiWorkcellCoordinator.build_color_picker_fleet(
        spec.n_workcells, seed=seed, n_ot2=spec.n_ot2
    )


def _campaign(spec: CampaignSpec, seed: int, fleet, portal, watch: Optional[Stopwatch] = None):
    kwargs = dict(
        experiment_id=f"e2e-{seed}",
        targets=list(TARGET_COLORS) if spec.cycle_targets else None,
        batch_size=spec.batch_size,
        solver=spec.solver,
        measurement=spec.measurement,
        seed=seed,
        portal=portal,
        n_ot2=spec.n_ot2,
        coordinator=fleet,
    )
    if watch is None:
        return run_campaign(spec.n_runs, spec.samples_per_run, **kwargs), 0.0
    return watch.timed(run_campaign, spec.n_runs, spec.samples_per_run, **kwargs)


def fingerprint_digest(campaign) -> str:
    """SHA-256 of the campaign's science-only fingerprint."""
    payload = json.dumps(campaign_fingerprint(campaign), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def check_campaign(spec: CampaignSpec, campaign, experiment_id: str) -> List[str]:
    """Every run index reaches the portal once, whole, with sane scores."""
    errors = []
    portal = campaign.portal
    records = portal.search(experiment_id=experiment_id)
    indexes = sorted(record.run_index for record in records)
    if indexes != list(range(spec.n_runs)):
        errors.append(f"portal run indexes {indexes} != 0..{spec.n_runs - 1}")
    for record in records:
        if record.n_samples != spec.samples_per_run:
            errors.append(f"{record.run_id}: {record.n_samples} samples")
        if portal.version(record.run_id) != 1:
            errors.append(f"{record.run_id}: ingested {portal.version(record.run_id)} times")
        for sample in record.samples:
            if not (math.isfinite(sample.score) and 0.0 <= sample.score <= MAX_SCORE):
                errors.append(f"{record.run_id}: score {sample.score} out of range")
    return errors


def _more(out: Measurement, watch: Stopwatch, seconds: Optional[float],
          units: Optional[int]) -> bool:
    """Whether another unit of work is due: ``units`` in all, or until
    ``seconds`` have been measured (always at least one)."""
    if units is not None:
        return out.units < units
    return out.units == 0 or watch.total_s < seconds


def measure_campaign(spec: CampaignSpec, seed: int, watch: Stopwatch, *,
                     seconds: Optional[float] = None, units: Optional[int] = None,
                     check_placement: bool = False) -> Measurement:
    """Repeat the seeded campaign until ``seconds`` are measured or ``units`` run.

    A short campaign of the same shape on a throw-away fleet warms up first.
    """
    short = replace(
        spec,
        n_runs=spec.n_workcells * spec.n_ot2,
        samples_per_run=min(spec.samples_per_run, 2 * spec.batch_size),
    )
    _campaign(short, seed, build_fleet(short, seed), DataPortal())
    out = Measurement()
    experiment_id = f"e2e-{seed}"
    while _more(out, watch, seconds, units):
        fleet = build_fleet(spec, seed)
        portal = DataPortal()
        gc.collect()
        out.units += 1
        out.attempted += spec.n_runs
        try:
            campaign, elapsed = _campaign(spec, seed, fleet, portal, watch)
        except Exception as exc:  # a failed campaign costs the runs it lost
            delivered = len(portal.search(experiment_id=experiment_id))
            out.failed += spec.n_runs - delivered
            out.errors.append(f"run_campaign raised {exc!r}")
            continue
        out.runs += spec.n_runs
        out.runs_s += elapsed
        out.errors.extend(check_campaign(spec, campaign, experiment_id))
        digest = fingerprint_digest(campaign)
        makespan_h = campaign.makespan_s / 3600.0
        if out.digest is None:
            out.digest = digest
            out.extra["makespan_h"] = makespan_h
            out.extra["best_score_mean"] = sum(run.best_score for run in campaign.runs) / spec.n_runs
        elif (digest, makespan_h) != (out.digest, out.extra["makespan_h"]):
            out.errors.append("campaign fingerprint or makespan changed between iterations")
        del campaign, fleet, portal
    out.region_s = watch.total_s
    if check_placement and spec.compare_workcells is not None and out.digest is not None:
        out.extra.update(placement_invariance(spec, seed, out))
    return out


def placement_invariance(spec: CampaignSpec, seed: int, out: Measurement) -> Dict[str, Any]:
    """Compare the fingerprint on ``spec.compare_workcells`` workcells.

    Direct mode must match (a mismatch is an error); vision mode is only
    reported, because its camera noise stream depends on placement today.
    """
    other = replace(spec, n_workcells=spec.compare_workcells)
    campaign, _ = _campaign(other, seed, build_fleet(other, seed), DataPortal())
    same = fingerprint_digest(campaign) == out.digest
    key = f"placement_invariant_{spec.n_workcells}_vs_{other.n_workcells}_workcells"
    if spec.invariance_gates and not same:
        out.errors.append(
            f"{spec.measurement}-mode fingerprint differs between {spec.n_workcells} "
            f"and {other.n_workcells} workcells"
        )
    return {key: same}
