"""Parity of ``ColorPickerApp.run()`` with digests pinned from the sequential engine.

Every digest in :data:`PINNED` was recorded by running the case through the
original action-by-action sequential workflow engine, before ``run()`` moved
onto :class:`~repro.wei.concurrent.ConcurrentWorkflowEngine`.  A digest covers
everything a run makes observable:

* the final clock and the result's ``elapsed_s``;
* every sample's index, iteration, well, ratios, volumes, RGB, score and
  timestamp;
* the run logger's step log (every workflow run, every step's timing,
  retries and command counts);
* workflow counts, SDL metrics and intervention times;
* for a run that fails, the ``WorkflowError`` message.

Plate barcodes are deliberately left out, so renumbering plates cannot move
a digest.  The matrix covers both measurement modes, one to three plates,
batch sizes that do not divide the sample count, clean runs, recoverable
faults that retries absorb, unrecoverable faults (with and without human
intervention) and both staging modes.
"""

import hashlib
import json

import pytest

from repro.core.app import ColorPickerApp
from repro.core.experiment import ExperimentConfig
from repro.sim.faults import FaultPolicy
from repro.wei.engine import WorkflowError
from repro.wei.workcell import build_color_picker_workcell

#: ``(n_samples, batch_size)``: one plate, one plate with a ragged last
#: batch, two plates, and three plates with batches that split a plate.
SIZES = {"15x4": (15, 4), "24x4": (24, 4), "100x8": (100, 8), "200x96": (200, 96)}

#: ``FaultPolicy.uniform`` arguments: ``(probability, unrecoverable_fraction)``.
FAULTS = {"clean": None, "recoverable": (0.05, 0.0), "unrecoverable": (0.05, 1.0)}


def _case(measurement, size, faults, *, seed=7, staging="camera", recover=False):
    n_samples, batch_size = SIZES[size]
    return {
        "measurement": measurement,
        "n_samples": n_samples,
        "batch_size": batch_size,
        "faults": FAULTS[faults],
        "seed": seed,
        "staging": staging,
        "recover": recover,
    }


CASES = {
    f"{measurement}-{size}-{faults}": _case(measurement, size, faults)
    for measurement in ("direct", "vision")
    for size in SIZES
    for faults in FAULTS
}
# Human interventions: unrecoverable faults cleared by the recovery path.
# The seeds give 1, 3 and 6 (direct) and 1, 3 and 5 (vision) interventions.
CASES.update(
    {
        f"{measurement}-recover-seed{seed}": _case(
            measurement, size, "unrecoverable", seed=seed, recover=True
        )
        for measurement, size, seeds in (
            ("direct", "100x8", (4, 3, 5)),
            ("vision", "24x4", (3, 8, 5)),
        )
        for seed in seeds
    }
)
# The concurrent-lane staging mode, which parks plates on the OT-2 deck.
CASES.update(
    {
        f"ot2-staging-{size}-{faults}": _case(
            "direct", size, faults, seed=5, staging="ot2", recover=faults != "clean"
        )
        for size in ("24x4", "200x96")
        for faults in ("clean", "unrecoverable")
    }
)


def build_app(case):
    policy = None if case["faults"] is None else FaultPolicy.uniform(*case["faults"])
    workcell = build_color_picker_workcell(seed=case["seed"], fault_policy=policy)
    config = ExperimentConfig(
        n_samples=case["n_samples"],
        batch_size=case["batch_size"],
        measurement=case["measurement"],
        seed=case["seed"],
        recover_from_failures=case["recover"],
    )
    return ColorPickerApp(config, workcell=workcell, staging=case["staging"])


def run_outcome(case):
    """Everything observable about one run, barcodes excluded."""
    app = build_app(case)
    outcome = {}
    try:
        result = app.run()
    except WorkflowError as error:
        outcome["error"] = str(error)
    else:
        outcome.update(
            elapsed_s=result.elapsed_s,
            samples=[
                [
                    sample.sample_index,
                    sample.iteration,
                    sample.well,
                    [float(value) for value in sample.ratios],
                    sorted(sample.volumes_ul.items()),
                    [float(value) for value in sample.measured_rgb],
                    sample.score,
                    sample.elapsed_s,
                ]
                for sample in result.samples
            ],
            workflow_counts=result.workflow_counts,
            metrics=result.metrics.to_dict(),
            intervention_times=result.intervention_times,
            terminated_early=result.terminated_early,
        )
    outcome["clock"] = app.workcell.clock.now()
    outcome["steps"] = [run.to_dict() for run in app.run_logger.runs]
    return outcome


def digest(outcome):
    encoded = json.dumps(outcome, sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()[:16]


#: ``case -> (digest, interventions or "error")`` recorded through the
#: sequential engine.
PINNED = {
    "direct-100x8-clean": ("ec97d75deaf010f7", 0),
    "direct-100x8-recoverable": ("52591f6bc5226e4b", 0),
    "direct-100x8-unrecoverable": ("fbedf9980aaaf69f", "error"),
    "direct-15x4-clean": ("f931be418f15821c", 0),
    "direct-15x4-recoverable": ("34324ddc9ac1d487", 0),
    "direct-15x4-unrecoverable": ("81f58096ce04f854", "error"),
    "direct-200x96-clean": ("dfae114af08ec56e", 0),
    "direct-200x96-recoverable": ("3ed70ced2b301aa7", 0),
    "direct-200x96-unrecoverable": ("b6388b2d8718300d", "error"),
    "direct-24x4-clean": ("57d6724d522ae813", 0),
    "direct-24x4-recoverable": ("d40b50c3fa87fa33", 0),
    "direct-24x4-unrecoverable": ("2e4233d37879c513", "error"),
    "direct-recover-seed3": ("26a59cd8447bd490", 3),
    "direct-recover-seed4": ("0d419a39e9f39419", 1),
    "direct-recover-seed5": ("9e456080a7e31a6a", 6),
    "ot2-staging-200x96-clean": ("3fb8a3889adc0fd1", 0),
    "ot2-staging-200x96-unrecoverable": ("814a4a226ab59a14", 5),
    "ot2-staging-24x4-clean": ("d571437b4bf62eec", 0),
    "ot2-staging-24x4-unrecoverable": ("ec310b1d60e2f8c3", 5),
    "vision-100x8-clean": ("cd75ca18e8ab0b7d", 0),
    "vision-100x8-recoverable": ("ee37e04525cce497", 0),
    "vision-100x8-unrecoverable": ("7ce6713410b88c88", "error"),
    "vision-15x4-clean": ("ebf5b44f1c3e1635", 0),
    "vision-15x4-recoverable": ("0f8ce14c3f17209c", 0),
    "vision-15x4-unrecoverable": ("0ac84d9f8c7f5a59", "error"),
    "vision-200x96-clean": ("97977de0aacad85c", 0),
    "vision-200x96-recoverable": ("5f0c764dc43fe708", 0),
    "vision-200x96-unrecoverable": ("d693079152b15b59", "error"),
    "vision-24x4-clean": ("b5be8342be496ce2", 0),
    "vision-24x4-recoverable": ("ba5560f71ca83716", 0),
    "vision-24x4-unrecoverable": ("d0052ea3cd4bf6f2", "error"),
    "vision-recover-seed3": ("0d356a0db2b533e5", 1),
    "vision-recover-seed5": ("1f30910939836b62", 5),
    "vision-recover-seed8": ("f640ffca66229cb0", 3),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_sequential_engine(name):
    outcome = run_outcome(CASES[name])
    interventions = "error" if "error" in outcome else len(outcome["intervention_times"])
    assert (digest(outcome), interventions) == PINNED[name]


def test_matrix_exercises_every_outcome():
    """The pinned matrix must keep covering failures, retries and recovery."""
    kinds = [interventions for _, interventions in PINNED.values()]
    assert "error" in kinds
    assert 0 in kinds
    assert any(isinstance(kind, int) and kind >= 1 for kind in kinds)
    assert set(PINNED) == set(CASES)
