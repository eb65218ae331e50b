"""The closed-loop colour-picker application (paper Figure 2).

:class:`ColorPickerApp` reproduces ``color_picker_app.py``: it repeatedly

1. fetches a new plate when needed (``cp_wf_newplate``),
2. asks the solver for the next batch of dye ratios,
3. runs ``cp_wf_mix_colors`` to dispense, mix, and photograph them,
4. processes the plate image into per-well colours,
5. publishes the accumulated run data to the portal,
6. feeds scores back to the solver,
7. refills reservoirs (``cp_wf_replenish``) or swaps plates
   (``cp_wf_trashplate`` + ``cp_wf_newplate``) as required,

until the sample budget is exhausted or the target is matched, then disposes
of the final plate and computes the SDL metrics of Table 1.

The control loop is written once, as the generator :meth:`ColorPickerApp.program`,
which *yields* every timed interaction (workflow runs, direct module actions,
computational overheads) instead of executing them inline.  The one executor,
:class:`~repro.wei.concurrent.ConcurrentWorkflowEngine`, drives it: :meth:`run`
submits the single program to an engine over the app's workcell, and sweeps
and campaigns hand many programs to the
:class:`~repro.wei.coordinator.MultiWorkcellCoordinator`, which interleaves
them over shared workcells -- the paper's Section 4 multi-OT-2 ablation,
executed rather than merely planned.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

import numpy as np

from repro.color.distance import score_colors
from repro.core.experiment import ExperimentConfig, ExperimentResult, SampleResult
from repro.core.metrics import compute_metrics, metrics_from_step_results
from repro.core.protocol import build_mix_protocol, ratios_to_volumes
from repro.core.workflows import (
    STAGING_MODES,
    build_mix_colors_workflow,
    build_newplate_workflow,
    build_replenish_workflow,
    build_trashplate_workflow,
)
from repro.hardware.camera import CameraImage
from repro.hardware.labware import Plate
from repro.publish.flows import PublicationFlow
from repro.publish.portal import DataPortal
from repro.publish.records import RunRecord, SampleRecord
from repro.solvers.base import ColorSolver, make_solver
from repro.utils.rng import RandomSource
from repro.vision.extraction import WellColorExtractor
from repro.wei.concurrent import ConcurrentWorkflowEngine
from repro.wei.runlog import RunLogger
from repro.wei.workcell import Workcell, build_color_picker_workcell
from repro.wei.workflow import StepResult, WorkflowError

__all__ = ["ColorPickerApp"]


class ColorPickerApp:
    """The colour-picker application bound to a workcell and a solver.

    Parameters
    ----------
    config:
        Experiment configuration.  When omitted, the paper's defaults are used.
    workcell:
        The (simulated) workcell to run on.  When omitted, the default
        five-module colour-picker workcell is built with the config's seed.
    solver:
        A :class:`~repro.solvers.base.ColorSolver` instance.  When omitted,
        the solver named in the config is instantiated from the registry.
    portal:
        Data portal receiving published run records.  When omitted a fresh
        in-memory portal is created.
    ot2 / barty:
        Module names to target, for workcells with multiple OT-2/barty pairs.
    staging:
        Where the active plate parks between iterations: ``"camera"`` (the
        paper's single-plate flow, the default) or ``"ot2"`` (the plate rests
        on its own OT-2 deck, required when several experiments run
        concurrently on one workcell so plates don't collide at the shared
        camera stage).
    """

    def __init__(
        self,
        config: Optional[ExperimentConfig] = None,
        *,
        workcell: Optional[Workcell] = None,
        solver: Optional[ColorSolver] = None,
        portal: Optional[DataPortal] = None,
        run_logger: Optional[RunLogger] = None,
        ot2: str = "ot2",
        barty: str = "barty",
        staging: str = "camera",
    ):
        if staging not in STAGING_MODES:
            raise ValueError(f"unknown staging mode {staging!r}; expected one of {STAGING_MODES}")
        self.config = config if config is not None else ExperimentConfig()
        self.workcell = (
            workcell
            if workcell is not None
            else build_color_picker_workcell(seed=self.config.seed)
        )
        self.ot2_name = ot2
        self.barty_name = barty
        self.staging = staging
        self._ot2_module = self.workcell.module(ot2)
        self._barty_module = self.workcell.module(barty)

        n_dyes = self.workcell.chemistry.dyes.n_dyes
        randomness = RandomSource(self.config.seed)
        if solver is not None:
            self.solver = solver
        else:
            self.solver = make_solver(
                self.config.solver,
                n_dyes=n_dyes,
                seed=randomness.child("solver").generator,
                **self.config.solver_options,
            )
        if self.solver.n_dyes != n_dyes:
            raise ValueError(
                f"solver expects {self.solver.n_dyes} dyes but the workcell chemistry has {n_dyes}"
            )

        self.portal = portal if portal is not None else DataPortal()
        self.flow = PublicationFlow(self.portal)
        self.run_logger = run_logger if run_logger is not None else RunLogger()
        self.extractor = WellColorExtractor(
            config=self.workcell.module("camera").device.image_config
        )
        self._measurement_rng = randomness.child("measurement").generator

        # Workflow specifications, retargeted at the configured OT-2 / barty.
        ot2_location = self.workcell.module(ot2).device.deck_location
        self.wf_newplate = build_newplate_workflow(
            ot2=ot2, barty=barty, staging=staging, ot2_location=ot2_location
        )
        self.wf_mix_colors = build_mix_colors_workflow(
            ot2=ot2, ot2_location=ot2_location, staging=staging
        )
        self.wf_trashplate = build_trashplate_workflow(
            barty=barty, staging=staging, ot2_location=ot2_location
        )
        self.wf_replenish = build_replenish_workflow(barty=barty)

        self._active_plate: Optional[Plate] = None
        self._workflow_counts: Dict[str, int] = {}
        self._run_index: Optional[int] = self.config.run_index
        self._step_records: List[StepResult] = []

    # ------------------------------------------------------------------
    # Program plumbing
    #
    # Every helper that takes simulated time is a generator yielding one of
    # the requests understood by the engines (see repro.wei.concurrent):
    #   ("workflow", spec, payload) -> WorkflowRunResult
    #   ("action", module, action, kwargs) -> ActionInvocation
    #   ("sleep", seconds) -> None
    # ------------------------------------------------------------------
    def _run_workflow(self, spec, payload=None):
        try:
            result = yield ("workflow", spec, payload)
        except WorkflowError as exc:
            # The steps that succeeded before the failure still happened;
            # keep them so lane-scoped metrics count the real work.
            if exc.run_result is not None:
                self._step_records.extend(exc.run_result.steps)
            raise
        self._workflow_counts[spec.name] = self._workflow_counts.get(spec.name, 0) + 1
        self._step_records.extend(result.steps)
        return result

    def _invoke_action(self, module_name: str, action: str, **kwargs):
        invocation = yield ("action", module_name, action, kwargs)
        (record,) = invocation.records
        self._step_records.append(
            StepResult(
                step_name=f"direct.{module_name}.{action}",
                module=module_name,
                action=action,
                start_time=record.start_time,
                end_time=record.end_time,
                success=True,
                return_value=invocation.return_value,
                commands=invocation.commands,
                robotic_commands=invocation.robotic_commands,
            )
        )
        return invocation

    def _charge_overhead(self, module: str, action: str, units: float = 1.0):
        """Account simulated time for a computational / publication step."""
        duration = self.workcell.durations.sample(
            module, action, rng=self._measurement_rng, units=units
        )
        yield ("sleep", duration)
        return duration

    @property
    def active_plate(self) -> Optional[Plate]:
        """The plate currently in play (None before the first newplate workflow)."""
        return self._active_plate

    # ------------------------------------------------------------------
    # Plate / reservoir management (the checks in Figure 2)
    # ------------------------------------------------------------------
    def _needs_new_plate(self, batch_size: int) -> bool:
        if self._active_plate is None:
            return True
        return self._active_plate.remaining_capacity < batch_size

    def _acquire_new_plate(self):
        if self._active_plate is not None:
            yield from self._run_workflow(self.wf_trashplate)
            self._active_plate = None
        result = yield from self._run_workflow(self.wf_newplate)
        plate = result.steps[0].return_value
        if not isinstance(plate, Plate):  # pragma: no cover - defensive
            raise RuntimeError("cp_wf_newplate did not return a plate from the sciclops")
        self._active_plate = plate

    def _maybe_replenish(self, protocol):
        ot2_device = self._ot2_module.device
        if not ot2_device.can_run(protocol):
            # The next protocol needs more liquid than remains: refill everything.
            yield from self._run_workflow(self.wf_replenish, payload={"low_threshold": 1.0})
        elif ot2_device.reservoirs_low(self.config.reservoir_low_threshold):
            yield from self._run_workflow(
                self.wf_replenish, payload={"low_threshold": self.config.reservoir_low_threshold}
            )
        # One replacement swaps in a full rack, so a single refill is both
        # necessary and sufficient; if the protocol needs more tips than a
        # fresh rack holds, run_protocol reports the real problem.
        if ot2_device.tip_rack.remaining < protocol.n_wells * ot2_device.tips_per_well:
            yield from self._invoke_action(self.ot2_name, "replace_tips")

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def _measure_wells(self, image: Optional[CameraImage], wells: List[str], volumes: np.ndarray):
        """Return the measured RGB of each well in ``wells``.

        In ``vision`` mode the synthetic photograph is processed by the full
        fiducial/Hough/grid pipeline; in ``direct`` mode the chemistry model
        plus sensor noise stands in for it (fast path for large sweeps).
        """
        yield from self._charge_overhead("compute", "image_processing")
        if self.config.measurement == "vision":
            if image is None:
                raise RuntimeError("vision measurement requested but no camera image is available")
            extraction = self.extractor.extract(image.pixels)
            return extraction.colors_for(wells)
        true_colors = self.workcell.chemistry.mix(volumes)
        noise = self._measurement_rng.normal(
            0.0, self.config.direct_noise_sigma, size=true_colors.shape
        )
        return np.clip(true_colors + noise, 0.0, 255.0)

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def _resolve_run_index(self) -> int:
        """The portal run index for this run (stable across its uploads).

        When the config does not pin one, the index continues from the runs
        already published to this experiment, so several standalone runs
        sharing an experiment id keep distinct indices instead of all
        landing on 0.  (Concurrent publishers to one experiment should pin
        ``config.run_index`` explicitly.)
        """
        if self._run_index is None:
            taken = [
                record.run_index
                for record in self.portal.search(experiment_id=self.config.experiment_id)
                if record.run_id != self.config.run_id
            ]
            self._run_index = max(taken) + 1 if taken else 0
        return self._run_index

    def _publish(self, samples: List[SampleResult], image: Optional[CameraImage]):
        yield from self._charge_overhead("publish", "upload")
        config = self.config
        record = RunRecord(
            experiment_id=config.experiment_id,
            run_id=config.run_id,
            run_index=self._resolve_run_index(),
            target_rgb=list(config.target.rgb),
            solver=self.solver.name,
            metadata={"batch_size": config.batch_size, "seed": config.seed},
            samples=[
                SampleRecord(
                    sample_index=sample.sample_index,
                    well=sample.well,
                    plate_barcode=sample.plate_barcode,
                    volumes_ul=sample.volumes_ul,
                    measured_rgb=list(sample.measured_rgb),
                    score=sample.score,
                    proposed_by=self.solver.name,
                    timestamp=sample.elapsed_s,
                )
                for sample in samples
            ],
            timings={"elapsed_s": self.workcell.clock.now()},
        )
        pixels = image.pixels if image is not None and config.measurement == "vision" else None
        receipt = self.flow.publish(record, image=pixels)
        return receipt.to_dict()

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> ExperimentResult:
        """Execute the experiment on its workcell and return its result.

        The program runs alone on a fresh
        :class:`~repro.wei.concurrent.ConcurrentWorkflowEngine` that logs
        every workflow run to :attr:`run_logger`; a failure the program does
        not recover from is re-raised as the :class:`WorkflowError` it hit.
        """
        engine = ConcurrentWorkflowEngine(self.workcell, run_logger=self.run_logger)
        handle = engine.submit_program(self.program())
        engine.run_until_complete()
        return handle.result

    def program(self) -> Generator:
        """The experiment as an engine-agnostic program (see module docstring).

        Yields timed requests and finally returns the
        :class:`~repro.core.experiment.ExperimentResult`.  :meth:`run`
        executes it alone; submit it to a
        :class:`~repro.wei.concurrent.ConcurrentWorkflowEngine` (or build it
        per claimed job in :meth:`MultiWorkcellCoordinator.run_jobs
        <repro.wei.coordinator.MultiWorkcellCoordinator.run_jobs>`) to
        interleave it with other experiments on a shared workcell.
        """
        config = self.config
        result = ExperimentResult(config=config)
        dye_names = self.workcell.chemistry.dyes.names
        target_rgb = config.target.as_array()
        clock = self.workcell.clock
        start_time = clock.now()

        samples: List[SampleResult] = []
        iteration = 0

        while len(samples) < config.n_samples:
            remaining = config.n_samples - len(samples)
            batch_size = min(config.batch_size, remaining)

            try:
                # Figure 2 "Check: New Plate" -- also covers "Check: Plate Full".
                if self._needs_new_plate(batch_size):
                    yield from self._acquire_new_plate()
                plate = self._active_plate

                # Solver proposes the next batch (Solver.Run_Iteration).
                yield from self._charge_overhead("compute", "solver")
                ratios = np.atleast_2d(self.solver.propose(batch_size))
                wells = plate.next_empty_wells(batch_size)
                protocol = build_mix_protocol(
                    name=f"mix_colors_{iteration:04d}",
                    wells=wells,
                    ratios=ratios,
                    dye_names=dye_names,
                    max_component_volume_ul=config.max_component_volume_ul,
                )

                # Figure 2 "Check: Refill Color" -> cp_wf_replenish.
                yield from self._maybe_replenish(protocol)

                # cp_wf_mix_colors: transfer, mix, transfer back, photograph.
                mix_result = yield from self._run_workflow(
                    self.wf_mix_colors, payload={"protocol": protocol}
                )
            except WorkflowError as error:
                if not config.recover_from_failures:
                    raise
                if len(result.intervention_times) >= config.max_interventions:
                    raise
                yield from self._human_intervention(result, error)
                continue
            image = mix_result.step_values().get("camera.take_picture")
            if not isinstance(image, CameraImage):  # pragma: no cover - defensive
                image = None

            # Image processing + scoring.
            volumes = ratios_to_volumes(ratios, config.max_component_volume_ul)
            measured = yield from self._measure_wells(image, wells, volumes)
            scores = np.atleast_1d(score_colors(measured, target_rgb, config.distance_metric))

            elapsed = clock.now() - start_time
            for offset, (well, ratio_row, volume_row, rgb, score) in enumerate(
                zip(wells, ratios, volumes, measured, scores)
            ):
                samples.append(
                    SampleResult(
                        sample_index=len(samples),
                        iteration=iteration,
                        well=well,
                        plate_barcode=plate.barcode,
                        ratios=ratio_row,
                        volumes_ul={
                            dye: float(volume) for dye, volume in zip(dye_names, volume_row)
                        },
                        measured_rgb=rgb,
                        score=float(score),
                        elapsed_s=elapsed,
                    )
                )

            # Publish the cumulative run data (one upload per iteration, as in
            # the paper's 128 upload steps for the B = 1 run).
            if config.publish:
                receipt = yield from self._publish(samples, image)
                result.publication_receipts.append(receipt)

            # Feed results back to the solver.
            self.solver.observe(ratios, measured, scores)

            iteration += 1

            # Termination on a good-enough match.
            if config.success_threshold is not None and min(scores) <= config.success_threshold:
                result.terminated_early = True
                break

        # Final cp_wf_trashplate to close out the experiment.
        if self._active_plate is not None:
            try:
                yield from self._run_workflow(self.wf_trashplate)
                self._active_plate = None
            except WorkflowError as error:
                if not config.recover_from_failures:
                    raise
                yield from self._human_intervention(result, error)

        end_time = clock.now()
        result.samples = samples
        result.workflow_counts = dict(self._workflow_counts)
        if self.staging == "camera":
            # Single-experiment workcell: the device logs are all ours.
            result.metrics = compute_metrics(
                self.workcell,
                total_colors=len(samples),
                start_time=start_time,
                end_time=end_time,
                intervention_times=result.intervention_times,
            )
        else:
            # Concurrent lanes share devices, so attribute only our own steps.
            result.metrics = metrics_from_step_results(
                self._step_records,
                ot2_modules={self.ot2_name},
                total_colors=len(samples),
                start_time=start_time,
                end_time=end_time,
                intervention_times=result.intervention_times,
            )
        return result

    # ------------------------------------------------------------------
    # Failure recovery
    # ------------------------------------------------------------------
    def _human_intervention(self, result: ExperimentResult, error: Optional[WorkflowError] = None):
        """Simulate a human clearing an unrecoverable failure.

        The paper's TWH metric is defined as the longest stretch without
        intervention, so the timestamp is recorded and the clock is advanced
        by the intervention duration.  Recovery removes whatever plate is in
        play (its contents can no longer be trusted) so the next iteration
        starts from a clean plate.
        """
        clock = self.workcell.clock
        result.intervention_times.append(clock.now())
        yield from self._charge_overhead("human", "intervention")

        deck = self.workcell.deck
        if self.staging == "camera":
            # The human resets the deck: any plate stranded mid-hand-off (at
            # the exchange, the camera stage, an OT-2 deck, ...) is removed to
            # the trash because its state can no longer be trusted.
            for location in deck.locations:
                if location == deck.trash_location:
                    continue
                if deck.is_occupied(location):
                    stranded = deck.remove(location)
                    deck.place(stranded, deck.trash_location)
        else:
            # Concurrent lanes: only this experiment's plates are cleared,
            # the other lanes keep running (that is the point of the
            # ablation).  Besides the active plate, the failed workflow may
            # have had a plate in flight that was never assigned (e.g.
            # cp_wf_newplate failing between get_plate and the transfer,
            # stranding it at the shared exchange) -- find those through the
            # partial run result attached to the error, or they would block
            # every lane's plate fetches forever.
            candidates = []
            if self._active_plate is not None:
                candidates.append(self._active_plate)
            if error is not None and error.run_result is not None:
                for step in error.run_result.steps:
                    if isinstance(step.return_value, Plate):
                        candidates.append(step.return_value)
            for plate in candidates:
                location = deck.find_plate(plate.barcode)
                if location is not None and location != deck.trash_location:
                    deck.place(deck.remove(location), deck.trash_location)
        self._active_plate = None
