"""End-to-end integration tests spanning every subsystem.

These exercise the complete pipeline the paper describes -- declarative
workcell, WEI workflows, simulated robots, camera + vision, solver, metrics,
publication -- in one run, including a vision-mode run and a fault-injected
resiliency run.
"""

import numpy as np
import pytest

from repro import (
    ColorPickerApp,
    DataPortal,
    ExperimentConfig,
    build_color_picker_workcell,
    run_batch_sweep,
)
from repro.analysis.figure4 import check_figure4_shape
from repro.core.metrics import PAPER_TABLE1
from repro.sim.faults import FaultPolicy
from repro.wei.workcell import Workcell
from repro.wei.workflow import WorkflowError


class TestFullPipelineDirectMode:
    @pytest.fixture(scope="class")
    def outcome(self):
        portal = DataPortal()
        config = ExperimentConfig(
            n_samples=32, batch_size=4, seed=123, measurement="direct", publish=True
        )
        workcell = build_color_picker_workcell(seed=123)
        app = ColorPickerApp(config, workcell=workcell, portal=portal)
        result = app.run()
        return config, workcell, portal, result

    def test_sample_budget_exactly_met(self, outcome):
        _, _, _, result = outcome
        assert result.n_samples == 32

    def test_solver_improves_over_first_batch(self, outcome):
        _, _, _, result = outcome
        scores = result.scores()
        assert result.best_score < scores[:4].min()
        assert result.best_score < 40.0

    def test_metrics_consistent_with_clock(self, outcome):
        _, workcell, _, result = outcome
        assert result.metrics.time_without_humans_s == pytest.approx(workcell.clock.now(), rel=1e-6)
        assert result.metrics.total_colors == 32

    def test_portal_record_matches_result(self, outcome):
        config, _, portal, result = outcome
        record = portal.get_run(config.run_id)
        assert record.n_samples == result.n_samples
        assert record.best_score == pytest.approx(result.best_score)

    def test_every_sample_well_contains_what_was_requested(self, outcome):
        _, workcell, _, result = outcome
        plates = {plate.barcode: plate for plate in workcell.deck.trashed_plates}
        for sample in result.samples:
            well = plates[sample.plate_barcode].well(sample.well)
            for dye, volume in sample.volumes_ul.items():
                if volume > 0:
                    assert well.contents.get(dye, 0.0) == pytest.approx(volume)


class TestFullPipelineVisionMode:
    def test_vision_and_direct_measurements_agree(self):
        """The camera+vision path should read colours close to the chemistry truth."""
        config = ExperimentConfig(
            n_samples=8, batch_size=4, seed=77, measurement="vision", publish=False
        )
        workcell = build_color_picker_workcell(seed=77)
        app = ColorPickerApp(config, workcell=workcell)
        result = app.run()
        chemistry = workcell.chemistry
        for sample in result.samples:
            volumes = np.array(
                [sample.volumes_ul.get(dye, 0.0) for dye in chemistry.dyes.names]
            )
            truth = chemistry.mix(volumes)
            assert np.linalg.norm(sample.measured_rgb - truth) < 25.0


class TestYamlWorkcellEndToEnd:
    WORKCELL_YAML = """
name: rpl_colorpicker_from_yaml
modules:
  - name: sciclops
    type: sciclops
  - name: pf400
    type: pf400
  - name: ot2
    type: ot2
  - name: barty
    type: barty
  - name: camera
    type: camera
"""

    def test_workcell_from_yaml_runs_experiment(self):
        workcell = Workcell.from_yaml(self.WORKCELL_YAML, seed=5)
        config = ExperimentConfig(n_samples=6, batch_size=3, seed=5, publish=False)
        result = ColorPickerApp(config, workcell=workcell).run()
        assert result.n_samples == 6
        assert workcell.name == "rpl_colorpicker_from_yaml"


class TestResiliency:
    def test_recoverable_faults_do_not_stop_the_run(self):
        workcell = build_color_picker_workcell(
            seed=31, fault_policy=FaultPolicy.uniform(0.05, unrecoverable_fraction=0.0)
        )
        config = ExperimentConfig(n_samples=16, batch_size=4, seed=31, publish=False)
        app = ColorPickerApp(config, workcell=workcell)
        result = app.run()
        assert result.n_samples == 16
        retries = sum(
            step.retries for run in app.run_logger.runs for step in run.steps
        )
        assert retries > 0
        # Failed command attempts are excluded from CCWH.
        failed = sum(
            1
            for device in [m.device for m in workcell.modules.values()]
            for record in device.action_log
            if not record.success
        )
        assert failed > 0

    def test_unrecoverable_fault_aborts_with_workflow_error(self):
        workcell = build_color_picker_workcell(
            seed=32, fault_policy=FaultPolicy.uniform(0.7, unrecoverable_fraction=1.0)
        )
        config = ExperimentConfig(n_samples=8, batch_size=2, seed=32, publish=False)
        app = ColorPickerApp(config, workcell=workcell)
        with pytest.raises(WorkflowError):
            app.run()


class TestReducedFigure4Shape:
    def test_reduced_sweep_reproduces_headline_trends(self):
        sweep = run_batch_sweep(batch_sizes=(1, 8, 32), n_samples=32, seed=2023)
        checks = check_figure4_shape(sweep)
        assert checks["small_batches_slower"]
        assert checks["all_within_budget"]
        # Time per colour for B=1 should be in the ballpark of the paper's 4 minutes.
        b1 = sweep.experiments[1]
        assert b1.metrics.time_per_color_s == pytest.approx(
            PAPER_TABLE1["time_per_color_s"], rel=0.25
        )
