"""Tests for failure recovery and the intervention-aware TWH metric."""

import pytest

from repro.core.app import ColorPickerApp
from repro.core.experiment import ExperimentConfig
from repro.core.metrics import compute_metrics
from repro.core.protocol import build_mix_protocol
from repro.sim.faults import FaultPolicy
from repro.wei.workcell import build_color_picker_workcell
from repro.wei.workflow import WorkflowError


class TestInterventionMetrics:
    def _busy_workcell(self):
        workcell = build_color_picker_workcell(seed=1)
        workcell.module("sciclops").invoke("get_plate")
        workcell.module("pf400").invoke("transfer", source="sciclops.exchange", target="camera.stage")
        workcell.module("pf400").invoke("transfer", source="camera.stage", target="ot2.deck")
        workcell.module("barty").invoke("fill_colors")
        protocol = build_mix_protocol(
            "mix", ["A1"], [[0.3, 0.3, 0.3, 0.1]], workcell.chemistry.dyes.names, 80.0
        )
        workcell.module("ot2").invoke("run_protocol", protocol=protocol)
        workcell.module("pf400").invoke("transfer", source="ot2.deck", target="camera.stage")
        return workcell

    def test_no_interventions_scores_whole_run(self):
        workcell = self._busy_workcell()
        end = workcell.clock.now()
        metrics = compute_metrics(workcell, total_colors=1, start_time=0.0, end_time=end)
        assert metrics.interventions == 0
        assert metrics.time_without_humans_s == pytest.approx(end)

    def test_twh_is_longest_segment_between_interventions(self):
        workcell = self._busy_workcell()
        end = workcell.clock.now()
        # One intervention a quarter of the way in: TWH is the later segment.
        metrics = compute_metrics(
            workcell,
            total_colors=1,
            start_time=0.0,
            end_time=end,
            intervention_times=[end * 0.25],
        )
        assert metrics.interventions == 1
        assert metrics.time_without_humans_s == pytest.approx(end * 0.75)
        whole_run = compute_metrics(workcell, total_colors=1, start_time=0.0, end_time=end)
        assert metrics.commands_completed <= whole_run.commands_completed

    def test_interventions_outside_window_are_ignored(self):
        workcell = self._busy_workcell()
        end = workcell.clock.now()
        metrics = compute_metrics(
            workcell,
            total_colors=1,
            start_time=0.0,
            end_time=end,
            intervention_times=[end + 100.0, -5.0],
        )
        assert metrics.interventions == 0
        assert metrics.time_without_humans_s == pytest.approx(end)


class TestRecoveringApplication:
    def _recovering_run(self, failure_rate, seed=44, n_samples=20, max_interventions=50):
        config = ExperimentConfig(
            n_samples=n_samples,
            batch_size=4,
            seed=seed,
            measurement="direct",
            publish=False,
            recover_from_failures=True,
            max_interventions=max_interventions,
        )
        workcell = build_color_picker_workcell(
            seed=seed,
            fault_policy=FaultPolicy.uniform(failure_rate, unrecoverable_fraction=1.0),
        )
        app = ColorPickerApp(config, workcell=workcell)
        return app, workcell, app.run()

    def test_run_completes_despite_unrecoverable_failures(self):
        _, _, result = self._recovering_run(failure_rate=0.12)
        assert result.n_samples == 20
        assert result.interventions >= 1
        assert result.metrics.interventions == result.interventions

    def test_twh_shrinks_relative_to_total_elapsed(self):
        _, workcell, result = self._recovering_run(failure_rate=0.12)
        total_elapsed = workcell.clock.now()
        assert result.metrics.time_without_humans_s < total_elapsed

    def test_intervention_trashes_compromised_plate(self):
        _, workcell, result = self._recovering_run(failure_rate=0.12)
        # Deck is clean at the end: nothing left at the camera or OT-2.
        assert not workcell.deck.is_occupied("camera.stage")
        assert not workcell.deck.is_occupied("ot2.deck")
        assert len(workcell.deck.trashed_plates) >= result.interventions

    def test_max_interventions_cap_eventually_reraises(self):
        with pytest.raises(WorkflowError):
            self._recovering_run(failure_rate=0.6, max_interventions=1, n_samples=40)

    def test_clean_run_records_no_interventions(self):
        config = ExperimentConfig(
            n_samples=8, batch_size=4, seed=2, publish=False, recover_from_failures=True
        )
        result = ColorPickerApp(config).run()
        assert result.interventions == 0
        assert result.metrics.interventions == 0
