"""Tests for multi-run campaigns (Figure 3 machinery)."""

import hashlib
import inspect
import json

import numpy as np
import pytest

from repro.core.app import ColorPickerApp
from repro.core.campaign import (
    _plates_needed,
    predict_experiment_duration,
    run_campaign,
    workcell_consumables,
)
from repro.core.experiment import ExperimentConfig
from repro.publish.portal import DataPortal
from repro.sim.durations import paper_calibrated_durations
from repro.wei.chaos.soak import campaign_fingerprint
from repro.wei.concurrent import ConcurrentWorkflowEngine
from repro.wei.coordinator import MultiWorkcellCoordinator, ShardAssignment
from repro.wei.workcell import build_color_picker_workcell


@pytest.fixture(scope="module")
def small_campaign():
    return run_campaign(n_runs=4, samples_per_run=5, seed=1, experiment_id="test-campaign")


class TestCampaign:
    def test_run_and_sample_counts(self, small_campaign):
        assert small_campaign.n_runs == 4
        assert small_campaign.total_samples == 20

    def test_portal_has_one_record_per_run(self, small_campaign):
        portal = small_campaign.portal
        assert portal.n_runs == 4
        experiment = portal.get_experiment("test-campaign")
        assert experiment.n_samples == 20

    def test_summary_view_matches_figure3_fields(self, small_campaign):
        summary = small_campaign.summary_view()
        assert summary["n_runs"] == 4
        assert summary["total_samples"] == 20
        assert summary["samples_per_run"] == [5, 5, 5, 5]
        assert summary["best_score"] == pytest.approx(small_campaign.best_score)

    def test_detail_view_for_each_run(self, small_campaign):
        for run_index in range(4):
            detail = small_campaign.detail_view(run_index)
            assert detail["run_index"] == run_index
            assert detail["n_samples"] == 5
            assert len(detail["samples"]) == 5
        with pytest.raises(KeyError):
            small_campaign.detail_view(99)

    def test_runs_have_timing_breakdown(self, small_campaign):
        record = small_campaign.portal.search(experiment_id="test-campaign")[0]
        assert record.timings["elapsed_s"] > 0
        assert record.timings["synthesis_s"] > 0


class TestCampaignOptions:
    def test_targets_cycle(self):
        campaign = run_campaign(
            n_runs=3,
            samples_per_run=3,
            seed=2,
            targets=["teal", "plum"],
            experiment_id="targets-campaign",
        )
        records = campaign.portal.search(experiment_id="targets-campaign")
        target_sets = {tuple(record.target_rgb) for record in records}
        assert len(target_sets) == 2

    def test_shared_portal_accumulates_campaigns(self):
        portal = DataPortal()
        run_campaign(n_runs=2, samples_per_run=3, seed=3, experiment_id="camp-a", portal=portal)
        run_campaign(n_runs=2, samples_per_run=3, seed=4, experiment_id="camp-b", portal=portal)
        assert portal.n_experiments == 2
        assert portal.n_runs == 4

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(n_runs=0)
        with pytest.raises(ValueError):
            run_campaign(samples_per_run=0)


class TestConsumables:
    """Campaigns run every job on the workcells they build, which nothing
    restocks, so those workcells are stocked for the whole campaign."""

    def test_default_campaign_outlasts_the_bench_stock(self):
        # 41 plates: more than the bench's 2 x 20 towers and, at one
        # reservoir fill per plate, more dye than its 500 ml bulk vessels.
        campaign = run_campaign(n_runs=41, samples_per_run=1, seed=1, experiment_id="long")
        assert campaign.n_runs == 41
        assert campaign.portal.n_runs == 41

    def test_short_campaigns_keep_the_bench_defaults(self):
        defaults = inspect.signature(build_color_picker_workcell).parameters
        configs = [ExperimentConfig(n_samples=15, seed=i) for i in range(12)]
        assert workcell_consumables(configs) == {
            "plates_per_tower": defaults["plates_per_tower"].default,
            "bulk_capacity_ul": defaults["bulk_capacity_ul"].default,
        }

    def test_sizing_scales_with_the_jobs(self):
        config = ExperimentConfig(n_samples=64 * 50, batch_size=64)
        sizing = workcell_consumables([config])
        assert sizing["plates_per_tower"] == 25
        assert sizing["bulk_capacity_ul"] == 50 * 20_000.0 + 64 * 50 * 80.0
        recovering = ExperimentConfig(
            n_samples=64 * 50, batch_size=64, recover_from_failures=True, max_interventions=5
        )
        assert workcell_consumables([recovering])["plates_per_tower"] == 30

    @pytest.mark.parametrize("n_samples,batch_size", [(100, 9), (130, 64), (200, 96), (5, 5)])
    def test_plate_count_matches_the_program(self, n_samples, batch_size):
        config = ExperimentConfig(
            n_samples=n_samples, batch_size=batch_size, solver="random", seed=2, publish=False
        )
        workcell = build_color_picker_workcell(seed=2)
        ColorPickerApp(config, workcell=workcell).run()
        fetched = sum(1 for r in workcell.action_records() if r.action == "get_plate")
        assert fetched == _plates_needed(config)


class TestPredictorParity:
    """``predict_experiment_duration`` matches the program it predicts.

    With a zero-jitter table the prediction must equal the simulated elapsed
    time exactly, minus the two action families the predictor deliberately
    excludes (reservoir refills and tip replacement -- resource maintenance
    that depends on run history, see the predictor docstring).
    """

    #: 1, 2 and 3 full plates, plus a batch size that does not divide 96
    #: (partial final batch on each plate) and one that leaves a plate
    #: part-filled (N=100, B=7 -> 2 plates).
    CONFIGS = [(96, 4), (192, 4), (288, 4), (96, 8), (10, 4), (100, 7)]

    EXCLUDED = {("barty", "refill_colors"), ("ot2", "replace_tips")}

    @pytest.mark.parametrize("n_samples,batch_size", CONFIGS)
    def test_prediction_equals_program_elapsed(self, n_samples, batch_size):
        table = paper_calibrated_durations(jitter_cv=0.0)
        config = ExperimentConfig(
            n_samples=n_samples,
            batch_size=batch_size,
            solver="random",
            seed=5,
            publish=False,
            measurement="direct",
        )
        # Deep plate towers and an effectively bottomless reservoir keep the
        # run free of mid-campaign restocking, which the predictor excludes.
        workcell = build_color_picker_workcell(
            seed=5, durations=table, plates_per_tower=50, bulk_capacity_ul=1e9
        )
        result = ColorPickerApp(config, workcell=workcell).run()
        records = workcell.action_records()
        excluded = sum(
            record.duration
            for record in records
            if (record.module, record.action) in self.EXCLUDED
        )
        predicted = predict_experiment_duration(config, durations=table)
        assert predicted == pytest.approx(result.elapsed_s - excluded)
        # The per-plate walk is real: one fetch and one drain per plate.
        plates = -(-n_samples // 96)
        assert sum(1 for r in records if r.action == "get_plate") == plates
        assert sum(1 for r in records if r.action == "drain_colors") == plates

    def test_prediction_uses_the_given_table(self):
        config = ExperimentConfig(n_samples=8, batch_size=4, solver="random", seed=1)
        base = paper_calibrated_durations(jitter_cv=0.0)
        slow = base.scaled({"ot2": 2.0})
        assert predict_experiment_duration(config, durations=slow) > predict_experiment_duration(
            config, durations=base
        )


class TestHeterogeneousCampaign:
    """``module_speeds``: per-workcell speed profiles with unchanged science."""

    SPEEDS = [{"ot2": 1.0}, {"ot2": 2.0, "pf400": 2.0}]

    @staticmethod
    def fingerprint(campaign):
        return hashlib.sha256(
            json.dumps(campaign_fingerprint(campaign), sort_keys=True).encode()
        ).hexdigest()

    def test_mixed_speed_fleet_is_bit_identical_to_sequential(self):
        kwargs = dict(n_runs=4, samples_per_run=4, seed=21, experiment_id="hetero")
        sequential = run_campaign(**kwargs)
        lookahead = run_campaign(
            n_workcells=2, assignment="lookahead", module_speeds=self.SPEEDS, **kwargs
        )
        lpt = run_campaign(
            n_workcells=2, assignment="stealing-lpt", module_speeds=self.SPEEDS, **kwargs
        )
        assert self.fingerprint(sequential) == self.fingerprint(lookahead)
        assert self.fingerprint(sequential) == self.fingerprint(lpt)

    def test_unknown_module_rejected(self):
        with pytest.raises(ValueError, match="unknown module"):
            run_campaign(
                n_runs=2, samples_per_run=3, seed=1, n_workcells=2,
                module_speeds={"warp_drive": 2.0},
            )

    def test_module_speeds_with_explicit_coordinator_rejected(self):
        coordinator = MultiWorkcellCoordinator.build_color_picker_fleet(2, seed=1)
        with pytest.raises(ValueError, match="module_speeds"):
            run_campaign(
                n_runs=2, samples_per_run=3, seed=1,
                coordinator=coordinator, module_speeds={"ot2": 2.0},
            )


class TestStreamingElasticCampaign:
    SEED = 11
    N_RUNS = 6
    SAMPLES = 4

    def test_records_stream_before_run_jobs_returns(self):
        """Every run's record must be in the portal at the moment its
        shard-completion callback fires -- streamed, not merged post-hoc."""
        portal = DataPortal()
        seen = []

        def inspect(completion):
            record = portal.get_run(completion.job.run_id)
            assert record.run_index == completion.job_index
            assert record.metadata["workcell"] == completion.assignment.workcell
            assert list(record.metadata["lane"]) == list(completion.assignment.lane)
            seen.append(completion.job_index)

        campaign = run_campaign(
            n_runs=self.N_RUNS,
            samples_per_run=self.SAMPLES,
            seed=self.SEED,
            portal=portal,
            experiment_id="streamed",
            n_workcells=2,
            on_run_complete=inspect,
        )
        assert sorted(seen) == list(range(self.N_RUNS))
        assert portal.n_runs == self.N_RUNS
        assert campaign.portal.get_experiment("streamed").n_samples == self.N_RUNS * self.SAMPLES

    def test_elastic_campaign_matches_sequential_scores(self):
        """Attach mid-flight, drain before the end: per-run scores stay
        identical to the sequential engine and the portal stays complete."""
        sequential = run_campaign(
            n_runs=self.N_RUNS,
            samples_per_run=self.SAMPLES,
            seed=self.SEED,
            experiment_id="seq",
        )

        coordinator = MultiWorkcellCoordinator.build_color_picker_fleet(2, seed=self.SEED)
        portal = DataPortal()
        completions = []

        def reshape_fleet(completion):
            assert portal.get_run(completion.job.run_id) is not None
            completions.append(completion.job_index)
            if len(completions) == 2:
                workcell = build_color_picker_workcell(name="workcell-late", seed=77)
                coordinator.attach_workcell(
                    ConcurrentWorkflowEngine(workcell),
                    lanes=workcell.ot2_barty_pairs()[:1],
                )
            if len(completions) == 4:
                active = [s for s in coordinator.status().shards if s.state == "active"]
                if len(active) > 1:
                    coordinator.drain_workcell(active[0].shard_id)

        elastic = run_campaign(
            n_runs=self.N_RUNS,
            samples_per_run=self.SAMPLES,
            seed=self.SEED,
            portal=portal,
            experiment_id="elastic",
            coordinator=coordinator,
            on_run_complete=reshape_fleet,
        )

        assert sorted(completions) == list(range(self.N_RUNS))
        assert portal.n_runs == self.N_RUNS
        assert coordinator.n_workcells == 3
        assert elastic.n_workcells == 3
        events = [e["event"] for e in coordinator.fleet_events]
        assert "workcell-attached" in events
        assert "workcell-retired" in events
        # The science is placement-independent: identical per-run scores.
        for seq_run, elastic_run in zip(sequential.runs, elastic.runs):
            np.testing.assert_allclose(seq_run.scores(), elastic_run.scores())
        # Portal run_indexes are stable regardless of completion order.
        runs = portal.get_experiment("elastic").runs
        assert [run.run_index for run in runs] == list(range(self.N_RUNS))

    def test_default_campaign_completions_carry_placement(self):
        """Regression: the default one-workcell campaign used to fire
        ``on_run_complete`` with ``assignment=None`` and publish records
        without workcell/lane tags, so fleet listeners raised on it."""
        portal = DataPortal()
        completions = []
        campaign = run_campaign(3, 2, portal=portal, on_run_complete=completions.append)
        assert [completion.job_index for completion in completions] == [0, 1, 2]
        for completion in completions:
            assert isinstance(completion.assignment, ShardAssignment)
            assert completion.assignment.workcell == "rpl_colorpicker"
            assert completion.assignment.lane == ("ot2", "barty")
        assert campaign.assignments == [completion.assignment for completion in completions]
        for record in portal.search(experiment_id=campaign.experiment_id):
            assert record.metadata["workcell"] == "rpl_colorpicker"
            assert record.metadata["lane"] == ["ot2", "barty"]
