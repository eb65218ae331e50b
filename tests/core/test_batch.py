"""Tests for the batch-size sweep (Figure 4 machinery)."""

import numpy as np
import pytest

import repro.core.batch as batch_module
from repro.core.batch import PAPER_BATCH_SIZES, run_batch_sweep
from repro.sim.durations import paper_calibrated_durations


@pytest.fixture(scope="module")
def small_sweep():
    """A reduced sweep (small N) shared by several tests to keep runtime low."""
    return run_batch_sweep(batch_sizes=(1, 4, 16), n_samples=32, seed=7, measurement="direct")


class TestSweep:
    def test_paper_batch_sizes_constant(self):
        assert PAPER_BATCH_SIZES == (1, 2, 4, 8, 16, 32, 64)

    def test_one_experiment_per_batch_size(self, small_sweep):
        assert small_sweep.batch_sizes == [1, 4, 16]
        for size in small_sweep.batch_sizes:
            assert small_sweep.experiments[size].n_samples == 32

    def test_smaller_batches_take_longer(self, small_sweep):
        times = small_sweep.total_times_minutes()
        assert times[1] > times[4] > times[16]

    def test_trajectories_are_nonincreasing(self, small_sweep):
        for size in small_sweep.batch_sizes:
            _, best = small_sweep.trajectory(size)
            assert np.all(np.diff(best) <= 1e-9)

    def test_final_scores_reasonable(self, small_sweep):
        for score in small_sweep.final_scores().values():
            assert 0.0 <= score < 150.0

    def test_to_dict_serialisable(self, small_sweep):
        import json

        data = json.loads(json.dumps(small_sweep.to_dict()))
        assert set(data) == {"1", "4", "16"}
        assert data["1"]["n_samples"] == 32


class TestValidation:
    def test_empty_batch_sizes_rejected(self):
        with pytest.raises(ValueError):
            run_batch_sweep(batch_sizes=())

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError):
            run_batch_sweep(batch_sizes=(0,), n_samples=8)

    def test_duplicate_batch_sizes_rejected(self):
        # Results are keyed by batch size: a repeat would silently run once.
        with pytest.raises(ValueError, match="duplicate batch size 4"):
            run_batch_sweep(batch_sizes=(4, 4, 8), n_samples=8)

    def test_seeded_sweep_reproducible(self):
        a = run_batch_sweep(batch_sizes=(2,), n_samples=8, seed=3)
        b = run_batch_sweep(batch_sizes=(2,), n_samples=8, seed=3)
        assert a.final_scores() == b.final_scores()

    def test_solver_can_be_swapped(self):
        sweep = run_batch_sweep(batch_sizes=(4,), n_samples=8, seed=3, solver="random")
        assert sweep.experiments[4].config.solver == "random"

    def test_lookahead_assignment_runs_sweeps(self):
        """Sweeps go through the coordinator, so online re-ranking works
        there too -- with the same science as plain work stealing."""
        shared = dict(batch_sizes=(2, 4), n_samples=8, seed=5, n_ot2=2)
        lookahead = run_batch_sweep(assignment="lookahead", **shared)
        stealing = run_batch_sweep(**shared)
        for size in (2, 4):
            np.testing.assert_allclose(
                lookahead.experiments[size].scores(), stealing.experiments[size].scores()
            )
        assert lookahead.makespan_s > 0


class TestConsumables:
    def test_sweep_outlasts_the_bench_stock(self):
        # One plate per 64-well batch: 41 plates on the sweep's one workcell.
        sweep = run_batch_sweep(batch_sizes=(64,), n_samples=64 * 41, seed=3, solver="random")
        assert sweep.experiments[64].n_samples == 64 * 41


class TestLptUsesActualDurations:
    """Regression: the stealing-lpt ordering must be predicted against the
    table the shared workcell actually runs, not the default calibration."""

    def test_custom_table_reaches_the_predictor(self, monkeypatch):
        seen = []
        real = batch_module.predict_experiment_duration

        def spy(config, durations=None):
            seen.append(durations)
            return real(config, durations)

        monkeypatch.setattr(batch_module, "predict_experiment_duration", spy)
        table = paper_calibrated_durations(jitter_cv=0.0).scaled({"ot2": 2.0})
        run_batch_sweep(
            batch_sizes=(2, 4),
            n_samples=8,
            seed=3,
            solver="random",
            n_ot2=2,
            assignment="stealing-lpt",
            durations=table,
        )
        assert seen, "stealing-lpt never consulted the predictor"
        for observed in seen:
            assert observed is not None
            assert observed.mean("ot2", "run_protocol", units=1) == pytest.approx(
                table.mean("ot2", "run_protocol", units=1)
            )

    def test_durations_override_applies_sequentially(self):
        fast = paper_calibrated_durations(jitter_cv=0.0).scaled(0.5)
        slow = paper_calibrated_durations(jitter_cv=0.0)
        quick = run_batch_sweep(batch_sizes=(4,), n_samples=8, seed=3, durations=fast)
        normal = run_batch_sweep(batch_sizes=(4,), n_samples=8, seed=3, durations=slow)
        assert quick.experiments[4].elapsed_s < normal.experiments[4].elapsed_s
        # The science is duration-independent.
        np.testing.assert_allclose(
            quick.experiments[4].scores(), normal.experiments[4].scores()
        )
