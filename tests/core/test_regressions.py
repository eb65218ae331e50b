"""Regression tests for application-level bugs fixed alongside the
concurrent-engine work.

* ``_maybe_replenish`` contained a verbatim-duplicated tip-rack check that
  double-fired ``replace_tips``, inflating command counts and simulated time.
* ``_publish`` hardcoded ``run_index=0``, so standalone runs published to the
  same experiment collided in every portal view sorted by run index.
"""


from repro.core.app import ColorPickerApp
from repro.core.experiment import ExperimentConfig
from repro.core.protocol import build_mix_protocol
from repro.hardware.labware import TipRack
from repro.publish.portal import DataPortal
from repro.wei.concurrent import ConcurrentWorkflowEngine
from repro.wei.workcell import build_color_picker_workcell


def drive(app, generator):
    """Run one of the app's program fragments to completion on its workcell."""
    engine = ConcurrentWorkflowEngine(app.workcell)
    handle = engine.submit_program(generator)
    engine.run_until_complete()
    return handle.result


class TestReplenishSingleFire:
    def _protocol(self, workcell, n_wells):
        dye_names = workcell.chemistry.dyes.names
        wells = [f"A{i + 1}" for i in range(n_wells)]
        return build_mix_protocol(
            name="regression",
            wells=wells,
            ratios=[[0.25, 0.25, 0.25, 0.25]] * n_wells,
            dye_names=dye_names,
            max_component_volume_ul=40.0,
        )

    def test_replace_tips_fires_at_most_once_per_check(self):
        """Even when one fresh rack cannot satisfy the protocol, the tip check
        must issue a single replace_tips command, not two."""
        workcell = build_color_picker_workcell(seed=0)
        config = ExperimentConfig(n_samples=4, batch_size=2, seed=0, publish=False)
        app = ColorPickerApp(config, workcell=workcell)
        ot2 = workcell.module("ot2").device
        ot2.tip_rack = TipRack(capacity=4)
        for reservoir in ot2.reservoirs.values():
            reservoir.fill()

        drive(app, app._maybe_replenish(self._protocol(workcell, 6)))

        replaced = [r for r in ot2.action_log if r.action == "replace_tips"]
        assert len(replaced) == 1

    def test_exhausted_rack_is_replaced_exactly_once(self):
        """The common path: tips run out mid-experiment, one swap suffices."""
        workcell = build_color_picker_workcell(seed=6)
        config = ExperimentConfig(
            n_samples=120, batch_size=24, seed=6, measurement="direct", publish=False
        )
        app = ColorPickerApp(config, workcell=workcell)
        result = app.run()
        assert result.n_samples == 120
        ot2 = workcell.module("ot2").device
        replaced = [r for r in ot2.action_log if r.action == "replace_tips"]
        # 120 wells at one tip per well against a 96-tip rack: one swap.
        assert len(replaced) == 1


class TestPublishRunIndex:
    def _run(self, portal, run_id, seed, run_index=None):
        config = ExperimentConfig(
            n_samples=4,
            batch_size=2,
            seed=seed,
            measurement="direct",
            publish=True,
            experiment_id="shared-experiment",
            run_id=run_id,
            run_index=run_index,
        )
        ColorPickerApp(config, portal=portal).run()
        return portal.get_run(run_id)

    def test_two_standalone_runs_get_distinct_indices(self):
        portal = DataPortal()
        first = self._run(portal, "run-a", seed=1)
        second = self._run(portal, "run-b", seed=2)
        assert first.run_index == 0
        assert second.run_index == 1
        experiment = portal.get_experiment("shared-experiment")
        assert [record.run_id for record in experiment.runs] == ["run-a", "run-b"]

    def test_run_index_stable_across_iterative_uploads(self):
        # Each iteration re-publishes the cumulative record; the index must
        # not drift as the run's own record lands in the portal.
        portal = DataPortal()
        self._run(portal, "run-a", seed=1)
        record = self._run(portal, "run-b", seed=2)
        assert record.run_index == 1

    def test_config_can_pin_the_index(self):
        portal = DataPortal()
        record = self._run(portal, "run-z", seed=3, run_index=7)
        assert record.run_index == 7

    def test_detail_views_resolve_per_run(self):
        portal = DataPortal()
        self._run(portal, "run-a", seed=1)
        self._run(portal, "run-b", seed=2)
        detail = portal.detail_view("run-b")
        assert detail["run_index"] == 1
        assert detail["n_samples"] == 4


class TestBarcodesFollowTheSeed:
    """Regression: plate barcodes came from one process-wide counter, so the
    published ``plate_barcode`` of a seeded run depended on what ran before
    it in the same process."""

    @staticmethod
    def published_barcodes():
        app = ColorPickerApp(ExperimentConfig(n_samples=4, batch_size=4, seed=3))
        app.run()
        return [
            sample.plate_barcode
            for record in app.portal.search()
            for sample in record.samples
        ]

    def test_identical_runs_publish_identical_barcodes(self):
        first = self.published_barcodes()
        second = self.published_barcodes()
        assert first == second == ["sciclops-t0-0001"] * 4
