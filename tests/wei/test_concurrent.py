"""Tests for the event-driven concurrent workflow engine."""

import gc
import weakref

import pytest

from repro.core.protocol import build_mix_protocol
from repro.hardware.labware import Plate
from repro.sim.faults import FaultPolicy
from repro.wei.concurrent import ConcurrencyError, ConcurrentWorkflowEngine
from repro.wei.workflow import WorkflowError, WorkflowSpec


def mix_spec(ot2: str) -> WorkflowSpec:
    """The staging="ot2" mix chain: mix, visit the camera, come back."""
    deck_location = f"{ot2}.deck"
    spec = WorkflowSpec(name=f"mix_{ot2}")
    spec.add_step(ot2, "run_protocol", protocol="$payload.protocol")
    spec.add_step("pf400", "transfer", source=deck_location, target="camera.stage")
    spec.add_step("camera", "take_picture")
    spec.add_step("pf400", "transfer", source="camera.stage", target=deck_location)
    return spec


def stage_lane(workcell, ot2: str, wells_offset: int = 0):
    """Put a fresh plate on the OT-2 deck and fill its reservoirs."""
    device = workcell.module(ot2).device
    plate = Plate(barcode=f"bench-{ot2}")
    workcell.deck.place(plate, device.deck_location)
    for reservoir in device.reservoirs.values():
        reservoir.fill()
    return plate


def protocol_for(workcell, n_wells: int, start: int = 0, name: str = "proto"):
    dye_names = workcell.chemistry.dyes.names
    plate = Plate(barcode="naming-only")
    wells = plate.empty_wells[start : start + n_wells]
    ratios = [[0.25, 0.25, 0.25, 0.25]] * n_wells
    return build_mix_protocol(
        name=name, wells=wells, ratios=ratios, dye_names=dye_names, max_component_volume_ul=40.0
    )


class TestConcurrentExecution:
    def test_two_lanes_interleave_and_beat_sequential(self, make_workcell):
        """The core Section 4 claim: two OT-2s, one workload, smaller makespan."""
        def run(n_ot2, concurrent):
            workcell = make_workcell(seed=11, n_ot2=n_ot2)
            lanes = [name for name, _ in workcell.ot2_barty_pairs()][:2]
            payloads = []
            specs = []
            for index in range(4):
                ot2 = lanes[index % len(lanes)]
                specs.append(mix_spec(ot2))
                payloads.append({"protocol": protocol_for(workcell, 8, start=8 * (index // len(lanes)))})
            for ot2 in lanes:
                stage_lane(workcell, ot2)
            engine = ConcurrentWorkflowEngine(workcell)
            if concurrent:
                results = engine.run_all(specs, payloads)
            else:
                # Baseline: the same specs one at a time through the engine.
                results = [engine.run_all([s], [p])[0] for s, p in zip(specs, payloads)]
            return engine.makespan, results

        sequential_makespan, _ = run(2, concurrent=False)
        concurrent_makespan, results = run(2, concurrent=True)
        assert all(result.success for result in results)
        assert concurrent_makespan < sequential_makespan
        # Mix time dominates, so two lanes should get close to a 2x speedup.
        assert concurrent_makespan < 0.75 * sequential_makespan

    def test_module_reservations_never_overlap(self, make_workcell):
        workcell = make_workcell(seed=5, n_ot2=2)
        for ot2 in ("ot2", "ot2_2"):
            stage_lane(workcell, ot2)
        engine = ConcurrentWorkflowEngine(workcell)
        specs = [mix_spec("ot2"), mix_spec("ot2_2"), mix_spec("ot2"), mix_spec("ot2_2")]
        payloads = [
            {"protocol": protocol_for(workcell, 4, start=4 * (i // 2))} for i in range(4)
        ]
        engine.run_all(specs, payloads)
        for name, timeline in engine.timelines.items():
            intervals = sorted(timeline.intervals)
            for (_, end), (start, _) in zip(intervals, intervals[1:]):
                assert start >= end - 1e-9, f"overlapping reservations on {name}"

    def test_results_match_submission_order_and_are_logged(self, make_workcell):
        workcell = make_workcell(seed=2, n_ot2=2)
        for ot2 in ("ot2", "ot2_2"):
            stage_lane(workcell, ot2)
        engine = ConcurrentWorkflowEngine(workcell)
        results = engine.run_all(
            [mix_spec("ot2"), mix_spec("ot2_2")],
            [{"protocol": protocol_for(workcell, 2)}, {"protocol": protocol_for(workcell, 2)}],
        )
        assert [r.workflow_name for r in results] == ["mix_ot2", "mix_ot2_2"]
        assert engine.runs_completed == 2
        assert engine.run_logger.n_runs == 2
        # Step values keep working through the concurrent path.
        assert "camera.take_picture" in results[0].step_values()

    def test_camera_stage_contention_is_serialised(self, make_workcell):
        """Both lanes photograph on the single camera nest without colliding."""
        workcell = make_workcell(seed=7, n_ot2=2)
        for ot2 in ("ot2", "ot2_2"):
            stage_lane(workcell, ot2)
        engine = ConcurrentWorkflowEngine(workcell)
        results = engine.run_all(
            [mix_spec("ot2"), mix_spec("ot2_2")],
            [{"protocol": protocol_for(workcell, 2)}, {"protocol": protocol_for(workcell, 2)}],
        )
        assert all(result.success for result in results)
        # The camera.stage slot is held from arrival to departure; those
        # windows must not overlap between the two plates.
        windows = []
        for result in results:
            arrive = next(s for s in result.steps if s.action == "transfer" and s.step_name.endswith(".1"))
            depart = next(s for s in result.steps if s.step_name.endswith(".3"))
            windows.append((arrive.end_time, depart.end_time))
        windows.sort()
        assert windows[1][0] >= windows[0][1] - 1e-9
        assert not workcell.deck.is_occupied("camera.stage")

    def test_deterministic_given_same_seed(self, make_workcell):
        def makespan():
            workcell = make_workcell(seed=3, n_ot2=2)
            for ot2 in ("ot2", "ot2_2"):
                stage_lane(workcell, ot2)
            engine = ConcurrentWorkflowEngine(workcell)
            engine.run_all(
                [mix_spec("ot2"), mix_spec("ot2_2")],
                [{"protocol": protocol_for(workcell, 3)}, {"protocol": protocol_for(workcell, 3)}],
            )
            return engine.makespan

        assert makespan() == pytest.approx(makespan())


class TestFaultsAndFailures:
    def test_recoverable_failures_are_retried(self, make_workcell):
        workcell = make_workcell(
            seed=3,
            fault_policy=FaultPolicy(command_failure={"sciclops": 0.4}, unrecoverable_fraction=0.0),
        )
        engine = ConcurrentWorkflowEngine(workcell, max_retries=25)
        spec = WorkflowSpec(name="stubborn")
        for _ in range(6):
            spec.add_step("sciclops", "status")
        result = engine.run_all([spec])[0]
        assert result.success
        assert sum(step.retries for step in result.steps) > 0

    def test_exhausted_retries_fail_the_run_and_are_recorded(self, make_workcell):
        workcell = make_workcell(
            seed=3,
            fault_policy=FaultPolicy(command_failure={"sciclops": 1.0}, unrecoverable_fraction=0.0),
        )
        engine = ConcurrentWorkflowEngine(workcell, max_retries=1)
        handle = engine.submit(WorkflowSpec(name="doomed").add_step("sciclops", "status"))
        with pytest.raises(WorkflowError):
            engine.run_until_complete()
        assert handle.done and not handle.success
        assert engine.runs_failed == 1
        assert not engine.run_logger.runs[0].success

    def test_stalled_execution_raises_concurrency_error(self, make_workcell):
        workcell = make_workcell(seed=1)
        # A plate sits on the camera stage and nothing will ever remove it.
        workcell.deck.place(Plate(barcode="blocker"), "camera.stage")
        workcell.deck.place(Plate(barcode="mover"), "ot2.deck")
        engine = ConcurrentWorkflowEngine(workcell)
        spec = WorkflowSpec(name="stuck").add_step(
            "pf400", "transfer", source="ot2.deck", target="camera.stage"
        )
        engine.submit(spec)
        with pytest.raises(ConcurrencyError, match="stalled"):
            engine.run_until_complete()


class TestPrograms:
    def test_program_protocol_roundtrip(self, make_workcell):
        workcell = make_workcell(seed=9)
        engine = ConcurrentWorkflowEngine(workcell)

        def program():
            spec = WorkflowSpec(name="fetch").add_step("sciclops", "get_plate")
            result = yield ("workflow", spec, None)
            yield ("sleep", 30.0)
            invocation = yield ("action", "pf400", "move_home", {})
            return (result.success, invocation.module)

        handle = engine.submit_program(program(), name="demo")
        engine.run_until_complete()
        assert handle.success
        assert handle.result == (True, "pf400")
        assert engine.makespan > 30.0

    def test_finished_program_workflows_are_not_retained(self, make_workcell):
        """A long-lived engine (a campaign's workcell) must not keep every
        workflow result -- and the camera frame in it -- its programs ever
        requested; its run log keeps the timing record only."""
        workcell = make_workcell(seed=9)
        engine = ConcurrentWorkflowEngine(workcell)
        results = []

        def program():
            spec = WorkflowSpec(name="fetch").add_step("sciclops", "get_plate")
            result = yield ("workflow", spec, None)
            results.append(weakref.ref(result))

        engine.submit_program(program())
        engine.run_until_complete()
        gc.collect()
        assert results[0]() is None
        assert engine.run_logger.runs[0].steps[0].action == "get_plate"
        assert engine.run_logger.runs[0].steps[0].return_value is None

    def test_workflow_failure_is_thrown_into_program(self, make_workcell):
        workcell = make_workcell(
            seed=3,
            fault_policy=FaultPolicy(command_failure={"sciclops": 1.0}, unrecoverable_fraction=0.0),
        )
        engine = ConcurrentWorkflowEngine(workcell, max_retries=0)

        def program():
            spec = WorkflowSpec(name="doomed").add_step("sciclops", "status")
            try:
                yield ("workflow", spec, None)
            except WorkflowError:
                return "recovered"
            return "unreachable"

        handle = engine.submit_program(program(), name="recoverer")
        engine.run_until_complete(raise_errors=False)
        assert handle.result == "recovered"

    def test_unknown_request_kind_errors_the_program(self, make_workcell):
        workcell = make_workcell(seed=1)
        engine = ConcurrentWorkflowEngine(workcell)

        def program():
            yield ("teleport", "ot2")

        handle = engine.submit_program(program(), name="bad")
        with pytest.raises(ValueError, match="teleport"):
            engine.run_until_complete()
        assert handle.done and handle.error is not None


class TestValidation:
    def test_negative_retries_rejected(self, make_workcell):
        workcell = make_workcell(seed=1)
        with pytest.raises(ValueError):
            ConcurrentWorkflowEngine(workcell, max_retries=-1)

    def test_mismatched_payloads_rejected(self, make_workcell):
        workcell = make_workcell(seed=1)
        engine = ConcurrentWorkflowEngine(workcell)
        with pytest.raises(ValueError):
            engine.run_all([WorkflowSpec(name="a").add_step("sciclops", "status")], [None, None])
