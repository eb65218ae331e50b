"""Tests for work-stealing lane assignment and the elastic multi-workcell coordinator."""

import pytest

from repro.sim.durations import paper_calibrated_durations
from repro.wei.coordinator import MultiWorkcellCoordinator
from repro.wei.workflow import WorkflowError


def sleeper(duration, marker=None):
    """A program that occupies its lane for ``duration`` simulated seconds."""
    yield ("sleep", float(duration))
    return marker if marker is not None else duration


class FactoryFixtures:
    """Mixin exposing the repo-root factory fixtures as instance helpers.

    Engine and fleet construction lives in the root ``conftest.py``
    (``make_engine`` / ``make_fleet``); this mixin binds them per test so
    helper methods like ``run_fleet`` need no fixture plumbing of their own.
    """

    @pytest.fixture(autouse=True)
    def _factories(self, make_engine, make_fleet):
        self.make_engine = make_engine
        self.make_fleet = make_fleet

    def fresh_engine(self, seed=0):
        return self.make_engine(seed=seed)

    def late_engine(self, name="workcell-late", seed=99):
        return self.make_engine(seed=seed, name=name)


#: Skewed durations where pinning job i to lane i % 2 is badly unbalanced:
#: static lanes get [100, 1, 1] = 102 and [1, 1, 1] = 3, while work stealing
#: gives the long job one lane (100) and the five short ones the other (5).
SKEWED = [100.0, 1.0, 1.0, 1.0, 1.0, 1.0]


class TestWorkStealingLanes(FactoryFixtures):
    """Several lanes on one workcell, all claiming through the coordinator."""

    def run_lanes(self, durations, n_lanes, assignment="work-stealing", markers=None):
        coordinator = MultiWorkcellCoordinator([self.fresh_engine()])
        markers = markers if markers is not None else [None] * len(durations)
        results = coordinator.run_jobs(
            list(zip(durations, markers)),
            lambda job, _shard, _lane: sleeper(*job),
            lanes=[list(range(n_lanes))],
            assignment=assignment,
        )
        return coordinator, results

    def test_beats_static_pinning_on_skewed_durations(self):
        static, _ = self.run_lanes(SKEWED, 2, assignment="static")
        stealing, _ = self.run_lanes(SKEWED, 2)
        assert stealing.makespan <= static.makespan
        assert stealing.makespan == pytest.approx(100.0)
        assert static.makespan == pytest.approx(102.0)

    def test_every_job_lands_exactly_once_in_order(self):
        markers = [f"job-{i}" for i in range(len(SKEWED))]
        _, results = self.run_lanes(SKEWED, 2, markers=markers)
        assert results == markers  # in submission order, none dropped or doubled

    def test_more_lanes_than_jobs(self):
        _, results = self.run_lanes([5.0], 3)
        assert results == [5.0]

    def test_rejects_zero_lanes(self):
        with pytest.raises(ValueError):
            self.run_lanes([1.0], 0)

    def test_program_error_propagates(self):
        def doomed(_job, _shard, _lane):
            yield ("sleep", 1.0)
            raise WorkflowError("boom")

        coordinator = MultiWorkcellCoordinator([self.fresh_engine()])
        with pytest.raises(WorkflowError, match="boom"):
            coordinator.run_jobs([None], doomed)


class TestCoordinator(FactoryFixtures):
    def run_fleet(self, assignment):
        coordinator = self.make_fleet(2, seed=7)
        results = coordinator.run_jobs(
            list(SKEWED),
            lambda duration, shard, lane: sleeper(duration),
            assignment=assignment,
        )
        return coordinator, results

    def test_work_stealing_beats_static_across_workcells(self):
        stealing, _ = self.run_fleet("work-stealing")
        static, _ = self.run_fleet("static")
        assert stealing.makespan <= static.makespan
        assert stealing.makespan == pytest.approx(100.0)
        assert static.makespan == pytest.approx(102.0)

    def test_results_and_assignments_cover_every_job_once(self):
        coordinator, results = self.run_fleet("work-stealing")
        assert results == SKEWED
        assert all(placement is not None for placement in coordinator.assignments)
        assert sorted(p.job_index for p in coordinator.assignments) == list(range(len(SKEWED)))
        assert {p.shard for p in coordinator.assignments} == {0, 1}

    def test_shard_makespans_and_fleet_makespan(self):
        coordinator, _ = self.run_fleet("work-stealing")
        shards = coordinator.shard_makespans()
        assert len(shards) == 2
        assert coordinator.makespan == max(shards)

    def test_merged_action_log_is_time_sorted_and_tagged(self):
        coordinator = self.make_fleet(2, seed=7)

        def check(_job, shard, _lane):
            invocation = yield ("action", "sciclops", "status", {})
            return invocation.module

        coordinator.run_jobs([0, 1, 2, 3], check)
        merged = coordinator.merged_action_log()
        assert len(merged) == 4
        assert {entry["workcell"] for entry in merged} == {"workcell-0", "workcell-1"}
        starts = [entry["start_time"] for entry in merged]
        assert starts == sorted(starts)

    def test_utilisation_views(self):
        coordinator, _ = self.run_fleet("work-stealing")
        merged = coordinator.utilisation()
        # Every module of every shard appears, tagged with its workcell...
        assert any(key.endswith("@workcell-0") for key in merged)
        assert any(key.endswith("@workcell-1") for key in merged)
        # ...and sleeping programs never reserve a device.
        assert coordinator.overall_utilisation() == 0.0

    def test_determinism(self):
        first, first_results = self.run_fleet("work-stealing")
        second, second_results = self.run_fleet("work-stealing")
        assert first_results == second_results
        assert first.makespan == pytest.approx(second.makespan)
        assert [p.shard for p in first.assignments] == [p.shard for p in second.assignments]

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiWorkcellCoordinator([])
        with pytest.raises(ValueError):
            self.make_fleet(0)
        engine = self.fresh_engine()
        with pytest.raises(ValueError):
            MultiWorkcellCoordinator([engine, engine])
        coordinator = self.make_fleet(1, seed=1)
        with pytest.raises(ValueError, match="assignment"):
            coordinator.run_jobs([1], lambda j, _shard, _lane: sleeper(j), assignment="psychic")


class TestLptOrdering(FactoryFixtures):
    """assignment="stealing-lpt": the shared queue is pulled longest-first."""

    #: Short jobs first is the pathological FIFO order: with two lanes the
    #: 30-second job starts last (makespan 40), while LPT starts it first
    #: (makespan 30, the optimum).
    SHORT_FIRST = [10.0, 10.0, 10.0, 30.0]

    def run_fleet(self, assignment):
        coordinator = self.make_fleet(2, seed=7)
        completion_times = {}
        coordinator.add_run_listener(
            lambda completion: completion_times.setdefault(completion.job_index, completion.time)
        )
        results = coordinator.run_jobs(
            list(self.SHORT_FIRST),
            lambda duration, shard, lane: sleeper(duration),
            assignment=assignment,
            duration_hint=lambda duration, _durations: duration,
        )
        return coordinator, results, completion_times

    def test_lpt_beats_fifo_order_on_adversarial_queue(self):
        fifo, _, fifo_times = self.run_fleet("work-stealing")
        lpt, _, lpt_times = self.run_fleet("stealing-lpt")
        assert fifo.makespan == pytest.approx(40.0)
        assert lpt.makespan == pytest.approx(30.0)
        # FIFO claims the 30s job last (starts at t=10); LPT claims it first
        # (starts at t=0), which is the whole point of the ordering.
        assert fifo_times[3] == pytest.approx(40.0)
        assert lpt_times[3] == pytest.approx(30.0)

    def test_results_stay_in_submission_order(self):
        coordinator, results, completion_times = self.run_fleet("stealing-lpt")
        assert results == self.SHORT_FIRST
        assert sorted(p.job_index for p in coordinator.assignments) == [0, 1, 2, 3]
        # The long job ran alone on its shard (claimed first, at t=0), so the
        # three short jobs all executed back-to-back on the other shard.
        long_shard = coordinator.assignments[3].shard
        assert all(
            coordinator.assignments[i].shard != long_shard for i in range(3)
        )
        assert [completion_times[i] for i in range(3)] == [
            pytest.approx(10.0), pytest.approx(20.0), pytest.approx(30.0)
        ]

    def test_lpt_requires_a_duration_hint(self):
        coordinator = self.make_fleet(1, seed=1)
        with pytest.raises(ValueError, match="duration_hint"):
            coordinator.run_jobs(
                [1.0], lambda j, _shard, _lane: sleeper(j), assignment="stealing-lpt"
            )

    def test_ties_keep_submission_order(self):
        coordinator = self.make_fleet(1, seed=3)
        results = coordinator.run_jobs(
            [("a", 5.0), ("b", 5.0), ("c", 5.0)],
            lambda job, shard, lane: sleeper(job[1], marker=job[0]),
            assignment="stealing-lpt",
            duration_hint=lambda job, _durations: job[1],
        )
        assert results == ["a", "b", "c"]


def job_cost(job, table):
    """Simulated duration of a synthetic per-module workload on ``table``.

    Jobs are ``(kind, count)`` pairs: ``count`` arm transfers or ``count``
    single-well OT-2 protocols.  Used both as the program's sleep time (per
    shard, against that shard's own table) and as the duration hint.
    """
    kind, count = job
    if kind == "transfer":
        return count * table.mean("pf400", "transfer")
    return count * table.mean("ot2", "run_protocol", units=1)


class TestLaneAwareLpt(FactoryFixtures):
    """stealing-lpt ranks by each lane's own table.

    Both shards run with pf400 sped up 8x, so transfers that the default
    paper table ranks as the longest jobs (10 x 40 s = 400 s) actually take
    50 s, while the OT-2 job (288 s) is the true straggler.  A speed-blind
    hint front-loads the transfers and starts the OT-2 job last; the
    lane-aware hint starts it first.
    """

    JOBS = [("transfer", 10)] * 3 + [("protocol", 2)]

    def run_fleet(self, hint):
        coordinator = self.make_fleet(2, seed=7, module_speeds={"pf400": 8.0})

        def make_program(job, shard_id, lane):
            return sleeper(job_cost(job, coordinator.engines[shard_id].workcell.durations))

        coordinator.run_jobs(
            self.JOBS, make_program, assignment="stealing-lpt", duration_hint=hint
        )
        return coordinator

    def test_lane_aware_hint_beats_speed_blind_hint(self):
        paper = paper_calibrated_durations()
        blind = self.run_fleet(lambda job, _table: job_cost(job, paper))
        aware = self.run_fleet(lambda job, table: job_cost(job, table))
        # Blind order [T, T, T, O]: the OT-2 job starts only at t=50 and
        # finishes at 338.  Lane-aware order [O, T, T, T]: it starts at t=0.
        assert blind.makespan == pytest.approx(338.0)
        assert aware.makespan == pytest.approx(288.0)
        assert aware.makespan < blind.makespan


class TestLookahead(FactoryFixtures):
    """assignment="lookahead": online re-ranking when a lane frees."""

    #: One big OT-2 job (10 protocols) and four small ones on a fleet whose
    #: second shard runs OT-2 twice as fast: the big job takes 1440 s on
    #: shard 0 but 720 s on shard 1.
    JOBS = [("protocol", 10)] + [("protocol", 1)] * 4
    SPEEDS = [{}, {"ot2": 2.0}]

    def run_fleet(self, assignment, hint):
        coordinator = self.make_fleet(2, seed=7, module_speeds=self.SPEEDS)

        def make_program(job, shard_id, lane):
            return sleeper(job_cost(job, coordinator.engines[shard_id].workcell.durations))

        coordinator.run_jobs(self.JOBS, make_program, assignment=assignment, duration_hint=hint)
        return coordinator

    def test_lookahead_beats_speed_blind_lpt_on_skewed_fleet(self):
        paper = paper_calibrated_durations()
        blind = self.run_fleet("stealing-lpt", lambda job, _table: job_cost(job, paper))
        lookahead = self.run_fleet("lookahead", lambda job, table: job_cost(job, table))
        # Speed-blind LPT hands the longest job to whichever lane claims
        # first (shard 0, the slow one); lookahead defers the slow lane and
        # routes it to the fast shard.
        assert blind.assignments[0].shard == 0
        assert lookahead.assignments[0].shard == 1
        assert blind.makespan == pytest.approx(1440.0)
        assert lookahead.makespan == pytest.approx(720.0)
        assert lookahead.makespan < blind.makespan

    def test_every_job_completes_exactly_once(self):
        lookahead = self.run_fleet("lookahead", lambda job, table: job_cost(job, table))
        assert sorted(p.job_index for p in lookahead.assignments) == list(range(len(self.JOBS)))

    def test_drift_converges_on_a_biased_hint(self):
        """A hint that predicts half the true duration drives the EWMA of
        observed/predicted to ~2x on every shard, visible in FleetStatus."""
        coordinator = self.make_fleet(2, seed=7)
        coordinator.run_jobs(
            [20.0] * 8,
            lambda duration, shard, lane: sleeper(duration),
            assignment="lookahead",
            duration_hint=lambda duration, _durations: duration / 2.0,
        )
        drifts = [shard.predictor_drift for shard in coordinator.status().shards]
        assert all(drift == pytest.approx(2.0) for drift in drifts)

    def test_accurate_hint_keeps_drift_near_one(self):
        lookahead = self.run_fleet("lookahead", lambda job, table: job_cost(job, table))
        drifts = [shard.predictor_drift for shard in lookahead.status().shards]
        assert all(drift == pytest.approx(1.0) for drift in drifts if drift is not None)

    def test_lookahead_requires_a_duration_hint(self):
        coordinator = self.make_fleet(1, seed=1)
        with pytest.raises(ValueError, match="duration_hint"):
            coordinator.run_jobs(
                [1.0], lambda j, _shard, _lane: sleeper(j), assignment="lookahead"
            )

    def test_status_drift_is_none_before_any_completion(self):
        coordinator = self.make_fleet(2, seed=3)
        assert all(shard.predictor_drift is None for shard in coordinator.status().shards)
        assert all(
            shard.to_dict()["predictor_drift"] is None for shard in coordinator.status().shards
        )


class TestElasticFleet(FactoryFixtures):
    def test_attach_mid_campaign_joins_shared_queue(self):
        coordinator = self.make_fleet(2, seed=7)
        attached = {}

        def attach_once(completion):
            if not attached:
                attached["shard"] = coordinator.attach_workcell(self.late_engine())

        coordinator.add_run_listener(attach_once)
        jobs = [10.0] * 8
        results = coordinator.run_jobs(jobs, lambda d, _shard, _lane: sleeper(d))
        assert results == jobs
        assert attached["shard"] == 2
        # The late shard claimed work from the shared queue.
        shards_used = {p.shard for p in coordinator.assignments}
        assert 2 in shards_used
        assert [e["event"] for e in coordinator.fleet_events] == ["workcell-attached"]
        assert coordinator.fleet_events[0]["workcell"] == "workcell-late"

    def test_drain_mid_campaign_finishes_in_flight_then_retires(self):
        coordinator = self.make_fleet(2, seed=7)

        def drain_shard0(completion):
            if completion.assignment.shard == 0 and completion.job_index == 0:
                coordinator.drain_workcell(0)

        coordinator.add_run_listener(drain_shard0)
        jobs = [10.0] * 6
        results = coordinator.run_jobs(jobs, lambda d, _shard, _lane: sleeper(d))
        assert results == jobs
        # Shard 0 claimed exactly its in-flight job; everything after the
        # drain request went to shard 1.
        shard_counts = [p.shard for p in coordinator.assignments]
        assert shard_counts.count(0) == 1
        assert shard_counts.count(1) == 5
        status = coordinator.status()
        assert status.shards[0].state == "drained"
        assert status.shards[1].state == "active"
        events = [e["event"] for e in coordinator.fleet_events]
        assert events == ["drain-requested", "workcell-retired"]
        retirement = coordinator.fleet_events[-1]
        assert retirement["jobs_completed"] == 1
        assert retirement["start_time"] >= 10.0

    def test_drain_without_campaign_retires_immediately(self):
        coordinator = self.make_fleet(2, seed=3)
        coordinator.drain_workcell(1)
        assert coordinator.status().shards[1].state == "drained"
        results = coordinator.run_jobs([1.0, 2.0, 3.0], lambda d, _shard, _lane: sleeper(d))
        assert results == [1.0, 2.0, 3.0]
        assert {p.shard for p in coordinator.assignments} == {0}

    def test_attach_before_campaign_participates_from_the_start(self):
        coordinator = self.make_fleet(1, seed=3)
        coordinator.attach_workcell(self.late_engine())
        results = coordinator.run_jobs([5.0] * 4, lambda d, _shard, _lane: sleeper(d))
        assert results == [5.0] * 4
        assert {p.shard for p in coordinator.assignments} == {0, 1}

    def test_elasticity_rejected_during_static_campaign(self):
        coordinator = self.make_fleet(2, seed=3)

        def attach(completion):
            coordinator.attach_workcell(self.late_engine())

        coordinator.add_run_listener(attach)
        with pytest.raises(ValueError, match="statically-pinned"):
            coordinator.run_jobs([1.0] * 4, lambda d, _shard, _lane: sleeper(d), assignment="static")

    def test_drain_last_active_shard_with_pending_jobs_rejected(self):
        coordinator = self.make_fleet(1, seed=3)

        def drain(completion):
            coordinator.drain_workcell(0)

        coordinator.add_run_listener(drain)
        with pytest.raises(ValueError, match="last active"):
            coordinator.run_jobs([1.0] * 3, lambda d, _shard, _lane: sleeper(d))

    def test_drain_validation(self):
        coordinator = self.make_fleet(2, seed=3)
        with pytest.raises(ValueError, match="unknown shard"):
            coordinator.drain_workcell(9)
        coordinator.drain_workcell(0)
        with pytest.raises(ValueError, match="already"):
            coordinator.drain_workcell(0)
        with pytest.raises(ValueError, match="already part"):
            coordinator.attach_workcell(coordinator.engines[1])

    def test_status_snapshots_during_and_after_campaign(self):
        coordinator = self.make_fleet(2, seed=7)
        snapshots = []
        coordinator.add_run_listener(lambda completion: snapshots.append(coordinator.status()))
        coordinator.run_jobs([10.0] * 6, lambda d, _shard, _lane: sleeper(d))
        first = snapshots[0]
        # At the first completion two jobs are claimed, four still queued,
        # and the other shard's claim is in flight.
        assert first.time == pytest.approx(10.0)
        assert first.queue_depth == 4
        assert first.n_active == 2
        assert {shard.in_flight for shard in first.shards} == {0, 1}
        final = coordinator.status()
        assert final.queue_depth == 0
        assert all(shard.in_flight == 0 for shard in final.shards)
        assert sum(shard.completed for shard in final.shards) == 6
        assert [shard.to_dict()["workcell"] for shard in final.shards] == [
            "workcell-0",
            "workcell-1",
        ]

    def test_merged_log_includes_lifecycle_events(self):
        coordinator = self.make_fleet(2, seed=7)

        def drain_shard0(completion):
            if completion.assignment.shard == 0:
                coordinator.drain_workcell(0)

        coordinator.add_run_listener(drain_shard0)
        coordinator.run_jobs([10.0] * 4, lambda d, _shard, _lane: sleeper(d))
        merged = coordinator.merged_action_log()
        lifecycle = [entry for entry in merged if "event" in entry]
        assert [entry["event"] for entry in lifecycle] == ["drain-requested", "workcell-retired"]
        assert all(entry["workcell"] == "workcell-0" for entry in lifecycle)

    def test_listener_registration_order_and_removal(self):
        coordinator = self.make_fleet(1, seed=3)
        order = []
        first = coordinator.add_run_listener(lambda c: order.append("first"))
        coordinator.add_run_listener(lambda c: order.append("second"))
        coordinator.run_jobs([1.0], lambda d, _shard, _lane: sleeper(d))
        assert order == ["first", "second"]
        coordinator.remove_run_listener(first)
        coordinator.run_jobs([1.0], lambda d, _shard, _lane: sleeper(d))
        assert order == ["first", "second", "second"]


class TestDrainDuringTwoPhaseAction(FactoryFixtures):
    def test_pending_get_plate_completes_before_retirement(self):
        """A drain issued while a sciclops ``get_plate`` submission is pending
        must still apply the completion (the plate lands on the exchange)
        before the shard retires."""
        coordinator = self.make_fleet(2, seed=7)

        def make_program(job, shard, lane):
            if job == "get_plate":
                def fetch():
                    invocation = yield ("action", "sciclops", "get_plate", {})
                    return invocation
                return fetch()
            return sleeper(30.0, marker=job)

        # get_plate takes ~55 s; the drain event fires at t=1, squarely
        # between the submission (t=0) and its scheduled completion.
        engine0 = coordinator.engines[0]
        engine0.scheduler.schedule_at(1.0, lambda: coordinator.drain_workcell(0))
        results = coordinator.run_jobs(["get_plate", "sleep-a", "sleep-b"], make_program)

        # The two-phase completion was applied: the plate physically sits on
        # the exchange, and the program received its invocation.
        sciclops = engine0.workcell.module("sciclops").device
        assert engine0.workcell.deck.is_occupied(sciclops.exchange_location)
        assert results[0] is not None
        assert results[0].action == "get_plate"
        assert results[1:] == ["sleep-a", "sleep-b"]

        # The shard retired only after the completion landed.
        status = coordinator.status()
        assert status.shards[0].state == "drained"
        retirement = coordinator.fleet_events[-1]
        assert retirement["event"] == "workcell-retired"
        assert retirement["start_time"] >= 10.0
        # Everything the draining shard did not finish went to shard 1.
        shard_counts = [p.shard for p in coordinator.assignments]
        assert shard_counts == [0, 1, 1]
