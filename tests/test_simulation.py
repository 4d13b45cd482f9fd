"""End-to-end tests for the multi-session fault-injection simulator."""

from __future__ import annotations

import json

import pytest

from repro.errors import ValidationError
from repro.planner import synthetic_requests
from repro.sim import (
    FlashCrowd,
    LinkDegradation,
    PoissonArrivals,
    RegionalOutage,
    ServiceCrash,
    SimulationConfig,
    SimulationRun,
    SimWorld,
    UniformArrivals,
    build_scenario,
    percentile,
    run_simulation,
    scenario_names,
)
from repro.sim.report import ABORTED, COMPLETED, REJECTED, TRUNCATED
from repro.workloads.paper import figure6_scenario
from repro.workloads.synthetic import SyntheticConfig, generate_scenario


@pytest.fixture(scope="module")
def small_scenario():
    return generate_scenario(
        SyntheticConfig(seed=5, n_services=12, n_formats=8, n_nodes=8, extra_links=6)
    )


@pytest.fixture(scope="module")
def chain_scenario():
    """No extra decoders: every feasible chain runs through the backbone."""
    return generate_scenario(
        SyntheticConfig(
            seed=5,
            n_services=12,
            n_formats=8,
            n_nodes=8,
            extra_links=6,
            extra_decoders=0,
        )
    )


def small_config(small_scenario, **overrides):
    defaults = dict(
        scenario=small_scenario,
        name="test",
        seed=11,
        sessions=12,
        arrivals=UniformArrivals(over_s=20.0),
        session_duration_s=10.0,
        duration_jitter=0.2,
        segment_s=2.0,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


#: E16 (benchmarks/results/admission.txt): chain, fps and S of the k-th
#: identical client admitted on Figure 6 at floor S >= 0.10.
E16_ROWS = [
    ("sender,T7,receiver", 19.75, 0.658),
    ("sender,T8,receiver", 16.00, 0.533),
    ("sender,T6,receiver", 15.50, 0.517),
    ("sender,T10,T20,receiver", 15.20, 0.507),
    ("sender,T10,receiver", 14.80, 0.493),
    ("sender,T1,T11,receiver", 12.50, 0.417),
    ("sender,T2,T13,receiver", 12.40, 0.413),
    ("sender,T3,T14,receiver", 12.20, 0.407),
    ("sender,T2,T12,receiver", 10.50, 0.350),
]


class TestFigure6Admission:
    """E16 on the shared world: plan, apply the floor, reserve, release."""

    @staticmethod
    def admit(world, request, floor=0.10):
        plan = world.plan(request)
        if plan is None or plan.result.satisfaction < floor:
            return None
        leases = world.reserve_plan(plan, request)
        return None if leases is None else (plan, leases)

    def test_successive_admissions_reproduce_e16(self):
        world = SimWorld(figure6_scenario())
        (request,) = synthetic_requests(world.scenario, 1, 1)
        admitted = []
        while len(admitted) <= 40:
            session = self.admit(world, request)
            if session is None:
                break
            admitted.append(session)
        assert [
            (
                ",".join(plan.result.path),
                round(plan.result.delivered_frame_rate, 2),
                round(plan.result.satisfaction, 3),
            )
            for plan, _ in admitted
        ] == E16_ROWS
        # The rejected tenth arrival reserved nothing.
        assert len(world.ledger) == sum(len(leases) for _, leases in admitted)
        # Tearing down the first session revives the T7 chain.
        world.release(admitted[0][1])
        revived, leases = self.admit(world, request)
        assert revived.result.path == ("sender", "T7", "receiver")
        assert revived.result.satisfaction == pytest.approx(19.75 / 30.0, abs=1e-6)
        for _, held in admitted[1:] + [(revived, leases)]:
            world.release(held)
        assert len(world.ledger) == 0

    def test_floor_rejects_without_reserving(self):
        world = SimWorld(figure6_scenario())
        (request,) = synthetic_requests(world.scenario, 1, 1)
        first = self.admit(world, request, floor=0.6)
        assert first is not None  # 0.658 clears the floor
        assert self.admit(world, request, floor=0.6) is None
        assert len(world.ledger) == len(first[1])


def figure6_session(replan_threshold, factor=0.05, host="n7"):
    """E13: one 30 s Figure 6 session; ``host``'s links drop at t=10 s.

    ``host=None`` degrades every link.  Returns the outcome and the
    session's trace as ``(time, category, message)`` without fault lines.
    """
    scenario = figure6_scenario()
    faults = tuple(
        LinkDegradation(link.a, link.b, start_s=10.0, duration_s=30.0,
                        factor=factor)
        for link in scenario.topology.links()
        if host is None or host in link.endpoints()
    )
    run = SimulationRun(
        SimulationConfig(
            scenario=scenario,
            sessions=1,
            device_classes=1,
            arrivals=UniformArrivals(over_s=0.0),
            session_duration_s=30.0,
            duration_jitter=0.0,
            segment_s=1.0,
            replan_threshold=replan_threshold,
            abandon_after_stalls=0,
            faults=faults,
            horizon_s=30.0,
        )
    )
    (outcome,) = run.execute().outcomes
    return outcome, [
        (event.time_s, event.category, event.message)
        for event in run.sim.trace
        if event.category != "fault"
    ]


class TestFigure6Replanning:
    """E13 on the simulator: re-plan when T7's host collapses."""

    def test_collapse_switches_to_t8(self):
        outcome, timeline = figure6_session(replan_threshold=0.9)
        assert outcome.state == COMPLETED
        assert timeline == [
            (0.0, "admit", "session 1: sender,T7,receiver (S=0.658)"),
            (10.0, "degraded", "session 1: S=0.033 < floor 0.593"),
            (10.0, "replan",
             "session 1: switched to sender,T8,receiver (S=0.533)"),
            (30.0, "complete", "session 1: finished"),
        ]

    @pytest.mark.parametrize(
        "threshold, factor, host, replans, failed, mean",
        [
            # E13 adaptive: 10 s on T7 at 19.75 fps, 20 s on T8 at 16 fps.
            (0.9, 0.05, "n7", 1, 0, 0.554),
            # E13 stubborn: streams on the collapsed chain.
            (0.01, 0.05, "n7", 0, 0, 0.221),
            # Nothing degrades: never re-plans.
            (0.9, 1.0, "n7", 0, 0, 0.658),
            # Every link halves: the re-plan at each of the 21 segment
            # checks from t=10 to t=30 finds nothing better.
            (0.9, 0.5, None, 0, 21, 0.428),
        ],
        ids=["adaptive", "stubborn", "steady", "uniform-collapse"],
    )
    def test_outcomes(self, threshold, factor, host, replans, failed, mean):
        outcome, _ = figure6_session(threshold, factor=factor, host=host)
        assert outcome.replans == replans
        assert outcome.failed_replans == failed
        assert outcome.mean_satisfaction == pytest.approx(mean, abs=5e-4)


class TestDeterminism:
    def test_same_seed_same_digest_and_report(self, small_scenario):
        first = run_simulation(small_config(small_scenario))
        second = run_simulation(small_config(small_scenario))
        assert first.trace_digest == second.trace_digest
        assert first.to_dict() == second.to_dict()
        assert first.to_json() == second.to_json()

    def test_different_seed_different_trace(self, small_scenario):
        a = run_simulation(
            small_config(small_scenario, arrivals=PoissonArrivals(0.5), seed=1)
        )
        b = run_simulation(
            small_config(small_scenario, arrivals=PoissonArrivals(0.5), seed=2)
        )
        assert a.trace_digest != b.trace_digest

    def test_named_scenarios_deterministic(self):
        for name in scenario_names():
            r1 = run_simulation(build_scenario(name, seed=3, sessions=10))
            r2 = run_simulation(build_scenario(name, seed=3, sessions=10))
            assert r1.trace_digest == r2.trace_digest, name

    @pytest.mark.parametrize(
        "name, seed, sessions, digest",
        [
            ("failover-storm", 42, 60,
             "8b06d5654d20cbb0c66af9b66150183756c5c27412bbd22bbbc17f1c1aa311e0"),
            ("failover-storm", 0, 150,
             "be2df6bee7b33b2b121c8f4557d035c66b72c3b193dc1c5b26142a8b87e3bbd6"),
            ("link-churn", 42, 60,
             "dd17ded4df9dd3bc30eedea56c9cdf9960648c1baf796d71bc568feb896ac010"),
            ("gray-failure", 42, 150,
             "f74c9f36f04d51f51462e851b7db81c9e984d6cb7d50608e1ad5d918b51e1281"),
            ("policy-mix", 42, 150,
             "43150cf8dc2627b3728b7e1855d1777f95d5c402c2b6521824f906be30bad2f1"),
            ("live-event", 42, 80,
             "26e336fbbe3c1cd20e801878133df7f445aecdb5e874a84ff75b92652de05a2b"),
        ],
    )
    def test_golden_trace_digest(self, name, seed, sessions, digest):
        """Pinned digests: a change anywhere in planning that moves a single
        trace line shows up here, not only as a same-tree rerun mismatch."""
        report = run_simulation(build_scenario(name, seed=seed, sessions=sessions))
        assert report.trace_digest == digest

    def test_faults_change_the_trace(self):
        with_faults = run_simulation(
            build_scenario("failover-storm", seed=3, sessions=10)
        )
        without = run_simulation(
            build_scenario("failover-storm", seed=3, sessions=10, faults=False)
        )
        assert with_faults.trace_digest != without.trace_digest


class TestSteadyState:
    def test_uncontended_sessions_complete(self, small_scenario):
        report = run_simulation(small_config(small_scenario, sessions=6))
        assert report.sessions == 6
        assert report.completed + report.rejected == 6
        assert report.completed >= 1
        for outcome in report.outcomes:
            if outcome.state == COMPLETED:
                assert outcome.mean_satisfaction > 0.0
                assert outcome.stall_s == 0.0

    def test_outcomes_sorted_by_session_id(self, small_scenario):
        report = run_simulation(small_config(small_scenario))
        ids = [o.session_id for o in report.outcomes]
        assert ids == sorted(ids)

    def test_contention_rejects_at_admission(self, small_scenario):
        # Cram everyone into the same instant: capacity runs out and the
        # ledger-aware admission path must reject the overflow, not crash.
        report = run_simulation(
            small_config(
                small_scenario,
                sessions=60,
                arrivals=UniformArrivals(over_s=0.0),
            )
        )
        assert report.sessions == 60
        assert report.rejected > 0
        assert report.admitted + report.rejected == 60


class TestFaults:
    def test_service_crash_interrupts_and_recovers(self, chain_scenario):
        # Crash every backbone service mid-stream: every chain runs
        # through them (the device only decodes the backbone's output), so
        # live sessions must interrupt, replan or stall, and the run must
        # finish without an exception.
        backbone = [
            d.service_id
            for d in chain_scenario.catalog
            if d.service_id.startswith("S")
        ]
        faults = tuple(
            ServiceCrash(sid, start_s=4.0, downtime_s=6.0) for sid in backbone
        )
        report = run_simulation(
            small_config(
                chain_scenario,
                sessions=8,
                arrivals=UniformArrivals(over_s=2.0),
                session_duration_s=20.0,
                faults=faults,
            )
        )
        assert report.sessions == 8
        interruptions = sum(o.interruptions for o in report.outcomes)
        assert interruptions > 0
        # Once the services recover, sessions that lasted long enough
        # rejoin and finish.
        assert report.total_replans > 0 or report.total_failed_replans > 0

    def test_no_feasible_alternative_degrades_gracefully(self, small_scenario):
        """Mid-stream total outage with no alternative: sessions must end
        as aborted/abandoned/rejected with recorded events — never an
        uncaught exception."""
        nodes = [
            n
            for n in small_scenario.topology.node_ids()
            if n not in (small_scenario.sender_node, small_scenario.receiver_node)
        ]
        faults = (RegionalOutage(nodes=nodes, start_s=3.0, duration_s=60.0),)
        report = run_simulation(
            small_config(
                small_scenario,
                sessions=6,
                arrivals=UniformArrivals(over_s=1.0),
                session_duration_s=15.0,
                abandon_after_stalls=2,
                faults=faults,
            )
        )
        assert report.sessions == 6
        for outcome in report.outcomes:
            assert outcome.state in (
                COMPLETED,
                ABORTED,
                REJECTED,
                TRUNCATED,
                "abandoned",
            )
        # The dead middle of the network shows up as failures, not crashes.
        assert (
            report.total_failed_replans
            + report.abandoned_count
            + report.aborted
            + report.rejected
            > 0
        )

    def test_link_degradation_restores(self, small_scenario):
        world_probe = SimWorld(small_scenario)
        link = small_scenario.topology.links()[0]
        config = small_config(
            small_scenario,
            sessions=4,
            faults=(
                LinkDegradation(
                    link.a, link.b, start_s=2.0, duration_s=5.0, factor=0.0
                ),
            ),
        )
        run = SimulationRun(config)
        run.execute()
        # After the fault window the overlay must be clean again.
        assert run.world.link_factor(link.a, link.b) == 1.0
        assert world_probe.link_factor(link.a, link.b) == 1.0

    def test_effective_topology_scales_bandwidths(self):
        world = SimWorld(figure6_scenario())
        links = world.scenario.topology.links()
        for link in links:
            world.set_link_factor(link.a, link.b, 0.25)
        snapshot = world.effective_topology()
        for link in links:
            scaled = snapshot.get_link(link.a, link.b)
            assert scaled.bandwidth_bps == pytest.approx(link.bandwidth_bps * 0.25)
            assert scaled.delay_ms == link.delay_ms

    def test_flash_crowd_adds_sessions(self, small_scenario):
        report = run_simulation(
            small_config(
                small_scenario,
                sessions=5,
                faults=(FlashCrowd(start_s=5.0, sessions=7, over_s=2.0),),
            )
        )
        assert report.sessions == 12

    def test_fault_validation(self):
        with pytest.raises(ValidationError):
            LinkDegradation("a", "b", start_s=0.0, duration_s=0.0)
        with pytest.raises(ValidationError):
            LinkDegradation("a", "b", start_s=0.0, duration_s=1.0, factor=2.0)
        with pytest.raises(ValidationError):
            ServiceCrash("S1", start_s=0.0, downtime_s=-1.0)
        with pytest.raises(ValidationError):
            RegionalOutage(nodes=[], start_s=0.0, duration_s=1.0)
        with pytest.raises(ValidationError):
            FlashCrowd(start_s=0.0, sessions=0)


class TestHorizonAndBounds:
    def test_horizon_truncates_live_sessions(self, small_scenario):
        report = run_simulation(
            small_config(
                small_scenario,
                sessions=6,
                arrivals=UniformArrivals(over_s=2.0),
                session_duration_s=30.0,
                horizon_s=8.0,
            )
        )
        truncated = [o for o in report.outcomes if o.state == TRUNCATED]
        assert truncated
        assert report.horizon_s <= 8.0 + 1e-6

    def test_trace_ring_buffer_still_digests(self, small_scenario):
        bounded = run_simulation(
            small_config(small_scenario, trace_capacity=4)
        )
        unbounded = run_simulation(small_config(small_scenario))
        assert bounded.trace_dropped > 0
        assert bounded.trace_digest == unbounded.trace_digest
        assert bounded.trace_events == unbounded.trace_events


class TestReportExports:
    def test_json_round_trip(self, small_scenario):
        report = run_simulation(small_config(small_scenario))
        payload = json.loads(report.to_json())
        assert payload["scenario"] == "test"
        assert payload["fleet"]["sessions"] == report.sessions
        assert len(payload["sessions"]) == report.sessions
        slim = json.loads(report.to_json(include_sessions=False))
        assert "sessions" not in slim

    def test_markdown_contains_fleet_metrics(self, small_scenario):
        report = run_simulation(small_config(small_scenario))
        text = report.to_markdown()
        assert "| sessions |" in text
        assert report.trace_digest in text

    def test_percentile(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50.0) == 50.0
        assert percentile(values, 99.0) == 99.0
        assert percentile(values, 100.0) == 100.0
        assert percentile([], 50.0) == 0.0
        with pytest.raises(ValueError):
            percentile(values, 0.0)


class TestConfigValidation:
    def test_bad_configs_raise(self, small_scenario):
        with pytest.raises(ValidationError):
            SimulationConfig(scenario=small_scenario, sessions=-1)
        with pytest.raises(ValidationError):
            SimulationConfig(scenario=small_scenario, device_classes=0)
        with pytest.raises(ValidationError):
            SimulationConfig(scenario=small_scenario, session_duration_s=0.0)
        with pytest.raises(ValidationError):
            SimulationConfig(scenario=small_scenario, duration_jitter=1.5)
        with pytest.raises(ValidationError):
            SimulationConfig(scenario=small_scenario, segment_s=0.0)

    def test_unknown_scenario_name(self):
        with pytest.raises(ValidationError):
            build_scenario("no-such-campaign")

    def test_scenario_registry(self):
        assert scenario_names() == sorted(
            ["steady", "flash-crowd", "failover-storm", "link-churn",
             "gray-failure", "live-event", "policy-mix"]
        )

    def test_live_event_maximizes_device_heterogeneity(self):
        config = build_scenario("live-event", seed=3, sessions=12)
        assert config.device_classes == 32
        # The flash crowd carries most of the audience.
        crowd = [f for f in config.faults if type(f).__name__ == "FlashCrowd"]
        assert len(crowd) == 1
        assert crowd[0].sessions == 9
        without = build_scenario("live-event", seed=3, sessions=12,
                                 faults=False)
        assert without.faults == ()
