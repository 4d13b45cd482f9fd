"""E13 — extension: mid-session re-planning under bandwidth collapse.

Section 3 motivates the network profile with "the fluctuating network
resources"; the paper's framework implies the selection should be re-run
when the chain degrades.  This bench runs one simulated session
(:mod:`repro.sim`) over Figure 6, collapses every link of the winning
chain's host (T7 on n7) to 5% at t=10 s, and compares a session that
re-plans against one that stubbornly streams on, reporting the
time-weighted satisfaction each actually observed.
"""

from __future__ import annotations

from repro.planner import synthetic_requests
from repro.sim import (
    LinkDegradation,
    SimulationConfig,
    SimulationRun,
    SimWorld,
    UniformArrivals,
)
from repro.workloads.paper import figure6_scenario

from conftest import format_table

HOST = "n7"
COLLAPSE_AT_S = 10.0
SESSION_S = 30.0


def host_links(scenario):
    return [link for link in scenario.topology.links() if HOST in link.endpoints()]


def collapse_run(replan_threshold):
    """One 30 s session whose chain host collapses at t=10 s."""
    scenario = figure6_scenario()
    config = SimulationConfig(
        scenario=scenario,
        sessions=1,
        device_classes=1,
        arrivals=UniformArrivals(over_s=0.0),
        session_duration_s=SESSION_S,
        duration_jitter=0.0,
        segment_s=1.0,
        replan_threshold=replan_threshold,
        abandon_after_stalls=0,
        faults=tuple(
            LinkDegradation(
                link.a, link.b, start_s=COLLAPSE_AT_S, duration_s=SESSION_S,
                factor=0.05,
            )
            for link in host_links(scenario)
        ),
        # Stop at the session's end: the collapse never lifts mid-run.
        horizon_s=SESSION_S,
    )
    run = SimulationRun(config)
    (outcome,) = run.execute().outcomes
    return outcome, list(run.sim.trace)


def chains_used(trace):
    """Distinct chains the session streamed on, in order of first use."""
    chains = []
    for event in trace:
        if event.category in ("admit", "replan"):
            # "session 1: [switched to ]sender,T7,receiver (S=0.658)"
            chain = event.message.rsplit(" (S=", 1)[0].split()[-1]
            if chain not in chains:
                chains.append(chain)
    return chains


def test_replanning_restores_satisfaction(benchmark, save_artifact):
    adaptive, timeline = benchmark(collapse_run, 0.9)
    # A "stubborn" session: threshold so low it never re-plans.
    stubborn, stubborn_timeline = collapse_run(0.01)

    rows = [
        (
            label,
            " then ".join(chains_used(trace)),
            outcome.replans,
            f"{outcome.mean_satisfaction:.3f}",
        )
        for label, outcome, trace in (
            ("adaptive", adaptive, timeline),
            ("stubborn", stubborn, stubborn_timeline),
        )
    ]
    save_artifact(
        "replanning.txt",
        "E13 — T7's host collapses at t=10s during a 30s session\n\n"
        + format_table(
            ["session", "chains used", "replans", "avg observed S"], rows
        )
        + "\n\nadaptive session timeline:\n"
        + "\n".join(str(event) for event in timeline),
    )

    assert adaptive.replans == 1
    assert chains_used(timeline) == [
        "sender,T7,receiver",
        "sender,T8,receiver",
    ]
    assert stubborn.replans == 0
    assert adaptive.mean_satisfaction > stubborn.mean_satisfaction + 0.1


def test_replanning_overhead(benchmark, save_artifact):
    """How expensive is one re-plan (snapshot + graph + selection)?"""
    world = SimWorld(figure6_scenario())
    (request,) = synthetic_requests(world.scenario, 1, 1)
    links = host_links(world.scenario)

    def replan():
        # Re-applying the collapse bumps the fault generation, so every
        # call rebuilds the snapshot and plans it: never a cache hit.
        for link in links:
            world.set_link_factor(link.a, link.b, 0.05)
        return world.plan(request)

    result = benchmark(replan).result
    save_artifact(
        "replanning_overhead.txt",
        "E13 — single re-plan (topology snapshot + graph + selection)\n\n"
        + format_table(
            ["item", "value"],
            [
                ("replanned chain", ",".join(result.path)),
                ("satisfaction", f"{result.satisfaction:.3f}"),
                ("timing", "see pytest-benchmark table"),
            ],
        ),
    )
    assert result.path == ("sender", "T8", "receiver")
