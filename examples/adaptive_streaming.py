#!/usr/bin/env python3
"""Adaptive streaming: re-planning when the network turns against you.

The paper plans a chain against a bandwidth snapshot; real networks
fluctuate (Section 3's motivation for the network profile).  This example
simulates one viewer of the Figure 6 scenario while the winning chain's
host (n7, running T7) collapses mid-session, and shows the session
detecting the drop, re-running selection against the degraded topology,
and switching to the next-best chain — versus a stubborn session that
keeps pushing frames at a dead proxy.

Run:
    python examples/adaptive_streaming.py
"""

from repro import figure6_scenario
from repro.sim import (
    LinkDegradation,
    SimulationConfig,
    SimulationRun,
    UniformArrivals,
)


def stream(replan_threshold: float):
    """Simulate one 30 s session; host n7 collapses to 5% at t=10 s."""
    scenario = figure6_scenario()
    collapse = tuple(
        LinkDegradation(link.a, link.b, start_s=10.0, duration_s=30.0,
                        factor=0.05)
        for link in scenario.topology.links()
        if "n7" in link.endpoints()
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
            faults=collapse,
            horizon_s=30.0,
        )
    )
    (outcome,) = run.execute().outcomes
    return outcome, run.sim.trace


def main() -> None:
    print("Streaming the Figure 6 plan for 30 s; host n7 (running T7) "
          "collapses at t=10 s.\n")

    adaptive, timeline = stream(replan_threshold=0.9)
    print("adaptive session timeline:")
    for event in timeline:
        print(f"  {event}")

    stubborn, _ = stream(replan_threshold=0.01)

    print()
    print(f"adaptive session:  avg observed satisfaction "
          f"{adaptive.mean_satisfaction:.3f} "
          f"({adaptive.replans} replan)")
    print(f"stubborn session:  avg observed satisfaction "
          f"{stubborn.mean_satisfaction:.3f} "
          f"(never replans)")
    gain = adaptive.mean_satisfaction - stubborn.mean_satisfaction
    print(f"\nre-planning recovered {gain:.3f} satisfaction — the "
          f"composition framework's resilience argument in action.")


if __name__ == "__main__":
    main()
