"""E26 — extension: discrete-event simulator throughput + determinism.

A thousand sessions arrive over ten virtual minutes while the backbone
services crash in a wave, the primary route degrades, and a flash crowd
piles on — the full fault taxonomy in one run.  The bench reports
events/sec through the virtual clock and asserts two floors:

- throughput: the event loop must clear ``MIN_EVENTS_PER_S`` (a
  deliberately conservative bound for shared CI runners);
- determinism: a second run of the same configuration must produce a
  bit-identical trace digest and fleet report.

``SIM_BENCH_SESSIONS`` scales the organic-session count down for smoke
runs (CI uses a reduced scale; the default is the full 900 + 100-burst
thousand-session campaign).
"""

from __future__ import annotations

import os
import time

from repro.sim import (
    FlashCrowd,
    LinkDegradation,
    ServiceCrash,
    SimulationConfig,
    UniformArrivals,
    run_simulation,
)
from repro.sim.scenarios import _backbone_services, _base, _primary_route

from conftest import format_table

DEFAULT_SESSIONS = 900
ORGANIC_SESSIONS = int(os.environ.get("SIM_BENCH_SESSIONS", DEFAULT_SESSIONS))
BURST_SESSIONS = max(10, ORGANIC_SESSIONS // 9)
ARRIVAL_WINDOW_S = max(60.0, ORGANIC_SESSIONS * (600.0 / 900.0))
SEED = 7
MIN_EVENTS_PER_S = 100.0


def _config() -> SimulationConfig:
    scenario = _base(SEED)
    route = _primary_route(scenario)
    faults = tuple(
        ServiceCrash(sid, start_s=0.2 * ARRIVAL_WINDOW_S + 20.0 * i, downtime_s=15.0)
        for i, sid in enumerate(_backbone_services(scenario))
    ) + (
        LinkDegradation(
            route[0],
            route[1],
            start_s=0.33 * ARRIVAL_WINDOW_S,
            duration_s=30.0,
            factor=0.2,
            ramp_steps=3,
            ramp_s=6.0,
        ),
        FlashCrowd(
            start_s=0.5 * ARRIVAL_WINDOW_S, sessions=BURST_SESSIONS, over_s=10.0
        ),
    )
    return SimulationConfig(
        scenario=scenario,
        name="bench-storm",
        seed=SEED,
        sessions=ORGANIC_SESSIONS,
        arrivals=UniformArrivals(over_s=ARRIVAL_WINDOW_S),
        session_duration_s=25.0,
        faults=faults,
        trace_capacity=20_000,
    )


def test_simulator_throughput_and_determinism(benchmark, save_artifact):
    start = time.perf_counter()
    report = run_simulation(_config())
    elapsed = time.perf_counter() - start
    events_per_s = report.events_processed / elapsed if elapsed > 0 else 0.0

    # Determinism gate: an identical configuration replays bit-identically.
    replay = run_simulation(_config())
    assert replay.trace_digest == report.trace_digest
    assert replay.to_dict() == report.to_dict()

    # Timing harness measures the steady repeat of the same run.
    benchmark(lambda: run_simulation(_config()))

    total = ORGANIC_SESSIONS + BURST_SESSIONS
    rows = [
        ("sessions (organic + burst)", f"{ORGANIC_SESSIONS} + {BURST_SESSIONS}"),
        ("admitted / completed", f"{report.admitted} / {report.completed}"),
        ("replans (failed)", f"{report.total_replans} ({report.total_failed_replans})"),
        ("events processed", f"{report.events_processed}"),
        ("wall time", f"{elapsed:.2f}s"),
        ("events/sec", f"{events_per_s:.0f}"),
        ("virtual horizon", f"{report.horizon_s:.0f}s"),
        ("trace digest", report.trace_digest[:16]),
    ]
    save_artifact(
        "simulator.txt",
        f"E26 — discrete-event simulator ({total} sessions, fault storm, "
        f"seed {SEED})\n\n" + format_table(["metric", "value"], rows),
        smoke=ORGANIC_SESSIONS < DEFAULT_SESSIONS,
    )

    # The campaign must actually exercise the machinery end to end.
    assert report.sessions == total
    assert report.admitted > 0
    assert report.completed > 0
    assert report.events_processed > total  # arrivals plus segment ticks

    assert events_per_s >= MIN_EVENTS_PER_S, (
        f"simulator cleared only {events_per_s:.0f} events/s "
        f"(floor {MIN_EVENTS_PER_S:.0f})"
    )
