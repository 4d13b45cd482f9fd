"""E24 — extension: plan-cache + batch-planner throughput.

One proxy, 1000 arriving sessions drawn from 32 device classes — the
workload the plan cache exists for.  The bench times the cached concurrent
batch against the uncached baseline and records throughput, hit rate, and
the speedup.  The acceptance floor (cached >= 5x uncached on this
workload) is asserted, not just reported.
"""

from __future__ import annotations

import time

from repro.planner import BatchPlanner, PlanCache, synthetic_requests
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

from conftest import format_table

N_SESSIONS = 1000
N_DISTINCT = 32
WORKERS = 8
MIN_SPEEDUP = 5.0


def _workload():
    scenario = generate_scenario(
        SyntheticConfig(seed=7, n_services=12, n_formats=8, n_nodes=8)
    )
    return scenario, synthetic_requests(scenario, N_SESSIONS, N_DISTINCT)


def test_batch_planner_throughput(benchmark, save_artifact):
    scenario, requests = _workload()

    # Uncached baseline: every session planned from scratch.
    baseline = BatchPlanner.for_scenario(scenario, max_workers=WORKERS)
    start = time.perf_counter()
    uncached_plans = baseline.plan_batch(requests, use_cache=False)
    uncached_s = time.perf_counter() - start

    # Cached run, cold cache: 32 misses then 968 hits.
    cache = PlanCache(max_entries=256)
    planner = BatchPlanner.for_scenario(
        scenario, cache=cache, max_workers=WORKERS
    )
    start = time.perf_counter()
    cached_plans = planner.plan_batch(requests)
    cached_s = time.perf_counter() - start
    stats = cache.stats  # snapshot before the warm rounds below add hits

    # Steady state (warm cache) is what the timing harness measures.
    benchmark(lambda: planner.plan_batch(requests))
    speedup = uncached_s / cached_s
    rows = [
        (
            "uncached",
            f"{uncached_s * 1000:.1f}",
            f"{N_SESSIONS / uncached_s:.0f}",
            "-",
            "-",
        ),
        (
            "cached (cold)",
            f"{cached_s * 1000:.1f}",
            f"{N_SESSIONS / cached_s:.0f}",
            f"{stats.hits}/{N_SESSIONS}",
            f"{speedup:.1f}x",
        ),
    ]
    save_artifact(
        "batch_planner.txt",
        f"E24 — plan-cache batch planner ({N_SESSIONS} sessions, "
        f"{N_DISTINCT} device classes, {WORKERS} workers)\n\n"
        + format_table(
            ["mode", "time (ms)", "plans/s", "cache hits", "speedup"], rows
        ),
    )

    # Correctness: cached plans match the uncached baseline one-for-one.
    assert len(cached_plans) == len(uncached_plans) == N_SESSIONS
    for cached, fresh in zip(cached_plans, uncached_plans):
        assert cached.result.path == fresh.result.path
        assert cached.result.formats == fresh.result.formats
        assert cached.result.satisfaction == fresh.result.satisfaction

    # The cache saw exactly one computation per device class.
    assert stats.misses == N_DISTINCT
    assert stats.hits == N_SESSIONS - N_DISTINCT

    # Acceptance floor: memoization must buy at least 5x on this workload.
    assert speedup >= MIN_SPEEDUP, (
        f"cached batch only {speedup:.1f}x faster than uncached "
        f"(floor {MIN_SPEEDUP}x)"
    )
