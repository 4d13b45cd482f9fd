"""E25 — selector hot path at scale: heap settle loop vs the seed selector.

Extends the E8 sweep past the paper's 200-service demo scale (500 / 1000 /
2000 services) and times the production :class:`QoSPathSelector` — lazy
settle heap, freeze-time edge order, dominance pre-filter, optimize memo —
against the seed linear-scan implementation preserved in
``tests/reference_selector.py``.  Results must be **bit-identical**; the
gate requires a >= 3x wall-clock speedup at every size from 200 services
up (CI runs this next to the batch-planner gate).

The artifact records the new hot-path counters alongside the timings:
optimize() calls (the dominant cost), memo hits, dominance skips, and
heap operations.
"""

from __future__ import annotations

import time

from repro.core.optimizer import OptimizeMemo
from repro.core.selection import QoSPathSelector
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

from conftest import format_table
from tests.reference_selector import SeedReferenceSelector

SIZES = (200, 500, 1000, 2000)
REPEATS = 2  # best-of timings; the equivalence check runs on every repeat
MIN_SPEEDUP = 3.0


def _scenario_for(size: int):
    scenario = generate_scenario(
        SyntheticConfig(
            seed=1,
            n_services=size,
            n_nodes=max(6, size // 6),
            n_formats=max(8, size // 4),
        )
    )
    return scenario, scenario.build_graph()


def _time_selector(make_selector):
    best_elapsed, result = None, None
    for _ in range(REPEATS):
        selector = make_selector()
        start = time.perf_counter()
        outcome = selector.run()
        elapsed = time.perf_counter() - start
        if best_elapsed is None or elapsed < best_elapsed:
            best_elapsed, result = elapsed, outcome
    return result, best_elapsed


def test_selector_hotpath_speedup(benchmark, save_artifact):
    medium_scenario, medium_graph = _scenario_for(200)
    benchmark(
        lambda: QoSPathSelector.for_user(
            medium_graph,
            medium_scenario.registry,
            medium_scenario.parameters,
            medium_scenario.user,
            record_trace=False,
            optimize_memo=OptimizeMemo(),
        ).run()
    )

    rows = []
    speedups = {}
    for size in SIZES:
        scenario, graph = _scenario_for(size)

        def production():
            return QoSPathSelector.for_user(
                graph,
                scenario.registry,
                scenario.parameters,
                scenario.user,
                record_trace=False,
                optimize_memo=OptimizeMemo(),
            )

        def seed_reference():
            return SeedReferenceSelector.for_user(
                graph,
                scenario.registry,
                scenario.parameters,
                scenario.user,
                record_trace=False,
            )

        prod_result, prod_s = _time_selector(production)
        ref_result, ref_s = _time_selector(seed_reference)

        # The tentpole contract: bit-identical SelectionResults (stats are
        # compare=False observability, everything else must match).
        assert prod_result == ref_result, f"divergence at {size} services"

        speedup = ref_s / prod_s if prod_s > 0 else float("inf")
        speedups[size] = speedup
        stats = prod_result.stats
        ref_stats = ref_result.stats
        rows.append(
            (
                size,
                f"{ref_s * 1000:.1f}",
                f"{prod_s * 1000:.1f}",
                f"{speedup:.1f}x",
                f"{ref_stats.optimize_calls}",
                f"{stats.optimize_calls}",
                f"{stats.optimize_memo_hits}",
                f"{stats.dominance_skips}",
                f"{stats.heap_pushes}",
                f"{stats.heap_stale_pops}",
            )
        )

    save_artifact(
        "selector_hotpath.txt",
        "E25 — selector hot path vs seed selector "
        f"(best of {REPEATS}, bit-identical results asserted)\n\n"
        + format_table(
            [
                "services",
                "seed (ms)",
                "heap (ms)",
                "speedup",
                "opt calls (seed)",
                "opt calls (heap)",
                "memo hits",
                "dominance skips",
                "heap pushes",
                "stale pops",
            ],
            rows,
        )
        + f"\n\ngate: >= {MIN_SPEEDUP:.1f}x at every size from 200 services up",
    )

    for size, speedup in speedups.items():
        assert speedup >= MIN_SPEEDUP, (
            f"selector speedup regressed at {size} services: "
            f"{speedup:.2f}x < {MIN_SPEEDUP:.1f}x"
        )
