"""The ``failover-storm`` workload: the simulator campaign as a batch.

Each campaign runs in its own :mod:`perfbench.launcher` child; one
session arrival (plan + reserve, timed in wall clock) is one request of
this workload.  Every run alternates a light campaign (fewer sessions)
and a heavy one until the time budget is spent; a traced run then adds
one traced heavy campaign.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from perfbench.gateway_bench import (
    LIMIT_MS, MAX_RETRIES, RETRY_SHARE, STEAL_MAX, TAIL_Q, figure, nproc,
)
from perfbench.proc import Child, Failure, host_steal_s
from perfbench.stats import median, percentile

LIGHT_SESSIONS = 300
HEAVY_SESSIONS = 800
#: Each run draws this many campaign seeds from ``--seed`` and cycles
#: through them, so a run averages over arrival patterns; the first seed
#: comes round again, which replays its trace for the digest check.
CAMPAIGN_SEEDS = 3


@dataclass
class Campaign:
    sessions: int
    seed: int
    setup_s: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    events: int
    digest: str
    arrival_ms: List[float]
    steal: float
    spans: Optional[Dict] = None

    @property
    def arrivals(self) -> int:
        return len(self.arrival_ms)

    @property
    def within_limit(self) -> int:
        return sum(1 for ms in self.arrival_ms if ms <= LIMIT_MS)


def campaign(root: str, sessions: int, seed: int, spans_out: str = ""
             ) -> Campaign:
    argv = [sys.executable, os.path.join("perfbench", "launcher.py"), "sim",
            "--sessions", str(sessions), "--seed", str(seed)]
    if spans_out:
        argv += ["--spans-out", spans_out]
    child = Child(argv, root)
    try:
        child.wait_for("ready", timeout=120)
        ready_at, cpu_ready, steal_ready = (child.last_at, child.cpu_s(),
                                            host_steal_s())
        child.wait_for("done", timeout=170)
        done_at, cpu_done = child.last_at, child.cpu_s()
        steal = (host_steal_s() - steal_ready) / ((done_at - ready_at) * nproc())
        result = json.loads(child.next_line(timeout=60))
        peak = child.peak_rss_mb()
        child.proc.stdin.write("exit\n")
        child.proc.stdin.flush()
    except BaseException:
        child.kill()
        raise
    child.finish(timeout=60)
    if child.proc.returncode != 0:
        raise Failure(f"simulator exited {child.proc.returncode}:\n"
                      + child.stderr_tail())
    if not 0 < len(result["arrival_ms"]) <= sessions:
        raise Failure(f"{len(result['arrival_ms'])} arrivals for "
                      f"{sessions} sessions")
    run = Campaign(sessions, seed, ready_at - child.launched, done_at - ready_at,
                   cpu_done - cpu_ready, peak, result["events"],
                   result["digest"], result["arrival_ms"], steal)
    if spans_out:
        with open(spans_out, encoding="utf-8") as handle:
            run.spans = json.load(handle)
    return run


def check_digests(campaigns: List[Campaign]) -> None:
    """Every campaign of one seed and size must replay the same trace."""
    seen: Dict[Tuple[int, int], set] = {}
    for run in campaigns:
        seen.setdefault((run.sessions, run.seed), set()).add(
            (run.digest, run.events))
    for (sessions, seed), traces in seen.items():
        if len(traces) != 1:
            raise Failure(f"{sessions}-session campaigns of seed {seed} "
                          f"disagree: {traces}")


def end_to_end(campaigns: List[Campaign]) -> Dict[str, Tuple[float, int]]:
    light = [c for c in campaigns if c.sessions == LIGHT_SESSIONS]
    heavy = [c for c in campaigns if c.sessions == HEAVY_SESSIONS]
    out: Dict[str, Tuple[float, int]] = {}
    for tag, runs in (("light", light), ("heavy", heavy)):
        pooled = [ms for run in runs for ms in run.arrival_ms]
        out[f"latency_p50_ms.{tag}"] = figure(median(pooled), len(pooled))
        out[f"latency_p90_ms.{tag}"] = figure(percentile(pooled, TAIL_Q),
                                               len(pooled))
    arrivals = sum(run.arrivals for run in heavy)
    out["slo_ok_ratio.heavy"] = (
        sum(run.within_limit for run in heavy) / arrivals, arrivals
    )
    # A campaign is CPU-bound batch work that interference from other
    # tenants only ever slows down, so throughput and CPU cost are the
    # best of the heavy campaigns (as ``timeit`` takes the minimum).
    out["slo_rate_rps"] = (max(run.within_limit / run.wall_s
                               for run in heavy), len(heavy))
    out["cpu_ms_per_req"] = (min(run.cpu_s * 1000.0 / run.arrivals
                                 for run in heavy), len(heavy))
    out["sim_events_per_s"] = (max(run.events / run.wall_s
                                   for run in heavy), len(heavy))
    out["setup_s"] = (median([run.setup_s for run in campaigns]),
                      len(campaigns))
    out["peak_rss_mb"] = (median([run.peak_rss_mb for run in heavy]),
                          len(heavy))
    return out


def run(seed: int, seconds: int, trace: bool, root: str
        ) -> Tuple[Dict[str, Tuple[float, int]], int, int, List[str]]:
    """One benchmark run; returns (figures, attempted, failed, notes).

    Untraced campaigns always run; ``trace`` adds one traced heavy
    campaign, which must replay the untraced campaign of its seed.
    """
    notes: List[str] = []
    # Light/heavy pairs while another pair still fits the budget, at least
    # until the first campaign seed has come round again.  A campaign with
    # too much host steal is set aside and run again, as the gateway
    # workload does with its windows.
    campaigns: List[Campaign] = []
    set_aside: List[Campaign] = []
    budget_s = RETRY_SHARE * seconds
    started = time.monotonic()
    pair_s = 0.0
    pairs = 0
    while (pairs <= CAMPAIGN_SEEDS
           or time.monotonic() - started + pair_s <= seconds):
        pair_started = time.monotonic()
        campaign_seed = seed * 100 + pairs % CAMPAIGN_SEEDS
        pairs += 1
        for sessions in (LIGHT_SESSIONS, HEAVY_SESSIONS):
            for attempt in range(MAX_RETRIES + 1):
                one = campaign(root, sessions, campaign_seed)
                if (one.steal <= STEAL_MAX or attempt == MAX_RETRIES
                        or budget_s < one.wall_s):
                    break
                set_aside.append(one)
                budget_s -= one.wall_s
            campaigns.append(one)
        pair_s = time.monotonic() - pair_started
    figures = end_to_end(campaigns)
    replayed = campaigns + set_aside
    if trace:
        with tempfile.TemporaryDirectory(prefix="perfbench-", dir=root) as tmp:
            traced = campaign(root, HEAVY_SESSIONS, seed * 100,
                              spans_out=os.path.join(tmp, "spans.json"))
        replayed.append(traced)
        figures.update(
            (k, (v, n)) for k, (v, n) in traced.spans["metrics"].items()
        )
        plain = [c for c in campaigns
                 if c.sessions == HEAVY_SESSIONS and c.seed == traced.seed]
        figures["trace.overhead_ratio"] = (
            median(traced.arrival_ms) / median(plain[0].arrival_ms),
            plain[0].arrivals,
        )
    check_digests(replayed)
    notes.append(f"campaigns run again for host steal: {len(set_aside)}")
    notes.append(
        f"{len(replayed)} campaigns, trace digests stable per seed and "
        "size: " + ", ".join(sorted({f"{c.seed}/{c.sessions}:{c.digest[:8]}"
                                     for c in replayed}))
    )
    return figures, sum(c.arrivals for c in campaigns), 0, notes
