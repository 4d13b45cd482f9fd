"""The gateway workload, ``hot-classes``.

One ``repro serve`` child (planner threads = ``nproc``) serves the
generated scenario; one asyncio client drives it open-loop over at most
``nproc`` pipelined keep-alive connections.  Every run climbs a fixed
geometric rate ladder untraced; the light and heavy rungs are fixed
rungs of it.  A traced run then repeats the light and heavy windows in a
second child wrapped by :mod:`perfbench.launcher`.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import signal
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from perfbench.client import OUTCOMES, OpenLoopClient, Result, http_get
from perfbench.proc import Child, Failure, host_steal_s
from perfbench.stats import median, percentile
from perfbench.tracing import MARK_RID
from perfbench.workloads import HotTraffic, gateway_scenario

#: The latency limit: the tail percentile below must not exceed it.
LIMIT_MS = 100.0
#: The tail percentile every latency figure and the limit use.
TAIL_Q = 0.90
#: A rung passes with at least this share of 200 plan answers.
MIN_OK_SHARE = 0.99
#: A rung is abandoned once its oldest unanswered request is this late.
ABORT_LATE_S = 1.0
#: Midpoint rungs narrow the (last passing, first failing) bracket until
#: its rates are within this ratio.
MAX_BRACKET = 1.1
#: A window during which the hypervisor took more than this share of the
#: machine's CPU time (steal) is set aside and run again, at most
#: MAX_RETRIES times per window and within RETRY_SHARE of the time budget.
STEAL_MAX = 0.04
MAX_RETRIES = 2
RETRY_SHARE = 0.25


#: The rate ladder: rung ``i`` offers ``START_RPS * RATIO**i`` req/s, up
#: to RUNGS rungs.  Light and heavy are rungs 0 and 1; each runs as
#: WINDOWS interleaved windows of WINDOW_COUNT requests, so both sample
#: the whole run rather than one stretch of it.  Every other rung is one
#: window of RUNG_S seconds, and never fewer than MIN_COUNT requests so it
#: supports its tail percentile.
START_RPS = 300.0
RATIO = 2.0
RUNGS = 5
WINDOWS = 9
WINDOW_COUNT = 300
RUNG_S = 3.0
MIN_COUNT = 100


def rung_rate(index: int) -> float:
    return START_RPS * RATIO ** index


def rung_count(rate: float) -> int:
    return max(MIN_COUNT, math.ceil(rate * RUNG_S))


def nproc() -> int:
    return max(1, len(os.sched_getaffinity(0)))


@dataclass
class Rung:
    """One rate of the ladder: one window, or several for light/heavy.

    Only windows kept past the steal check are listed.
    """

    index: int
    rate: float
    windows: List[List[Result]] = field(default_factory=list)
    scheduled: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0

    @property
    def results(self) -> List[Result]:
        return [r for window in self.windows for r in window]

    @property
    def latencies(self) -> List[float]:
        return _latencies(self.results)

    def window_figure(self, q: float) -> Optional[float]:
        """Median over windows of each window's percentile ``q``.

        Steal checks catch the hypervisor; the median also keeps a burst
        they miss (another tenant's cache or memory traffic) in one
        window from moving the figure.
        """
        figures = [percentile(_latencies(w), q) for w in self.windows]
        if not figures or None in figures:
            return None
        return median(figures)

    def raw_tail(self) -> float:
        """Nearest-rank tail percentile without the sample-count rule."""
        values = sorted(self.latencies)
        return values[max(0, math.ceil(TAIL_Q * len(values)) - 1)]

    @property
    def ok_share(self) -> float:
        return sum(r.answered for r in self.results) / self.scheduled

    @property
    def within_limit(self) -> int:
        return sum(1 for r in self.results if r.answered and r.latency_ms <= LIMIT_MS)

    @property
    def backlog_growing(self) -> bool:
        """In a majority of windows, in-flight depth at send grew from the
        first quarter to the last (one noisy window is not a trend)."""
        growing = 0
        for window in self.windows:
            quarter = max(1, len(window) // 4)
            first = median([r.inflight_at_send for r in window[:quarter]]) or 0
            last = median([r.inflight_at_send for r in window[-quarter:]]) or 0
            growing += last > max(2 * first, first + 4)
        return 2 * growing > len(self.windows)

    @property
    def passed(self) -> bool:
        return (
            len(self.results) == self.scheduled
            and self.raw_tail() <= LIMIT_MS
            and self.ok_share >= MIN_OK_SHARE
            and not self.backlog_growing
        )


def _latencies(results: List[Result]) -> List[float]:
    return [r.latency_ms if r.answered else math.inf for r in results]


def slo_rate(rungs: List[Rung]) -> float:
    """Highest rate meeting the limit, interpolated in log rate.

    Between the last passing rung and the first failing one, the crossing
    is where the tail latency (interpolated in log latency) meets the
    limit.  A failing rung whose tail still meets the limit (it misses on
    answers or backlog) puts the crossing at the geometric midpoint of
    the bracket; if every rung run passed, the top rung's rate stands.
    """
    passed = None
    for rung in sorted(rungs, key=lambda r: r.rate):
        if rung.passed:
            passed = rung
            continue
        tail = rung.raw_tail()
        if passed is None:
            scale = LIMIT_MS / tail if tail > LIMIT_MS else 1.0 / RATIO
            return rung.rate * scale
        low = passed.raw_tail()
        if tail <= LIMIT_MS:
            return math.sqrt(passed.rate * rung.rate)
        tail = min(tail, 100 * LIMIT_MS)
        x = (math.log(LIMIT_MS) - math.log(max(low, 1e-3))) / (
            math.log(tail) - math.log(max(low, 1e-3))
        )
        return passed.rate * (rung.rate / passed.rate) ** x
    return passed.rate if passed is not None else 0.0


@dataclass
class Session:
    """One served child: its set-up, rungs, scrape and planning trace."""

    setup_s: float
    peak_rss_mb: float
    rungs: List[Rung]
    warmup: List[Result]
    metrics: Dict[str, Any]
    quiet: _Quiet
    spans: Optional[Dict[str, Any]] = None

    @property
    def sent(self) -> List[Result]:
        """Every plan request sent: warm-up, set-aside and kept windows."""
        return (self.warmup + self.quiet.set_aside
                + [r for rung in self.rungs for r in rung.results])


def _serve_argv(root: str, scenario_path: str, spans_out: str) -> List[str]:
    serve = ["--scenario", scenario_path, "--port", "0",
             "--threads", str(nproc()), "--cache-size", "4096"]
    if spans_out:
        return [sys.executable, os.path.join("perfbench", "launcher.py"), "serve",
                "--spans-out", spans_out, "--"] + serve
    return [sys.executable, "-m", "repro.cli", "serve"] + serve


def _launch(root: str, scenario_path: str, spans_out: str = ""
            ) -> Tuple[Child, int, float]:
    child = Child(_serve_argv(root, scenario_path, spans_out), root)
    try:
        line = child.wait_for("repro gateway listening on", timeout=120)
    except Exception:
        child.kill()
        raise
    port = int(line.split()[4].rsplit(":", 1)[1])
    return child, port, child.last_at - child.launched


def _stop(child: Child) -> None:
    if child.proc.poll() is None:
        child.proc.send_signal(signal.SIGTERM)
    child.finish(timeout=30)
    if child.proc.returncode != 0:
        raise Failure(f"gateway exited {child.proc.returncode}:\n"
                      + child.stderr_tail())


def setup_only(root: str, scenario_path: str) -> float:
    """Launch a gateway, time it to its ready line, drain it.

    One ``GET /healthz`` before ``SIGTERM``: the gateway installs its
    drain handler just after announcing, so an answer proves it is in.
    """
    child, port, setup = _launch(root, scenario_path)
    try:
        asyncio.run(http_get("127.0.0.1", port, "/healthz"))
    except BaseException:
        child.kill()
        raise
    _stop(child)
    return setup


class _Quiet:
    """Steal-checked windows: what was set aside, and the retry budget."""

    def __init__(self, budget_s: float) -> None:
        self.budget_s = budget_s
        self.set_aside: List[Result] = []
        self.retried = 0


async def _window(client: OpenLoopClient, child: Child,
                  traffic: HotTraffic, rung: Rung, tag: str,
                  count: int, quiet: _Quiet) -> None:
    """Send one window of ``count`` requests at the rung's rate.

    A window with too much steal is set aside (its requests still count
    for accounting and checks) and run again with fresh requests.
    """
    for attempt in range(MAX_RETRIES + 1):
        requests = traffic.rung(f"{tag}a{attempt}" if attempt else tag,
                                rung.rate, count)
        cpu_before, steal_before = child.cpu_s(), host_steal_s()
        results, wall = await client.open_loop(requests, ABORT_LATE_S)
        steal = (host_steal_s() - steal_before) / (wall * nproc())
        if (steal <= STEAL_MAX or attempt == MAX_RETRIES
                or quiet.budget_s < wall):
            break
        quiet.set_aside.extend(results)
        quiet.budget_s -= wall
        quiet.retried += 1
    rung.windows.append(results)
    rung.scheduled += len(requests)
    rung.wall_s += wall
    rung.cpu_s += child.cpu_s() - cpu_before


async def _drive(child: Child, port: int, traffic: HotTraffic,
                 climb: bool, mark: bool, seconds: float
                 ) -> Tuple[List[Result], List[Rung], Dict, float, _Quiet]:
    """Warm up, run the light and heavy windows, and optionally climb.

    Climbing continues above the heavy rung until a rung fails, then
    rungs at geometric midpoints narrow the bracket around the crossing
    to :data:`MAX_BRACKET`; neither starts a rung once ``seconds`` are
    spent.
    """
    host = "127.0.0.1"
    loop = asyncio.get_running_loop()
    async with OpenLoopClient(host, port, nproc()) as client:
        warm = await client.closed_loop(traffic.warmup())
        # Peak memory after a fixed amount of traffic: later windows are
        # run again on host steal, and the climb goes as far as it goes.
        peak_rss_mb = child.peak_rss_mb()
        if mark:
            await http_get(host, port, "/healthz", rid=MARK_RID)
        started = loop.time()
        quiet = _Quiet(RETRY_SHARE * seconds)
        rungs = [Rung(0, rung_rate(0)), Rung(1, rung_rate(1))]
        for window in range(WINDOWS):
            for rung in rungs:
                await _window(client, child, traffic, rung,
                              f"r{rung.index}w{window}", WINDOW_COUNT,
                              quiet)
        for index in range(2, RUNGS if climb else 0):
            if (any(not r.passed for r in rungs)
                    or loop.time() - started > seconds):
                break
            rung = Rung(index, rung_rate(index))
            await _window(client, child, traffic, rung, f"r{index}",
                          rung_count(rung.rate), quiet)
            rungs.append(rung)
        bracket = _bracket(rungs) if climb else None
        step = 0
        while (bracket and bracket[1].rate / bracket[0].rate > MAX_BRACKET
               and loop.time() - started <= seconds):
            low, high = bracket
            probe = Rung(-1, math.sqrt(low.rate * high.rate))
            await _window(client, child, traffic, probe, f"b{step}",
                          rung_count(probe.rate), quiet)
            rungs.append(probe)
            bracket = (probe, high) if probe.passed else (low, probe)
            step += 1
        status, metrics = await http_get(host, port, "/metrics")
        if status != 200:
            raise Failure(f"GET /metrics answered {status}")
    return warm, rungs, metrics, peak_rss_mb, quiet


def _bracket(rungs: List[Rung]) -> Optional[Tuple[Rung, Rung]]:
    """(last passing, first failing) rung in rate order, if both exist."""
    ordered = sorted(rungs, key=lambda r: r.rate)
    for low, high in zip(ordered, ordered[1:]):
        if low.passed and not high.passed:
            return low, high
        if not low.passed:
            return None
    return None


def serve_session(root: str, scenario_path: str, traffic: HotTraffic,
                  climb: bool, seconds: float,
                  spans_out: str = "") -> Session:
    child, port, setup = _launch(root, scenario_path, spans_out)
    try:
        warm, rungs, metrics, peak, quiet = asyncio.run(
            _drive(child, port, traffic, climb,
                   mark=bool(spans_out), seconds=seconds)
        )
    except BaseException:
        child.kill()
        raise
    _stop(child)
    session = Session(setup, peak, rungs, warm, metrics, quiet)
    if spans_out:
        with open(spans_out, encoding="utf-8") as handle:
            session.spans = json.load(handle)
    return session


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------
def check_accounting(session: Session) -> Dict[str, int]:
    """Client outcome counts must add up and agree with ``GET /metrics``."""
    results = session.sent
    counts = {name: 0 for name in OUTCOMES}
    for result in results:
        counts[result.outcome] += 1
    sent = len(results)
    if sum(counts.values()) != sent:
        raise Failure(f"outcomes {counts} do not add up to {sent} sent")
    document = session.metrics.get("metrics", session.metrics)
    counters = document["counters"]
    cache = document["cache"]
    expected = {
        "received": sent,
        "planned": counts["ok"] + counts["infeasible"],
        "infeasible": counts["infeasible"],
        "policy_fast_path": counts["policy_skip"],
        "shed": counts["shed"],
        "timeouts": counts["timeout"],
        "errors": counts["error"],
    }
    observed = {
        "received": counters["received"],
        "planned": counters["planned"],
        "infeasible": counters["infeasible"],
        "policy_fast_path": counters["policy_fast_path"],
        "shed": counters["shed_queue"] + counters["shed_rate"]
        + counters["shed_busy"],
        "timeouts": counters["expired"] + counters["timeouts"],
        "errors": sum(counters[name] for name in (
            "invalid", "unplannable", "errors", "rejected_draining",
            "policy_denied", "protocol_errors")),
    }
    if expected != observed:
        raise Failure(f"client counts {expected} != gateway counters {observed}")
    # Every selector-path request probes the cache once; a plan abandoned
    # past its deadline (504) or raising (422) probed it too.
    probes = counters["planned"] + counters["timeouts"] + counters["unplannable"]
    if cache["hits"] + cache["misses"] != probes:
        raise Failure(f"cache lookups {cache} != {probes} selector requests")
    flagged = sum(
        1 for r in results
        if r.outcome in ("ok", "infeasible") and r.payload.get("cache_hit")
    )
    if flagged > cache["hits"]:
        raise Failure(f"{flagged} responses flagged cache hits, gateway "
                      f"counted {cache['hits']}")
    counts.update(sent=sent, cache_hits=cache["hits"],
                  cache_misses=cache["misses"],
                  evictions=cache["evictions"], shed=observed["shed"],
                  gateway_timeouts=counters["timeouts"],
                  gateway_expired=counters["expired"])
    return counts


def check_plans(scenario, results: List[Result], seed: int, sample: int = 24
                ) -> int:
    """Re-plan a seeded sample of answers in this process; exact match."""
    from repro.planner.batch import BatchPlanner
    from repro.policy.engine import PolicyEngine

    planner = BatchPlanner.for_scenario(scenario, record_trace=False)
    engine = PolicyEngine(scenario.policy)
    rng = random.Random(f"{seed}:check")
    answered = [r for r in results if r.answered]
    skips = [r for r in answered if r.outcome == "policy_skip"]
    planned = [r for r in answered if r.outcome != "policy_skip"]
    chosen = (rng.sample(skips, min(len(skips), sample // 2))
              + rng.sample(planned, min(len(planned), sample)))
    for result in chosen:
        request = result.request.plan_request(scenario)
        payload = result.payload
        decision = engine.evaluate(request)
        if result.outcome == "policy_skip":
            if decision.kind != "skip":
                raise Failure(f"{result.request.rid}: gateway skipped, "
                              f"engine says {decision.kind}")
            expected = decision.plan.result
            want_path = ["sender", "receiver"]
        else:
            if decision.kind != "none":
                raise Failure(f"{result.request.rid}: engine says "
                              f"{decision.kind}, gateway planned")
            plan = planner.plan_uncached(request)
            if plan.success != payload.get("success"):
                raise Failure(f"{result.request.rid}: success mismatch")
            if not plan.success:
                continue
            expected = plan.result
            want_path = list(expected.path)
        got = (payload.get("path"), payload.get("formats"),
               payload.get("satisfaction"))
        want = (want_path, list(expected.formats),
                round(expected.satisfaction, 6))
        if got != want:
            raise Failure(f"{result.request.rid}: gateway {got} != "
                          f"re-planned {want}")
    return len(chosen)


def check_stream(results: List[Result]) -> None:
    """hot-classes sends at most its 64 device classes."""
    classes = {r.request.device.cache_key() for r in results}
    if len(classes) > 64:
        raise Failure(f"hot-classes sent {len(classes)} distinct classes")


def check_trace(session: Session) -> int:
    """Planning-thread self times of each request sum to at most plan_ms."""
    plan_self = session.spans["plan_self_ms"]
    checked = 0
    for rung in session.rungs:
        for result in rung.results:
            if not result.answered:
                continue
            rid = result.request.rid
            if rid not in plan_self:
                raise Failure(f"no planning spans linked to request {rid}")
            if plan_self[rid] > result.payload["plan_ms"] + 0.002:
                raise Failure(
                    f"{rid}: planning self time {plan_self[rid]:.4f} ms "
                    f"exceeds plan_ms {result.payload['plan_ms']}"
                )
            checked += 1
    return checked


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def figure(value: Optional[float], samples: int) -> Tuple[float, int]:
    """An end-to-end figure; a percentile the samples cannot support fails."""
    if value is None:
        raise Failure(f"percentile not supported by {samples} samples")
    return value, samples


def end_to_end(main: Session, setups: List[float]
               ) -> Dict[str, Tuple[float, int]]:
    light, heavy = main.rungs[0], main.rungs[1]
    out: Dict[str, Tuple[float, int]] = {}
    for tag, rung in (("light", light), ("heavy", heavy)):
        samples = len(rung.results)
        out[f"latency_p50_ms.{tag}"] = figure(rung.window_figure(0.5), samples)
        out[f"latency_p90_ms.{tag}"] = figure(rung.window_figure(TAIL_Q),
                                              samples)
    answered = sum(r.answered for r in heavy.results)
    out["slo_ok_ratio.heavy"] = (heavy.within_limit / heavy.scheduled,
                                 heavy.scheduled)
    out["slo_rate_rps"] = (slo_rate(main.rungs), len(main.rungs))
    out["cpu_ms_per_req"] = (heavy.cpu_s * 1000.0 / max(1, answered), answered)
    # The gateway has no simulator events of its own: this is the answer
    # rate it delivered over the heavy windows' wall time.
    out["sim_events_per_s"] = (answered / heavy.wall_s, answered)
    out["setup_s"] = (median(setups), len(setups))
    out["peak_rss_mb"] = (main.peak_rss_mb, 1)
    return out


def gateway_layers(session: Session) -> Dict[str, Tuple[float, int]]:
    """Queue/plan split from the responses, client validity figures."""
    results = [r for rung in session.rungs for r in rung.results]
    answered = [r for r in results if r.answered]
    queue = [r.payload["queue_ms"] for r in answered]
    plan = [r.payload["plan_ms"] for r in answered]
    outside = [r.latency_ms - r.payload["queue_ms"] - r.payload["plan_ms"]
               for r in answered]
    lag = [(r.sent_at - r.due_at) * 1000.0 for r in results]
    document = session.metrics.get("metrics", session.metrics)
    counters = document["counters"]
    return {
        "planner.cache.evictions": (float(document["cache"]["evictions"]),
                                    len(results)),
        "gateway.queue_wait_ms.p50": (median(queue), len(queue)),
        "gateway.queue_wait_ms.p90": (percentile(queue, TAIL_Q), len(queue)),
        "gateway.plan_ms.p50": (median(plan), len(plan)),
        "gateway.plan_ms.p90": (percentile(plan, TAIL_Q), len(plan)),
        "gateway.shed": (float(counters["shed_queue"] + counters["shed_rate"]
                               + counters["shed_busy"]), len(results)),
        "gateway.timeouts": (float(counters["timeouts"]), len(results)),
        "gateway.expired": (float(counters["expired"]), len(results)),
        "client.outside_ms.p50": (median(outside), len(outside)),
        "client.send_lag_ms.p90": (percentile(lag, TAIL_Q), len(lag)),
        "client.inflight.max": (float(max(r.inflight_at_send for r in results)),
                                len(results)),
    }


def run(seed: int, seconds: int, trace: bool, root: str
        ) -> Tuple[Dict[str, Tuple[float, int]], int, int, List[str]]:
    """One benchmark run; returns (figures, attempted, failed, notes).

    The untraced ladder always runs; ``trace`` adds a traced session of
    the light and heavy windows.  The figures hold every metric measured,
    end-to-end ones from the untraced session only.
    """
    from repro.workloads.io import load_scenario, save_scenario

    notes: List[str] = []
    with tempfile.TemporaryDirectory(prefix="perfbench-", dir=root) as tmp:
        scenario_path = os.path.join(tmp, "scenario.json")
        save_scenario(gateway_scenario(), scenario_path)
        scenario = load_scenario(scenario_path)
        traffic = HotTraffic(scenario, seed)
        main = serve_session(root, scenario_path, traffic, climb=True,
                             seconds=seconds)
        sessions = [main]
        if trace:
            traced = serve_session(root, scenario_path, traffic, climb=False,
                                   seconds=seconds,
                                   spans_out=os.path.join(tmp, "spans.json"))
            sessions.append(traced)
        checked = 0
        for session in sessions:
            check_accounting(session)
            check_stream(session.sent)
            checked += check_plans(scenario, session.sent, seed)
        notes.append(f"re-planned {checked} sampled answers: all match")
        notes.append("windows run again for host steal: "
                     + ", ".join(str(s.quiet.retried) for s in sessions))
        for rung in main.rungs:
            notes.append(
                f"rung {rung.index:2d}: {rung.rate:7.1f} req/s sent "
                f"{len(rung.results)}/{rung.scheduled} tail "
                f"{rung.raw_tail():8.2f} ms ok {rung.ok_share:.3f} "
                f"{'pass' if rung.passed else 'FAIL'}"
            )
        setups = [main.setup_s]
        if not trace:
            setups += [setup_only(root, scenario_path) for _ in range(2)]
        figures = end_to_end(main, setups)
        figures.update(gateway_layers(main))
        if trace:
            linked = check_trace(traced)
            notes.append(f"trace: {linked} requests' planning self time "
                         f"<= plan_ms")
            figures.update(
                (k, (v, n)) for k, (v, n) in traced.spans["metrics"].items()
            )
            figures["trace.overhead_ratio"] = (
                traced.rungs[0].window_figure(0.5)
                / main.rungs[0].window_figure(0.5),
                len(main.rungs[0].results),
            )
    measured = [r for s in sessions
                for r in s.sent[len(s.warmup):]]
    failed = sum(1 for r in measured if not r.answered)
    return figures, len(measured), failed, notes
