"""Self-tests of the benchmark's own rules (run: pytest perfbench/tests)."""

import hashlib
import math

import pytest

from perfbench.gateway_bench import LIMIT_MS, Rung, slo_rate
from perfbench.stats import percentile, self_times
from perfbench.workloads import HotTraffic, gateway_scenario


# -- percentile rule ----------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 100))  # 99 samples: only 9 beyond p90
    assert percentile(values, 0.9) is None
    values.append(100)
    assert percentile(values, 0.9) == 90
    assert sum(v > 90 for v in values) == 10
    # p99 needs 1,000 samples.
    assert percentile(list(range(999)), 0.99) is None
    assert percentile(list(range(1000)), 0.99) == 989


def test_median_needs_one_sample():
    assert percentile([7.0], 0.5) == 7.0
    assert percentile([], 0.5) is None


# -- self time ----------------------------------------------------------------
def test_self_time_subtracts_nested_children():
    spans = [
        ("root", 0, 100, -1, "a"),
        ("child", 10, 40, 0, "a"),
        ("grandchild", 15, 25, 1, "a"),
        ("child", 50, 70, 0, "a"),
    ]
    assert self_times(spans) == [50, 20, 10, 20]
    # Self times of one tree sum to the root's duration.
    assert sum(self_times(spans)) == 100


def test_self_time_merges_overlapping_and_clips_overrunning_children():
    spans = [
        ("root", 0, 100, -1, None),
        ("a", 10, 60, 0, None),
        ("b", 40, 130, 0, None),  # overlaps a and runs past the root
    ]
    assert self_times(spans)[0] == 10


# -- request streams ------------------------------------------------------------
@pytest.fixture(scope="module")
def scenario():
    return gateway_scenario()


def _stream_digest(scenario, seed):
    traffic = HotTraffic(scenario, seed)
    digest = hashlib.sha256()
    for request in traffic.warmup() + traffic.rung("r0w0", 300.0, 300):
        digest.update(repr(request.due_s).encode())
        digest.update(request.wire)
    return digest.hexdigest()


def test_seed_reproduces_byte_identical_stream(scenario):
    first = _stream_digest(scenario, 5)
    assert first == _stream_digest(scenario, 5)
    assert first != _stream_digest(scenario, 6)


def test_hot_classes_sends_at_most_64_fingerprints(scenario):
    from repro.planner.batch import BatchPlanner

    planner = BatchPlanner.for_scenario(scenario)
    traffic = HotTraffic(scenario, 3)
    requests = traffic.warmup()
    for window in range(3):
        requests += traffic.rung(f"r0w{window}", 300.0, 300)
        requests += traffic.rung(f"r1w{window}", 600.0, 300)
    prints = {planner.fingerprint(r.plan_request(scenario)) for r in requests}
    assert len(prints) <= 64


def test_about_a_third_of_hot_classes_decode_the_source(scenario):
    source = scenario.content.format_names()[0]
    native = [d for d in HotTraffic(scenario, 3).classes if d.can_decode(source)]
    assert len(native) == 22  # ranks 0, 3, ..., 63


# -- ladder interpolation -------------------------------------------------------
class _Answered:
    def __init__(self, latency_ms):
        self.latency_ms = latency_ms
        self.answered = True
        self.inflight_at_send = 1


def _rung(rate, tail_ms):
    # 11 of 100 samples at ``tail_ms`` put the nearest-rank p90 there.
    count = 100
    results = [_Answered(1.0) for _ in range(count - 11)]
    results += [_Answered(tail_ms) for _ in range(11)]
    return Rung(0, rate, [results], scheduled=count, wall_s=1.0)


def test_slo_rate_interpolates_in_log_latency_between_rungs():
    rungs = [_rung(10.0, 10.0), _rung(20.0, 1000.0)]
    # Halfway in log latency (10 -> 100 -> 1000) is halfway in log rate.
    assert slo_rate(rungs) == pytest.approx(10.0 * math.sqrt(2.0))
    assert rungs[0].passed and not rungs[1].passed
    assert rungs[1].raw_tail() > LIMIT_MS


def test_slo_rate_is_continuous_at_a_rung_boundary():
    just_fails = slo_rate([_rung(10.0, 5.0), _rung(20.0, LIMIT_MS * 1.0001)])
    assert just_fails == pytest.approx(20.0, rel=1e-3)
