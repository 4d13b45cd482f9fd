"""Property-based tests (hypothesis) on the plan cache.

The cache's contract, checked over generated scenarios and mutations:

- a cache hit returns a plan equal to one computed fresh (same selected
  path, formats, configuration, satisfaction, cost);
- with no intervening mutation, the second call is a hit (same object);
- *any* catalog / topology / placement / ledger mutation between two
  calls changes the fingerprint and forces a recompute.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.network.reservations import BandwidthLedger
from repro.planner import BatchPlanner, PlanCache, PlanRequest
from repro.services.descriptor import ServiceDescriptor
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

MUTATIONS = [
    "none",
    "catalog-add",
    "catalog-remove",
    "topology-node",
    "topology-link",
    "placement",
    "reserve",
]


def _scenario(seed: int):
    return generate_scenario(
        SyntheticConfig(seed=seed, n_services=10, n_formats=6, n_nodes=6)
    )


def _request(scenario) -> PlanRequest:
    return PlanRequest(
        content=scenario.content,
        device=scenario.device,
        user=scenario.user,
        sender_node=scenario.sender_node,
        receiver_node=scenario.receiver_node,
        context=scenario.context,
    )


def _mutate(scenario, ledger: BandwidthLedger, kind: str) -> None:
    if kind == "none":
        return
    if kind == "catalog-add":
        scenario.catalog.add(
            ServiceDescriptor(
                service_id="late-service",
                input_formats=(scenario.registry.names()[0],),
                output_formats=(scenario.registry.names()[-1],),
            )
        )
    elif kind == "catalog-remove":
        scenario.catalog.remove(scenario.catalog.ids()[-1])
    elif kind == "topology-node":
        scenario.topology.node("late-node")
    elif kind == "topology-link":
        scenario.topology.node("late-node")
        scenario.topology.link(scenario.sender_node, "late-node", 1e6)
    elif kind == "placement":
        service_id = scenario.catalog.ids()[0]
        scenario.placement.place(
            service_id, scenario.placement.node_of(service_id)
        )
    elif kind == "reserve":
        link = scenario.topology.links()[0]
        ledger.reserve([link.a, link.b], 1.0)
    else:  # pragma: no cover - guards against typo'd parametrization
        raise AssertionError(kind)


def _plan_fields(plan):
    result = plan.result
    return (
        result.success,
        result.path,
        result.formats,
        result.configuration,
        result.satisfaction,
        result.accumulated_cost,
    )


@given(seed=st.integers(min_value=0, max_value=150))
@settings(max_examples=25, deadline=None)
def test_cached_plan_equals_fresh_plan(seed):
    scenario = _scenario(seed)
    planner = BatchPlanner.for_scenario(scenario, cache=PlanCache())
    request = _request(scenario)
    cached = planner.plan(request)
    fresh = planner.plan_uncached(request)
    session = scenario.session().plan()
    assert _plan_fields(cached) == _plan_fields(fresh) == _plan_fields(session)
    assert (
        cached.graph.vertex_ids()
        == fresh.graph.vertex_ids()
        == session.graph.vertex_ids()
    )
    assert cached.pruning == fresh.pruning == session.pruning


@given(
    seed=st.integers(min_value=0, max_value=150),
    mutation=st.sampled_from(MUTATIONS),
)
@settings(max_examples=40, deadline=None)
def test_mutation_between_calls_forces_recompute(seed, mutation):
    scenario = _scenario(seed)
    ledger = BandwidthLedger(scenario.topology)
    cache = PlanCache()
    planner = BatchPlanner.for_scenario(scenario, cache=cache, ledger=ledger)
    request = _request(scenario)

    first_fp = planner.fingerprint(request)
    first = planner.plan(request)
    _mutate(scenario, ledger, mutation)
    second_fp = planner.fingerprint(request)
    second = planner.plan(request)

    if mutation == "none":
        assert second_fp == first_fp
        assert second is first  # a genuine hit: the very same object
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
    else:
        assert second_fp != first_fp
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2
        # The recomputed plan still matches a from-scratch run of the
        # mutated world.
        assert _plan_fields(second) == _plan_fields(planner.plan_uncached(request))
