"""Planner views share one plan cache without changing any answer.

:meth:`~repro.planner.batch.BatchPlanner.view` cuts a planner over the
services a predicate keeps (optionally on another topology) that plans on
its parent's cache; the tier views a ``force_tier`` policy plans through
are views too.  Checked over synthetic worlds with hardware-tier siblings,
random transcoder masks, both tiers and every tie-break policy:

- requests planned in interleaved order through the base planner, several
  views and their tier views, all on one cache, each equal the plan of a
  fresh planner over a hand-filtered catalog and placement, and a replay
  of the same calls is served from the cache;
- every selector lookup lands in the one cache's counters;
- ``plan_batch`` purges stale plans without dropping a live tier view's;
- a tier view follows its parent's catalog.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.core.optimizer import OptimizeMemo
from repro.core.selection import TieBreakPolicy
from repro.errors import ReproError
from repro.network.placement import ServicePlacement
from repro.network.topology import NetworkTopology
from repro.planner import BatchPlanner, PlanCache, PlanRequest
from repro.planner.workload import device_variants
from repro.policy import DeviceIn, PolicyDocument, PolicyEngine, PolicyRule
from repro.services.catalog import ServiceCatalog
from repro.services.descriptor import SERVICE_TIERS
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

VARIANTS = 6
ENDPOINTS = ("sender", "receiver")


def _world(seed: int):
    # No extra decoders: the device decodes only the backbone's final
    # format, so every plan routes through transcoders.
    return generate_scenario(
        SyntheticConfig(
            seed=seed, n_services=10, n_formats=6, n_nodes=6,
            hw_tier_fraction=0.5, extra_decoders=0,
        )
    )


def _request(scenario, device) -> PlanRequest:
    return PlanRequest(
        content=scenario.content,
        device=device,
        user=scenario.user,
        sender_node=scenario.sender_node,
        receiver_node=scenario.receiver_node,
        context=scenario.context,
    )


def _tier_engine(variants, tiers) -> PolicyEngine:
    """``force_tier`` each variant to its drawn tier (``None``: no rule)."""
    rules = tuple(
        PolicyRule(
            rule_id=f"pin-{tier}",
            action="force_tier",
            tier=tier,
            predicates=(
                DeviceIn(tuple(
                    device.device_id
                    for device, pinned in zip(variants, tiers)
                    if pinned == tier
                )),
            ),
        )
        for tier in SERVICE_TIERS
        if tier in tiers
    )
    return PolicyEngine(PolicyDocument(name="tiers", rules=rules))


def _squeezed(topology: NetworkTopology) -> NetworkTopology:
    """A copy of ``topology`` with every other link at 30% bandwidth."""
    copy = NetworkTopology()
    for node in topology.nodes():
        copy.add_node(node)
    for index, link in enumerate(topology.links()):
        if index % 2:
            link = dataclasses.replace(
                link, bandwidth_bps=link.bandwidth_bps * 0.3
            )
        copy.add_link(link)
    return copy


def _mask(transcoders, bits: int):
    kept = {sid for index, sid in enumerate(transcoders) if bits >> index & 1}
    return lambda d: not d.is_transcoder or d.service_id in kept


def _fresh(scenario, keep, topology, tier, tie_break, request):
    """The plan of a planner built from scratch over the filtered world."""
    catalog = ServiceCatalog(
        d
        for d in scenario.catalog
        if keep(d) and (tier is None or not d.is_transcoder or d.tier == tier)
    )
    placement = ServicePlacement(
        topology,
        {
            s: n
            for s, n in scenario.placement.as_dict().items()
            if s in catalog
        },
    )
    planner = BatchPlanner(
        registry=scenario.registry,
        parameters=scenario.parameters,
        catalog=catalog,
        placement=placement,
        cache=PlanCache(),
        max_workers=1,
        tie_break=tie_break,
        optimize_memo=OptimizeMemo(),
    )
    return _attempt(planner.plan, request)


def _attempt(plan, request):
    try:
        return plan(request)
    except ReproError as exc:
        return type(exc)


def _assert_same_plan(ours, theirs):
    if isinstance(theirs, type):
        assert ours is theirs
        return
    assert ours.result == theirs.result
    assert ours.pruning == theirs.pruning
    assert ours.graph.vertex_ids() == theirs.graph.vertex_ids()
    assert [repr(e) for e in ours.graph.edges()] == [
        repr(e) for e in theirs.graph.edges()
    ]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=40),
    tie_break=st.sampled_from(list(TieBreakPolicy)),
    tiers=st.lists(
        st.sampled_from((None,) + SERVICE_TIERS),
        min_size=VARIANTS,
        max_size=VARIANTS,
    ),
    masks=st.lists(
        st.integers(min_value=0, max_value=2**24 - 1), min_size=2, max_size=2
    ),
    calls=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=VARIANTS - 1),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_views_on_one_cache_plan_like_fresh_planners(
    seed, tie_break, tiers, masks, calls
):
    scenario = _world(seed)
    variants = device_variants(scenario.device, VARIANTS)
    transcoders = [d.service_id for d in scenario.catalog.transcoders()]
    keep_a = _mask(transcoders, masks[0])
    keep_b = _mask(transcoders, masks[1])
    base = BatchPlanner.for_scenario(
        scenario,
        max_workers=1,
        tie_break=tie_break,
        policy_engine=_tier_engine(variants, tiers),
    )
    squeezed = _squeezed(scenario.topology)
    view_a = base.view(keep_a)
    # (planner, what it keeps, the topology it plans on)
    planners = [
        (base, lambda d: True, scenario.topology),
        (view_a, keep_a, scenario.topology),
        (base.view(keep_b, topology=squeezed), keep_b, squeezed),
        (view_a.view(keep_b), lambda d: keep_a(d) and keep_b(d),
         scenario.topology),
    ]

    answers = []
    for which, variant in calls:
        planner, keep, topology = planners[which]
        request = _request(scenario, variants[variant])
        ours = _attempt(
            lambda r: planner.plan_with_policy_info(r)[0], request
        )
        theirs = _fresh(
            scenario, keep, topology, tiers[variant], tie_break, request
        )
        _assert_same_plan(ours, theirs)
        answers.append(ours)
    # One probe per selector lookup, whichever view or tier made it.
    assert base.cache.stats.lookups == len(calls)

    for (which, variant), first in zip(calls, answers):
        planner = planners[which][0]
        request = _request(scenario, variants[variant])
        if isinstance(first, type):
            continue
        plan, hit, _decision = planner.plan_with_policy_info(request)
        assert hit is True
        assert plan is first


def test_plan_batch_purge_keeps_live_tier_views():
    scenario = _world(3)
    variants = device_variants(scenario.device, VARIANTS)
    tiers = ["hw", "sw", None] * (VARIANTS // 3)
    planner = BatchPlanner.for_scenario(
        scenario, max_workers=1, policy_engine=_tier_engine(variants, tiers)
    )
    requests = [_request(scenario, device) for device in variants]
    planner.plan_batch(requests)
    first = planner.cache.stats
    assert first.lookups == len(requests)
    planner.plan_batch(requests)
    second = planner.cache.stats
    assert second.misses == first.misses
    assert second.hits - first.hits == len(requests)
    assert second.invalidations == first.invalidations


def test_tier_view_follows_the_parent_catalog():
    scenario = _world(3)
    engine = PolicyEngine(
        PolicyDocument(
            name="hw",
            rules=(PolicyRule(rule_id="pin", action="force_tier", tier="hw"),),
        )
    )
    planner = BatchPlanner.for_scenario(
        scenario, max_workers=1, policy_engine=engine
    )
    request = _request(scenario, scenario.device)
    before = planner.plan(request)
    hops = [sid for sid in before.result.path if sid not in ENDPOINTS]
    assert hops, "the seed must plan through at least one hw transcoder"
    for service_id in hops:
        scenario.catalog.remove(service_id)
    after = _attempt(planner.plan, request)
    _assert_same_plan(
        after,
        _fresh(
            scenario, lambda d: True, scenario.topology, "hw",
            TieBreakPolicy.PAPER, request,
        ),
    )
