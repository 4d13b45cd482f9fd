"""The simulator's live residual view equals a fresh snapshot after every move.

:class:`~repro.sim.world.SimWorld` keeps one residual topology per fault
generation and patches only the links the ledger touched; its catalog,
placement and planner live until the fault state, the health generation
or the quarantine set moves.  This seeded stateful test drives a small
world through random admissions (plan + reserve), releases, rollback-style
re-reservations straight through ``world.ledger`` (as
``SimSession._try_switch`` does), link factors, node failures and
restores, service crashes and recoveries, and breaker trips and recoveries
on an attached health registry.  After every operation:

- the view's links and adjacency (order, bandwidth, delay, loss, cost)
  equal :meth:`SimWorld.effective_topology`'s, compared by ``repr``;
- the view's plan caches hold no stale plan;
- ``world.plan(request)`` equals the plan of a planner built from scratch
  over ``effective_topology()`` and the filtered catalog.
"""

from __future__ import annotations

import random

import pytest

from repro.core.optimizer import OptimizeMemo
from repro.errors import ReproError
from repro.network.placement import ServicePlacement
from repro.planner.batch import BatchPlanner, PlanRequest
from repro.planner.cache import PlanCache
from repro.planner.workload import device_variants
from repro.policy.engine import PolicyPlan
from repro.serve.health import HealthConfig, HealthRegistry
from repro.services.catalog import ServiceCatalog
from repro.sim.scenarios import SCENARIOS
from repro.sim.world import SimWorld

STEPS = 70


class Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _requests(scenario, rng, variants):
    nodes = scenario.topology.node_ids()
    far = rng.random() < 0.3
    return PlanRequest(
        content=scenario.content,
        device=rng.choice(variants),
        user=scenario.user,
        sender_node=rng.choice(nodes) if far else scenario.sender_node,
        receiver_node=rng.choice(nodes) if far else scenario.receiver_node,
        context=scenario.context,
    )


def _fresh_plan(world: SimWorld, clock: Clock, request: PlanRequest):
    """The plan of a planner built from scratch for the current state."""
    quarantined = (
        world.health.quarantined(clock.now) if world.health is not None else ()
    )
    catalog = ServiceCatalog(
        d
        for d in world.scenario.catalog
        if not world.service_is_down(d.service_id)
        and d.service_id not in quarantined
    )
    placement = ServicePlacement(
        world.effective_topology(),
        {
            s: n
            for s, n in world.scenario.placement.as_dict().items()
            if s in catalog
        },
    )
    planner = BatchPlanner(
        registry=world.scenario.registry,
        parameters=world.scenario.parameters,
        catalog=catalog,
        placement=placement,
        cache=PlanCache(),
        max_workers=1,
        optimize_memo=OptimizeMemo(),
        policy_engine=world.policy_engine,
    )
    try:
        plan = planner.plan(request)
    except ReproError:
        return None
    return plan if plan.success else None


def _assert_same_plan(ours, theirs):
    if theirs is None or ours is None:
        assert ours is None and theirs is None
        return
    assert type(ours) is type(theirs)
    if isinstance(theirs, PolicyPlan):
        assert ours == theirs
        return
    assert ours.result == theirs.result
    assert ours.pruning == theirs.pruning
    assert ours.graph.vertex_ids() == theirs.graph.vertex_ids()
    assert [repr(e) for e in ours.graph.edges()] == [
        repr(e) for e in theirs.graph.edges()
    ]


def _assert_view_current(world: SimWorld):
    view = world._residual_view()
    fresh = world.effective_topology()
    assert [repr(link) for link in view.links()] == [
        repr(link) for link in fresh.links()
    ]
    assert repr(view._adjacency) == repr(fresh._adjacency)
    if world._planner is not None:
        assert world._planner.purge_stale() == 0


@pytest.mark.parametrize("name", ["gray-failure", "policy-mix"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_live_view_matches_fresh_snapshot(name, seed):
    scenario = SCENARIOS[name](seed, 1, False).scenario
    rng = random.Random(f"live-view:{name}:{seed}")
    clock = Clock()
    world = SimWorld(scenario, seed=seed)
    world.bind_clock(clock)
    health = HealthRegistry(HealthConfig(min_samples=3, cooldown_s=2.0))
    world.attach_health(health)
    variants = device_variants(scenario.device, 10)
    links = scenario.topology.links()
    nodes = scenario.topology.node_ids()
    services = [d.service_id for d in scenario.catalog.transcoders()]
    held = []  # lease lists from reserve_plan
    direct = []  # reservations taken straight through the ledger

    for _ in range(STEPS):
        op = rng.choice(
            ["admit"] * 5
            + ["release", "rollback", "link", "node", "service", "health"]
        )
        if op == "admit":
            request = _requests(scenario, rng, variants)
            plan = world.plan(request)
            if plan is not None:
                leases = world.reserve_plan(plan, request, label="t")
                if leases is not None:
                    held.append(leases)
        elif op == "release" and (held or direct):
            if held and (not direct or rng.random() < 0.5):
                world.release(held.pop(rng.randrange(len(held))))
            else:
                world.ledger.release(direct.pop(rng.randrange(len(direct))))
        elif op == "rollback" and held:
            leases = held.pop(rng.randrange(len(held)))
            world.release(leases)
            for lease in leases:
                direct.append(
                    world.ledger.reserve(
                        list(lease.route), lease.reservation.bandwidth_bps
                    )
                )
        elif op == "link":
            link = rng.choice(links)
            world.set_link_factor(
                link.a, link.b, rng.choice([0.0, 0.25, 0.6, 1.0, 1.5])
            )
        elif op == "node":
            node = rng.choice(nodes)
            if world.node_is_down(node) or rng.random() < 0.3:
                world.restore_node(node)
            else:
                world.fail_node(node)
        elif op == "service":
            service = rng.choice(services)
            if world.service_is_down(service):
                world.recover_service(service)
            else:
                world.crash_service(service)
        elif op == "health":
            clock.now += rng.choice([0.0, 0.5, 3.0])
            service = rng.choice(services)
            ok = rng.random() < 0.4
            for _ in range(4):
                health.report(service, ok, clock.now)

        _assert_view_current(world)
        for _ in range(2):
            request = _requests(scenario, rng, variants)
            _assert_same_plan(world.plan(request), _fresh_plan(world, clock, request))
