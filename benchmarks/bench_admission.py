"""E16 — extension: concurrent sessions under admission control.

Section 2 argues the proxy-based approach "scal[es] properly with the
number of clients".  This bench admits identical clients one after another
onto the Figure 6 infrastructure through the simulator's shared world
(:class:`~repro.sim.world.SimWorld`): each new session is planned against
the bandwidth the previous ones left (the reservation ledger), admitted
only if its satisfaction clears the floor, and its chain reserved hop by
hop.  It charts the satisfaction of the k-th admission until the
infrastructure saturates — then tears one session down and shows capacity
returning.
"""

from __future__ import annotations

from repro.planner import synthetic_requests
from repro.sim import SimWorld
from repro.workloads.paper import figure6_scenario

from conftest import format_table

#: Operator's admission floor: arrivals planned below it are rejected.
FLOOR = 0.10


def fresh_world():
    world = SimWorld(figure6_scenario())
    (request,) = synthetic_requests(world.scenario, 1, 1)
    return world, request


def admit_once(world, request):
    """Plan, apply the floor, reserve: ``(plan, leases)`` or ``None``."""
    plan = world.plan(request)
    if plan is None or plan.result.satisfaction < FLOOR:
        return None
    leases = world.reserve_plan(plan, request)
    if leases is None:
        return None
    return plan, leases


def test_admission_until_saturation(benchmark, save_artifact):
    def one_admission_cycle():
        world, request = fresh_world()
        plan, leases = admit_once(world, request)
        world.release(leases)
        return plan

    benchmark(one_admission_cycle)

    def row(label, session):
        if session is None:
            return (label, "REJECTED", "-", "-")
        result = session[0].result
        return (
            label,
            ",".join(result.path),
            f"{result.delivered_frame_rate:.2f}",
            f"{result.satisfaction:.3f}",
        )

    world, request = fresh_world()
    rows = []
    admitted = []
    # The upper bound is a safety net; the infrastructure saturates well
    # before it.
    for k in range(1, 42):
        session = admit_once(world, request)
        rows.append(row(k, session))
        if session is None:
            break
        admitted.append(session)

    # Tear down the first (best) session and admit once more.
    world.release(admitted[0][1])
    revived = admit_once(world, request)
    rows.append(row("after teardown", revived))

    save_artifact(
        "admission.txt",
        "E16 — successive admissions on the Figure 6 infrastructure\n"
        f"(identical clients; floor S >= {FLOOR:.2f})\n\n"
        + format_table(["admission", "chain", "fps", "satisfaction"], rows),
    )

    satisfactions = [plan.result.satisfaction for plan, _ in admitted]
    # Shape: capacity is finite, early sessions fare best, teardown gives
    # capacity back.
    assert 2 <= len(admitted) <= 40
    assert satisfactions == sorted(satisfactions, reverse=True)
    assert revived is not None
    assert revived[0].result.satisfaction >= satisfactions[-1] - 1e-9
