"""Adaptation sessions and the one planning pipeline.

:func:`plan_request` is the paper's planning pipeline for one request,
and the only code that runs it:

1. construct the adaptation graph (Section 4.2) from the request's
   content, device and optional context profiles and the intermediaries
   the builder holds (catalog + placement, over the topology);
2. prune it (Section 4's optimization pass);
3. run the QoS path-selection algorithm (Section 4.4) for the user.

Callers differ only in what they share across plans.
:meth:`AdaptationSession.plan` passes a fresh graph builder and no
``Optimize()`` memo; :class:`~repro.planner.batch.BatchPlanner` passes
its shared builder and memo on a plan-cache miss, and a fresh builder
with no memo for its from-scratch baseline.

An :class:`AdaptationSession` is one user's session over one world: it
plans through :func:`plan_request`, then optionally streams the selected
chain and reports delivery metrics.  This is the class downstream users
touch first; the examples are built on it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core.graph import AdaptationGraph, AdaptationGraphBuilder
from repro.core.optimizer import OptimizeMemo
from repro.core.parameters import ParameterSet
from repro.core.pruning import GraphPruner, PruningReport
from repro.core.selection import (
    QoSPathSelector,
    SelectionResult,
    TieBreakPolicy,
    build_chain,
)
from repro.errors import NoPathError
from repro.formats.registry import FormatRegistry
from repro.network.bandwidth import BandwidthEstimator, FluctuationModel
from repro.network.placement import ServicePlacement
from repro.profiles.content import ContentProfile
from repro.profiles.context import ContextProfile
from repro.profiles.device import DeviceProfile
from repro.profiles.user import UserProfile
from repro.runtime.events import EventLog
from repro.runtime.metrics import DeliveryReport
from repro.runtime.pipeline import DeliveryPipeline
from repro.services.catalog import ServiceCatalog
from repro.services.chains import AdaptationChain

__all__ = ["PlanRequest", "SessionPlan", "plan_request", "AdaptationSession"]


@dataclass(frozen=True)
class PlanRequest:
    """One session to plan: profiles plus endpoints."""

    content: ContentProfile
    device: DeviceProfile
    user: UserProfile
    sender_node: str
    receiver_node: str
    context: Optional[ContextProfile] = None
    peer: Optional[str] = None


@dataclass(frozen=True)
class SessionPlan:
    """Everything the planning phase produced."""

    graph: AdaptationGraph
    pruning: PruningReport
    result: SelectionResult

    @property
    def success(self) -> bool:
        return self.result.success

    def chain(self) -> AdaptationChain:
        """The selected chain as an executable object (success only)."""
        return build_chain(self.graph, self.result)


def plan_request(
    request: PlanRequest,
    builder: AdaptationGraphBuilder,
    registry: FormatRegistry,
    parameters: ParameterSet,
    tie_break: TieBreakPolicy,
    prune: bool,
    record_trace: bool,
    optimize_memo: Optional[OptimizeMemo] = None,
) -> SessionPlan:
    """Plan one request: build the graph, prune it, select a path.

    ``builder`` holds the catalog and placement the graph is built over;
    ``optimize_memo`` (optional) shares solved ``Optimize()`` relaxations
    with other plans over the same infrastructure.
    """
    context = request.context
    graph = builder.build(
        content=request.content,
        device=request.device,
        sender_node=request.sender_node,
        receiver_node=request.receiver_node,
        context_caps=context.parameter_caps() if context is not None else None,
    )
    if prune:
        graph, report = GraphPruner().prune(graph)
    else:
        report = PruningReport(
            vertices_before=len(graph),
            vertices_after=len(graph),
            edges_before=graph.edge_count(),
            edges_after=graph.edge_count(),
        )
    result = QoSPathSelector.for_user(
        graph=graph,
        registry=registry,
        parameters=parameters,
        user=request.user,
        peer=request.peer,
        tie_break=tie_break,
        record_trace=record_trace,
        optimize_memo=optimize_memo,
    ).run()
    return SessionPlan(graph=graph, pruning=report, result=result)


class AdaptationSession:
    """One content-delivery session for one user on one device."""

    def __init__(
        self,
        registry: FormatRegistry,
        parameters: ParameterSet,
        catalog: ServiceCatalog,
        placement: ServicePlacement,
        content: ContentProfile,
        device: DeviceProfile,
        user: UserProfile,
        sender_node: str,
        receiver_node: str,
        context: Optional[ContextProfile] = None,
        tie_break: TieBreakPolicy = TieBreakPolicy.PAPER,
        prune: bool = True,
        record_trace: bool = True,
    ) -> None:
        self._registry = registry
        self._parameters = parameters
        self._catalog = catalog
        self._placement = placement
        self._request = PlanRequest(
            content=content,
            device=device,
            user=user,
            sender_node=sender_node,
            receiver_node=receiver_node,
            context=context,
        )
        self._tie_break = tie_break
        self._prune = prune
        self._record_trace = record_trace

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, peer: Optional[str] = None) -> SessionPlan:
        """Run graph construction, pruning, and path selection."""
        return plan_request(
            replace(self._request, peer=peer),
            AdaptationGraphBuilder(self._catalog, self._placement),
            self._registry,
            self._parameters,
            tie_break=self._tie_break,
            prune=self._prune,
            record_trace=self._record_trace,
        )

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def deliver(
        self,
        plan: SessionPlan,
        duration_s: float = 30.0,
        fluctuation: Optional[FluctuationModel] = None,
        seed: int = 0,
        events: Optional[EventLog] = None,
    ) -> DeliveryReport:
        """Stream the planned chain and report what the receiver saw."""
        if not plan.success:
            raise NoPathError(plan.result.failure_reason)
        chain = plan.chain()
        # Endpoints participate in routing, so they need host assignments.
        placement = self._placement
        if not placement.is_placed(plan.graph.sender_id):
            placement.place(plan.graph.sender_id, self._request.sender_node)
        if not placement.is_placed(plan.graph.receiver_id):
            placement.place(plan.graph.receiver_id, self._request.receiver_node)
        estimator = BandwidthEstimator(placement.topology, fluctuation)
        pipeline = DeliveryPipeline(
            placement=placement,
            registry=self._registry,
            estimator=estimator,
            seed=seed,
        )
        configuration = plan.result.configuration
        if configuration is None:
            raise NoPathError("plan carries no delivered configuration")
        return pipeline.stream(
            chain=chain,
            configuration=configuration,
            satisfaction_of=self._request.user.satisfaction().evaluate_present,
            duration_s=duration_s,
            events=events,
        )

    def plan_and_deliver(
        self,
        duration_s: float = 30.0,
        fluctuation: Optional[FluctuationModel] = None,
        seed: int = 0,
    ) -> DeliveryReport:
        """Convenience: plan, then deliver, in one call."""
        return self.deliver(self.plan(), duration_s, fluctuation, seed)
