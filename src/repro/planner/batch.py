"""Concurrent batch planning over a shared plan cache.

The paper sizes its architecture for a proxy serving *many* clients at
once; planning every arriving session from scratch wastes exactly the work
the cache in :mod:`repro.planner.cache` memoizes.  :class:`BatchPlanner`
pairs the two:

- :meth:`BatchPlanner.plan` fingerprints one request against the current
  infrastructure generations and serves it from the cache (single-flight
  on misses); a miss runs :func:`repro.runtime.session.plan_request` with
  the planner's shared graph builder and ``Optimize()`` memo;
- :meth:`BatchPlanner.plan_batch` fans a whole arrival batch out over a
  :class:`~concurrent.futures.ThreadPoolExecutor`, preserving input order
  in the returned plans.

Planning here is read-only with respect to the infrastructure — admission
(reserving bandwidth) stays with the caller, e.g.
:meth:`repro.sim.world.SimWorld.reserve_plan`.  Every reservation bumps
the ledger generation and thereby invalidates every cached plan that
predates it.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

from repro.core.graph import AdaptationGraphBuilder
from repro.core.optimizer import OptimizeMemo
from repro.core.parameters import ParameterSet
from repro.core.selection import TieBreakPolicy
from repro.formats.registry import FormatRegistry
from repro.network.placement import ServicePlacement
from repro.network.reservations import BandwidthLedger
from repro.network.topology import NetworkTopology
from repro.planner.cache import PlanCache
from repro.policy.engine import PolicyDecision, PolicyEngine, PolicyPlan
from repro.planner.fingerprint import (
    GenerationStamp,
    PlanFingerprint,
    fingerprint_request,
)
from repro.runtime.session import PlanRequest, SessionPlan, plan_request
from repro.services.catalog import ServiceCatalog
from repro.services.descriptor import ServiceDescriptor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.workloads.scenario import Scenario

__all__ = ["PlanRequest", "BatchPlanner"]


class BatchPlanner:
    """Plans many sessions concurrently through one shared cache."""

    def __init__(
        self,
        registry: FormatRegistry,
        parameters: ParameterSet,
        catalog: ServiceCatalog,
        placement: ServicePlacement,
        cache: Optional[PlanCache] = None,
        ledger: Optional[BandwidthLedger] = None,
        max_workers: Optional[int] = None,
        tie_break: TieBreakPolicy = TieBreakPolicy.PAPER,
        prune: bool = True,
        record_trace: bool = False,
        optimize_memo: Optional[OptimizeMemo] = None,
        policy_engine: Optional[PolicyEngine] = None,
    ) -> None:
        self._registry = registry
        self._parameters = parameters
        self._catalog = catalog
        self._placement = placement
        self._cache = cache if cache is not None else PlanCache()
        self._ledger = ledger
        self._max_workers = max_workers
        self._tie_break = tie_break
        self._prune = prune
        # Traces default *off* for batch planning: cached and batch plans
        # drop them anyway, and a full SelectionTrace per plan is the
        # single largest allocation on the hot path.  Opt back in with
        # ``record_trace=True``; plan equality is unaffected (the trace is
        # observability only — pinned by tests/test_batch_planner.py).
        self._record_trace = record_trace
        # One optimize() memo shared by every planned session: distinct
        # sessions over the same infrastructure repeat the same
        # (upstream, caps, format, bandwidth) relaxations, so solved
        # bisections transfer across the whole batch.
        self._optimize_memo = (
            optimize_memo if optimize_memo is not None else OptimizeMemo()
        )
        # One graph builder shared the same way: it keeps the transcoder
        # skeleton of this catalog and placement, so cache misses build
        # only their endpoint edges and per-build route facts.
        self._graph_builder = AdaptationGraphBuilder(catalog, placement)
        # Policy pass ahead of the selector (repro.policy).  Fast-path
        # answers live in the engine's own cache namespace; tier-forced
        # requests plan through per-tier views built lazily below, on
        # this planner's cache (see :meth:`view`).
        self._policy_engine = policy_engine
        self._tier_planners: Dict[
            str, Tuple[Tuple[int, int], "BatchPlanner"]
        ] = {}
        self._tier_lock = threading.Lock()

    @classmethod
    def for_scenario(cls, scenario: "Scenario", **kwargs) -> "BatchPlanner":
        """A planner over a scenario's registry/parameters/catalog/placement."""
        return cls(
            registry=scenario.registry,
            parameters=scenario.parameters,
            catalog=scenario.catalog,
            placement=scenario.placement,
            **kwargs,
        )

    @property
    def cache(self) -> PlanCache:
        return self._cache

    @property
    def registry(self) -> FormatRegistry:
        """The format registry plans resolve against (group planner needs it)."""
        return self._registry

    @property
    def placement(self) -> ServicePlacement:
        """The service placement (group reservation maps services to nodes)."""
        return self._placement

    @property
    def ledger(self) -> Optional[BandwidthLedger]:
        return self._ledger

    @property
    def optimize_memo(self) -> OptimizeMemo:
        """The shared optimize() memo (stats feed :class:`PlannerReport`)."""
        return self._optimize_memo

    @property
    def policy_engine(self) -> Optional[PolicyEngine]:
        return self._policy_engine

    # ------------------------------------------------------------------
    # Single-request planning
    # ------------------------------------------------------------------
    def current_stamp(self) -> GenerationStamp:
        """The infrastructure generations a plan computed now would carry."""
        return GenerationStamp(
            catalog=self._catalog.generation,
            topology=self._placement.topology.generation,
            placement=self._placement.generation,
            reservations=(
                self._ledger.generation if self._ledger is not None else 0
            ),
        )

    def fingerprint(self, request: PlanRequest) -> PlanFingerprint:
        return fingerprint_request(
            user=request.user,
            content=request.content,
            device=request.device,
            sender_node=request.sender_node,
            receiver_node=request.receiver_node,
            catalog=self._catalog,
            placement=self._placement,
            context=request.context,
            ledger=self._ledger,
            peer=request.peer,
            tie_break=self._tie_break,
            prune=self._prune,
            record_trace=self._record_trace,
        )

    def purge_stale(self) -> int:
        """Drop cached plans computed at older infrastructure generations.

        Keeps the plans of this planner's tier views, which share its
        cache; returns how many plans were dropped.
        """
        with self._tier_lock:
            tiers = [view for _key, view in self._tier_planners.values()]
        return self._cache.purge_stale(
            self.current_stamp(), *(view.current_stamp() for view in tiers)
        )

    def plan_uncached(self, request: PlanRequest) -> SessionPlan:
        """Plan one session from scratch (no cache lookup or insert).

        Deliberately bypasses the shared optimize() memo and the shared
        graph builder as well: this is the from-scratch baseline the
        batch-planner bench measures against, so it must pay full planning
        cost every time.
        """
        return self._plan_fresh(
            request, AdaptationGraphBuilder(self._catalog, self._placement), None
        )

    def _plan_fresh(
        self,
        request: PlanRequest,
        builder: AdaptationGraphBuilder,
        optimize_memo: Optional[OptimizeMemo],
    ) -> SessionPlan:
        return plan_request(
            request,
            builder,
            self._registry,
            self._parameters,
            tie_break=self._tie_break,
            prune=self._prune,
            record_trace=self._record_trace,
            optimize_memo=optimize_memo,
        )

    def plan(self, request: PlanRequest) -> Union[SessionPlan, PolicyPlan]:
        """Plan one session through the policy pass and the cache.

        Cache misses compute with the planner's shared optimize() memo, so
        even distinct fingerprints reuse each other's solved relaxations.
        A policy ``skip`` answers without touching the selector at all; a
        ``deny`` raises :class:`~repro.errors.PolicyDeniedError`.
        """
        plan, _hit, _decision = self.plan_with_policy_info(request)
        return plan

    def plan_with_policy_info(
        self, request: PlanRequest
    ) -> Tuple[Union[SessionPlan, PolicyPlan], bool, Optional[PolicyDecision]]:
        """Policy-aware planning: ``(plan, cache_hit, decision)``.

        The policy engine (when configured) is consulted *before* any
        fingerprinting or cache work.  ``decision`` is ``None`` when no
        rule fired (pure selector path).  For a ``skip`` the returned
        plan is the engine's zero-hop :class:`PolicyPlan` and the hit
        flag reflects the engine's decision cache; for ``force_tier``
        planning runs through a tier-filtered :meth:`view` on this
        planner's cache.
        """
        engine = self._policy_engine
        if engine is not None:
            decision = engine.evaluate(request)
            if decision.kind == "deny":
                decision.raise_if_denied()
            elif decision.kind == "skip":
                return decision.plan, decision.cached, decision
            elif decision.kind == "force_tier":
                plan, hit = self._tier_planner(decision.tier)._selector_plan(
                    request
                )
                return plan, hit, decision
        plan, hit = self._selector_plan(request)
        return plan, hit, None

    def _selector_plan(self, request: PlanRequest) -> Tuple[SessionPlan, bool]:
        """The raw selector path: fingerprint, then one cache lookup.

        The hit flag comes from that lookup, so a single-flight follower
        that waited on another thread's computation reports a hit, as
        the cache's ``hits`` counter does.
        """
        return self._cache.get_or_compute(
            self.fingerprint(request),
            lambda: self._plan_fresh(
                request, self._graph_builder, self._optimize_memo
            ),
        )

    def _tier_planner(self, tier: str) -> "BatchPlanner":
        """The view that keeps only ``tier`` transcoders.

        Sender/receiver pseudo-descriptors pass through untouched.  The
        view is rebuilt when this planner's catalog or placement moves,
        since it holds filtered copies of both.
        """
        key = (self._catalog.generation, self._placement.generation)
        with self._tier_lock:
            memo = self._tier_planners.get(tier)
            if memo is None or memo[0] != key:
                memo = (
                    key,
                    self.view(lambda d: not d.is_transcoder or d.tier == tier),
                )
                self._tier_planners[tier] = memo
            return memo[1]

    def view(
        self,
        keep: Callable[[ServiceDescriptor], bool],
        topology: Optional[NetworkTopology] = None,
    ) -> "BatchPlanner":
        """A one-worker planner over the services ``keep`` accepts.

        Their placement entries move to ``topology`` (default: this
        planner's).  The view shares this planner's plan cache, optimize()
        memo, policy engine, ledger and knobs: a fingerprint hashes the
        full catalog, topology and placement content, so views that differ
        in content never share a cache key.
        """
        catalog = ServiceCatalog(d for d in self._catalog if keep(d))
        placement = ServicePlacement(
            topology if topology is not None else self._placement.topology,
            {
                service_id: node_id
                for service_id, node_id in self._placement.as_dict().items()
                if service_id in catalog
            },
        )
        return BatchPlanner(
            registry=self._registry,
            parameters=self._parameters,
            catalog=catalog,
            placement=placement,
            cache=self._cache,
            ledger=self._ledger,
            max_workers=1,
            tie_break=self._tie_break,
            prune=self._prune,
            record_trace=self._record_trace,
            optimize_memo=self._optimize_memo,
            policy_engine=self._policy_engine,
        )

    # ------------------------------------------------------------------
    # Batch planning
    # ------------------------------------------------------------------
    def plan_batch(
        self,
        requests: Sequence[PlanRequest],
        use_cache: bool = True,
    ) -> List[SessionPlan]:
        """Plan a batch concurrently; plans come back in request order.

        Stale cache entries (older infrastructure generations) are purged
        up front, so the batch starts from a consistent snapshot.  With
        ``use_cache=False`` every request is planned from scratch — the
        uncached baseline the benchmark compares against.
        """
        if not requests:
            return []
        if use_cache:
            self.purge_stale()
            planner = self.plan
        else:
            planner = self.plan_uncached
        workers = self._max_workers or min(8, len(requests))
        if workers <= 1:
            return [planner(request) for request in requests]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(planner, requests))
