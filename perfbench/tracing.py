"""In-memory span tracing of the program's layers, installed from outside.

:func:`install` wraps the public entry points of each layer (plus the
names :mod:`repro.serve.gateway` bound at import) without touching the
program's source.  Every call records ``(name, start_ns, end_ns, parent,
rid)`` into a per-thread list, so recording takes no lock; the parent is
the enclosing wrapped call on the same thread.  Spans stay in memory
until :meth:`Tracer.summary` reduces them to per-layer figures at drain.

Request ids: the gateway reads ``x-request-id`` with each request, and the
HTTP read wrapper puts it in a context variable that the rest of the
connection task sees.  The planning thread is linked through the decoded
device profile: the decode wrapper maps the envelope's device object to
the request id, and the planner wrapper looks the device of its
``PlanRequest`` up (the gateway passes that very object through).
"""

from __future__ import annotations

import contextvars
import functools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.stats import mean, percentile, self_times

#: Request id carried by the marker request that opens the measured window.
MARK_RID = "perfbench-mark"

_now = time.perf_counter_ns
_RID: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "perfbench_rid", default=None
)
_FIRST_LINE: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "perfbench_first_line", default=None
)


class Tracer:
    """Span store plus the small per-span notes some layers need."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lists: List[Tuple[List[list], Dict[int, Any]]] = []
        self._lists_lock = threading.Lock()
        self._device_rids: Dict[int, Tuple[Any, Optional[str]]] = {}
        self.mark_ns: Optional[int] = None

    # -- recording -----------------------------------------------------
    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], {}, [])  # spans, notes, stack
            self._local.state = state
            with self._lists_lock:
                self._lists.append((state[0], state[1]))
        return state

    def sync(self, name: str, fn: Callable, note: Optional[Callable] = None,
             before: Optional[Callable] = None,
             rid_of: Optional[Callable] = None) -> Callable:
        """Wrap a plain function or method.

        ``note(args, result, before_value)`` stores one value per span;
        ``before(args)`` supplies ``before_value`` ahead of the call.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, notes, stack = tracer._thread_state()
            parent = stack[-1] if stack else -1
            if parent >= 0:
                rid = spans[parent][4]
            elif rid_of is not None:
                rid = rid_of(args)
            else:
                rid = _RID.get()
            record = [name, _now(), 0, parent, rid]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            ahead = before(args) if before is not None else None
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = _now()
                stack.pop()
            if note is not None:
                notes[index] = note(args, result, ahead)
            return result

        return wrapper

    def device_rid(self, device: Any) -> Optional[str]:
        entry = self._device_rids.get(id(device))
        return entry[1] if entry is not None and entry[0] is device else None

    # -- reduction -----------------------------------------------------
    def merged(self) -> Tuple[List[list], Dict[int, Any]]:
        """All threads' spans in one list (parents re-indexed) plus notes."""
        spans: List[list] = []
        notes: Dict[int, Any] = {}
        with self._lists_lock:
            lists = list(self._lists)
        for thread_spans, thread_notes in lists:
            offset = len(spans)
            for record in list(thread_spans):
                name, start, end, parent, rid = record
                spans.append([name, start, end,
                              parent + offset if parent >= 0 else -1, rid])
            for index, value in list(thread_notes.items()):
                notes[index + offset] = value
        return spans, notes

    def summary(self) -> Dict[str, Any]:
        spans, notes = self.merged()
        return summarize(spans, notes, self.mark_ns or 0)


def summarize(spans: List[list], notes: Dict[int, Any],
              mark_ns: int = 0) -> Dict[str, Any]:
    """Per-layer figures over the spans that start at or after ``mark_ns``.

    Shares are self time over the total self time of every span under a
    ``planner.plan`` root (the planning-thread work).  ``plan_self_ms``
    maps request ids to the summed self times of their planning tree,
    which the benchmark checks against the ``plan_ms`` the gateway
    reported for that request.
    """
    selfs = self_times([tuple(s) for s in spans])
    plan_root: List[int] = [-1] * len(spans)
    for index, (name, _s, _e, parent, _rid) in enumerate(spans):
        if name == "planner.plan":
            plan_root[index] = index
        elif parent >= 0:
            plan_root[index] = plan_root[parent]
    has_child = [False] * len(spans)
    for _name, _s, _e, parent, _rid in spans:
        if parent >= 0:
            has_child[parent] = True

    durations: Dict[str, List[float]] = {}
    self_ns: Dict[str, int] = {}
    plan_self_total = 0
    under_plan: Dict[str, int] = {}
    self_under_plan: Dict[str, int] = {}
    plan_self_by_rid: Dict[str, int] = {}
    cache_hit_us: List[float] = []
    cache_calls = 0
    fresh_plans = 0
    plans_in_world = 0
    for index, (name, start, end, parent, rid) in enumerate(spans):
        if start < mark_ns:
            continue
        durations.setdefault(name, []).append((end - start) / 1000.0)
        self_ns[name] = self_ns.get(name, 0) + selfs[index]
        root = plan_root[index]
        if root >= 0:
            plan_self_total += selfs[index]
            under_plan[name] = under_plan.get(name, 0) + 1
            self_under_plan[name] = self_under_plan.get(name, 0) + selfs[index]
            root_rid = spans[root][4]
            if root_rid is not None:
                plan_self_by_rid[root_rid] = (
                    plan_self_by_rid.get(root_rid, 0) + selfs[index]
                )
        if name == "planner.cache":
            cache_calls += 1
            if not has_child[index]:
                cache_hit_us.append((end - start) / 1000.0)
        if name == "sim.world.effective_topology" and parent >= 0:
            if spans[parent][0] == "sim.world.plan":
                fresh_plans += 1
        if name == "sim.world.plan":
            plans_in_world += 1

    def noted(name: str) -> List[Any]:
        return [
            value for index, value in notes.items()
            if value is not None and spans[index][0] == name
            and spans[index][1] >= mark_ns
        ]

    def p(name: str, q: float, scale: float = 1.0) -> Optional[float]:
        value = percentile(durations.get(name, []), q)
        return None if value is None else value * scale

    def calls(name: str) -> int:
        return len(durations.get(name, []))

    def share(*names: str) -> Optional[float]:
        if plan_self_total <= 0:
            return None
        return sum(self_under_plan.get(n, 0) for n in names) / plan_self_total

    plans = calls("planner.plan")
    skips = noted("policy.evaluate")
    memo = noted("optimizer.optimize")
    bytes_out = noted("protocol.encode")
    dispatch_total = sum(durations.get("sim.dispatch", [])) * 1000.0  # ns
    metrics: Dict[str, Tuple[Optional[float], int]] = {
        "http11.read_us.p50": (p("http11.read", 0.5), calls("http11.read")),
        "http11.render_us.p50": (p("http11.render", 0.5), calls("http11.render")),
        "protocol.decode_us.p50": (p("protocol.decode", 0.5),
                                   calls("protocol.decode")),
        "protocol.encode_us.p50": (p("protocol.encode", 0.5),
                                   calls("protocol.encode")),
        "protocol.response_bytes.mean": (mean(bytes_out), len(bytes_out)),
        "policy.evaluate_us.p50": (p("policy.evaluate", 0.5),
                                   calls("policy.evaluate")),
        "policy.skip_ratio": (mean([1.0 if s else 0.0 for s in skips]),
                              len(skips)),
        "planner.fingerprint_us.p50": (p("planner.fingerprint", 0.5),
                                       calls("planner.fingerprint")),
        "planner.cache.hit_ratio": (
            len(cache_hit_us) / cache_calls if cache_calls else None,
            cache_calls,
        ),
        "planner.cache.hit_us.p50": (percentile(cache_hit_us, 0.5),
                                     len(cache_hit_us)),
        "planner.plan_ms.p50": (p("planner.plan", 0.5, 1e-3), plans),
        "planner.plan_ms.p90": (p("planner.plan", 0.9, 1e-3), plans),
        "planner.plan.calls": (float(plans), plans),
        "graph.build_ms.p50": (p("graph.build", 0.5, 1e-3), calls("graph.build")),
        "graph.build.share": (share("graph.build", "topology.widest_path"),
                              plans),
        "graph.edges.mean": (mean(noted("graph.build")), calls("graph.build")),
        "topology.widest_path.calls_per_plan": (
            under_plan.get("topology.widest_path", 0) / plans if plans else None,
            plans,
        ),
        "topology.widest_path_us.p50": (p("topology.widest_path", 0.5),
                                        calls("topology.widest_path")),
        "pruning.prune_ms.p50": (p("pruning.prune", 0.5, 1e-3),
                                 calls("pruning.prune")),
        "pruning.share": (share("pruning.prune"), plans),
        "selection.run_ms.p50": (p("selection.run", 0.5, 1e-3),
                                 calls("selection.run")),
        "selection.share": (share("selection.run", "optimizer.optimize"), plans),
        "planning.core.share": (
            share("graph.build", "topology.widest_path", "pruning.prune",
                  "selection.run", "optimizer.optimize"),
            plans,
        ),
        "optimizer.calls_per_plan": (
            under_plan.get("optimizer.optimize", 0) / plans if plans else None,
            plans,
        ),
        "optimizer.memo_hit_ratio": (mean([1.0 if m else 0.0 for m in memo]),
                                     len(memo)),
        "sim.dispatch.self_share": (
            self_ns.get("sim.dispatch", 0) / dispatch_total
            if dispatch_total else None,
            calls("sim.dispatch"),
        ),
        "sim.world.plan.calls": (float(plans_in_world), plans_in_world),
        "sim.world.plan_ms.p50": (p("sim.world.plan", 0.5, 1e-3),
                                  plans_in_world),
        "sim.world.fresh_plan_ratio": (
            fresh_plans / plans_in_world if plans_in_world else None,
            plans_in_world,
        ),
        "sim.world.effective_topology.calls": (
            float(calls("sim.world.effective_topology")),
            calls("sim.world.effective_topology"),
        ),
        "sim.world.reserve_ms.p50": (p("sim.world.reserve", 0.5, 1e-3),
                                     calls("sim.world.reserve")),
        "ledger.reserve.calls": (float(calls("ledger.reserve")),
                                 calls("ledger.reserve")),
    }
    return {
        "metrics": {k: [v, n] for k, (v, n) in metrics.items()},
        "spans": len(spans),
        "plan_self_ms": {
            rid: ns / 1e6 for rid, ns in plan_self_by_rid.items()
        },
    }


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------
def _patch(owner: Any, attr: str, wrapper_for: Callable[[Callable], Callable]
           ) -> None:
    setattr(owner, attr, wrapper_for(getattr(owner, attr)))


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point; call before ``repro.cli`` starts."""
    from repro.core.graph import AdaptationGraphBuilder
    from repro.core.optimizer import ConfigurationOptimizer
    from repro.core.pruning import GraphPruner
    from repro.core.selection import QoSPathSelector
    from repro.network.reservations import BandwidthLedger
    from repro.network.topology import NetworkTopology
    from repro.planner.batch import BatchPlanner
    from repro.planner.cache import PlanCache
    from repro.policy.engine import PolicyEngine
    from repro.serve import gateway, http11, protocol
    from repro.sim.engine import Simulator
    from repro.sim.world import SimWorld

    # -- HTTP codec (async read; the span starts once the request line is
    #    in, so keep-alive idle time is not charged to the codec) --------
    real_read_line = http11._read_line
    real_read_request = http11.read_request

    async def traced_read_line(reader):
        line = await real_read_line(reader)
        if _FIRST_LINE.get() is None:
            _FIRST_LINE.set(_now())
        return line

    @functools.wraps(real_read_request)
    async def traced_read_request(*args, **kwargs):
        _FIRST_LINE.set(None)
        result = await real_read_request(*args, **kwargs)
        end = _now()
        start = _FIRST_LINE.get() or end
        rid = result.headers.get("x-request-id") if result is not None else None
        _RID.set(rid)
        if result is not None:
            spans, _notes, _stack = tracer._thread_state()
            spans.append(["http11.read", start, end, -1, rid])
            if rid == MARK_RID:
                tracer.mark_ns = end
        return result

    http11._read_line = traced_read_line
    http11.read_request = traced_read_request
    gateway.read_request = traced_read_request
    render = tracer.sync("http11.render", http11.render_response)
    http11.render_response = render
    gateway.render_response = render

    # -- Wire protocol --------------------------------------------------
    def remember_device(args, result, _ahead):
        if result.device is not None:
            tracer._device_rids[id(result.device)] = (result.device, _RID.get())

    decode = tracer.sync("protocol.decode", protocol.decode_plan_request,
                         note=remember_device)
    protocol.decode_plan_request = decode
    gateway.decode_plan_request = decode
    for name in ("plan_response_payload", "policy_skip_payload"):
        wrapped = tracer.sync("protocol.payload", getattr(protocol, name))
        setattr(protocol, name, wrapped)
        setattr(gateway, name, wrapped)
    encode = tracer.sync(
        "protocol.encode", protocol.encode_payload,
        note=lambda args, result, _a: len(result) if _is_plan_rid() else None,
    )
    protocol.encode_payload = encode
    gateway.encode_payload = encode

    # -- Policy, planner, cache -----------------------------------------
    _patch(PolicyEngine, "evaluate", lambda fn: tracer.sync(
        "policy.evaluate", fn,
        note=lambda args, result, _a: result.kind == "skip",
    ))
    _patch(BatchPlanner, "plan_with_policy_info", lambda fn: tracer.sync(
        "planner.plan", fn,
        rid_of=lambda args: tracer.device_rid(args[1].device),
    ))
    _patch(BatchPlanner, "fingerprint",
           lambda fn: tracer.sync("planner.fingerprint", fn))
    _patch(PlanCache, "get_or_compute",
           lambda fn: tracer.sync("planner.cache", fn))

    # -- Graph, topology, pruning, selection ------------------------------
    _patch(AdaptationGraphBuilder, "build", lambda fn: tracer.sync(
        "graph.build", fn,
        note=lambda args, result, _a: result.edge_count(),
    ))
    _patch(NetworkTopology, "widest_path",
           lambda fn: tracer.sync("topology.widest_path", fn))
    _patch(GraphPruner, "prune", lambda fn: tracer.sync("pruning.prune", fn))
    _patch(QoSPathSelector, "run", lambda fn: tracer.sync("selection.run", fn))
    _patch(ConfigurationOptimizer, "optimize", lambda fn: tracer.sync(
        "optimizer.optimize", fn,
        before=lambda args: args[0].memo_hits,
        note=lambda args, result, hits: args[0].memo_hits > hits,
    ))

    # -- Simulator ---------------------------------------------------------
    _patch(Simulator, "run", lambda fn: tracer.sync("sim.dispatch", fn))
    _patch(SimWorld, "plan", lambda fn: tracer.sync("sim.world.plan", fn))
    _patch(SimWorld, "reserve_plan",
           lambda fn: tracer.sync("sim.world.reserve", fn))
    _patch(SimWorld, "effective_topology",
           lambda fn: tracer.sync("sim.world.effective_topology", fn))
    _patch(BandwidthLedger, "reserve",
           lambda fn: tracer.sync("ledger.reserve", fn))


def _is_plan_rid() -> bool:
    rid = _RID.get()
    return rid is not None and not rid.startswith("perfbench")
