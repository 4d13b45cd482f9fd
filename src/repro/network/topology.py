"""Network topology: nodes, links, and the routing queries the algorithms use.

The topology is an undirected multigraph-free graph (at most one link per
node pair) whose links carry *available bandwidth* (bits/second), one-way
propagation delay (milliseconds), a loss rate, and an optional per-use
transmission cost.  Three queries matter to the rest of the system:

- :meth:`NetworkTopology.available_bandwidth` — the bandwidth available
  between the hosts of two services, defined as the *bottleneck of the
  widest path* between their nodes.  Services on the same node see
  unlimited bandwidth (Section 4.3).
- :meth:`NetworkTopology.widest_tree` — one single-source max-bottleneck
  Dijkstra that reports, for every reachable node, the tree parent plus
  the route's bottleneck, cost and delay.  The adaptation-graph builder
  runs it once per distinct source host, and :meth:`widest_path` unwinds
  one route from it (stopping early at the target).
- :meth:`NetworkTopology.shortest_path` — fewest-hops / least-delay routing
  for the baselines and the runtime pipeline's latency model.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.errors import UnknownNodeError, ValidationError

__all__ = ["NetworkNode", "Link", "NetworkTopology", "WidestTree"]

#: Bandwidth reported between two services hosted on the same node.
UNLIMITED_BANDWIDTH = math.inf


@dataclass(frozen=True)
class NetworkNode:
    """One host in the topology (content server, proxy, or client device).

    ``cpu_mips`` and ``memory_mb`` bound which services placement may put
    here (Section 3: the intermediary profile includes "the available
    resources at the intermediary (such as CPU cycles, memory)").
    """

    node_id: str
    cpu_mips: float = 1000.0
    memory_mb: float = 1024.0
    attributes: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.node_id:
            raise ValidationError("node_id must be non-empty")
        if self.cpu_mips < 0 or self.memory_mb < 0:
            raise ValidationError(f"{self.node_id}: resources must be >= 0")

    def __str__(self) -> str:
        return self.node_id


@dataclass(frozen=True)
class Link:
    """An undirected link between two nodes.

    ``bandwidth_bps`` is the *available* bandwidth the QoS algorithm may
    budget against (the paper assumes this has been measured and published
    in the network profile).  ``cost`` is the monetary transmission cost of
    sending one stream over the link, which feeds the accumulated-cost
    bookkeeping of the selection algorithm (Figure 4, Step 6).
    """

    a: str
    b: str
    bandwidth_bps: float
    delay_ms: float = 1.0
    loss_rate: float = 0.0
    cost: float = 0.0

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValidationError(f"self-link at node {self.a!r}")
        if self.bandwidth_bps < 0:
            raise ValidationError("bandwidth must be >= 0")
        if self.delay_ms < 0:
            raise ValidationError("delay must be >= 0")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValidationError("loss rate must lie in [0, 1)")
        if self.cost < 0:
            raise ValidationError("link cost must be >= 0")

    def endpoints(self) -> Tuple[str, str]:
        return (self.a, self.b)

    def other(self, node_id: str) -> str:
        """The endpoint that is not ``node_id``."""
        if node_id == self.a:
            return self.b
        if node_id == self.b:
            return self.a
        raise UnknownNodeError(node_id)


def _canonical(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _unwind(parent: Mapping[str, str], source: str, target: str) -> List[str]:
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


class WidestTree(NamedTuple):
    """The settled part of one single-source max-bottleneck Dijkstra.

    ``routes`` maps every settled node to ``(bottleneck_bps, cost,
    delay_ms)`` of its tree route from ``source``; ``parent`` is the tree
    itself.  The source maps to ``(inf, 0, 0)`` and has no parent.  A node
    missing from ``routes`` is disconnected from ``source`` (or was never
    settled because the search stopped early at its target).
    """

    source: str
    parent: Dict[str, str]
    routes: Dict[str, Tuple[float, float, float]]

    def path(self, target: str) -> Optional[List[str]]:
        """The tree route ``source → target``, or ``None`` if unsettled."""
        if target not in self.routes:
            return None
        return _unwind(self.parent, self.source, target)


class NetworkTopology:
    """Mutable collection of nodes and links with routing queries."""

    def __init__(self) -> None:
        self._nodes: Dict[str, NetworkNode] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        #: Per node, its ``(neighbor, link)`` pairs in link-insertion order.
        self._adjacency: Dict[str, List[Tuple[str, Link]]] = {}
        self._generation = 0

    @property
    def generation(self) -> int:
        """Monotonic mutation counter (bumped on node/link additions and
        bandwidth changes).

        Plan fingerprints embed this counter so a cached plan can never
        outlive the topology it was computed on.
        """
        return self._generation

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: NetworkNode) -> NetworkNode:
        existing = self._nodes.get(node.node_id)
        if existing is not None and existing != node:
            raise ValidationError(f"node {node.node_id!r} already exists")
        self._nodes[node.node_id] = node
        self._adjacency.setdefault(node.node_id, [])
        self._generation += 1
        return node

    def node(
        self,
        node_id: str,
        cpu_mips: float = 1000.0,
        memory_mb: float = 1024.0,
    ) -> NetworkNode:
        """Create-and-add convenience wrapper around :meth:`add_node`."""
        return self.add_node(NetworkNode(node_id, cpu_mips, memory_mb))

    def add_link(self, link: Link) -> Link:
        for endpoint in link.endpoints():
            if endpoint not in self._nodes:
                raise UnknownNodeError(endpoint)
        key = _canonical(link.a, link.b)
        if key in self._links:
            raise ValidationError(f"link {key} already exists")
        self._links[key] = link
        self._adjacency[link.a].append((link.b, link))
        self._adjacency[link.b].append((link.a, link))
        self._generation += 1
        return link

    def link(
        self,
        a: str,
        b: str,
        bandwidth_bps: float,
        delay_ms: float = 1.0,
        loss_rate: float = 0.0,
        cost: float = 0.0,
    ) -> Link:
        """Create-and-add convenience wrapper around :meth:`add_link`."""
        return self.add_link(Link(a, b, bandwidth_bps, delay_ms, loss_rate, cost))

    def set_bandwidth(self, a: str, b: str, bandwidth_bps: float) -> Link:
        """Replace one link's bandwidth in place, keeping every other field.

        The new :class:`Link` takes the old one's slot in the link map and
        in both endpoints' adjacency lists, so iteration order (and with it
        every routing tie-break) is exactly that of a topology built with
        the new value from the start.  Bumps the generation.
        """
        old = self.get_link(a, b)
        new = Link(old.a, old.b, bandwidth_bps, old.delay_ms, old.loss_rate, old.cost)
        self._links[_canonical(a, b)] = new
        for end, other in ((old.a, old.b), (old.b, old.a)):
            adjacency = self._adjacency[end]
            for index, (_neighbor, link) in enumerate(adjacency):
                if link is old:
                    adjacency[index] = (other, new)
                    break
        self._generation += 1
        return new

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get_node(self, node_id: str) -> NetworkNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def get_link(self, a: str, b: str) -> Link:
        try:
            return self._links[_canonical(a, b)]
        except KeyError:
            raise UnknownNodeError(f"{a}--{b}") from None

    def has_link(self, a: str, b: str) -> bool:
        return _canonical(a, b) in self._links

    def nodes(self) -> List[NetworkNode]:
        return list(self._nodes.values())

    def node_ids(self) -> List[str]:
        return list(self._nodes)

    def links(self) -> List[Link]:
        return list(self._links.values())

    def neighbors(self, node_id: str) -> List[str]:
        if node_id not in self._nodes:
            raise UnknownNodeError(node_id)
        return [neighbor for neighbor, _ in self._adjacency[node_id]]

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    # Routing queries
    # ------------------------------------------------------------------
    def widest_tree(self, source: str, stop: Optional[str] = None) -> WidestTree:
        """Single-source max-bottleneck Dijkstra from ``source``.

        Settles every node reachable from ``source``, or stops right after
        settling ``stop`` when one is given; a node's route is final once
        it is settled, so an early stop changes no reported route.  The
        bottleneck is the widest width the search reached the node with,
        which equals :meth:`path_bottleneck` over its route.  Cost and
        delay extend the parent's per-link terms root to leaf and are
        summed with the builtin :func:`sum`, so they equal
        :meth:`path_cost` and :meth:`path_delay_ms` over the route bit for
        bit on every interpreter (CPython 3.12+ compensates float sums).
        """
        if source not in self._nodes:
            raise UnknownNodeError(source)
        best: Dict[str, float] = {source: math.inf}
        parent: Dict[str, str] = {}
        via: Dict[str, Link] = {}
        routes: Dict[str, Tuple[float, float, float]] = {}
        terms: Dict[str, Tuple[Tuple[float, ...], Tuple[float, ...]]] = {
            source: ((), ())
        }
        adjacency = self._adjacency
        heappop, heappush = heapq.heappop, heapq.heappush
        # heapq is a min-heap, so push negated bottlenecks.
        heap: List[Tuple[float, str]] = [(-math.inf, source)]
        while heap:
            neg_width, current = heappop(heap)
            if current in routes:
                continue
            width = -neg_width
            if current == source:
                routes[current] = (width, 0, 0)
            else:
                link = via[current]
                costs, delays = terms[parent[current]]
                costs += (link.cost,)
                delays += (link.delay_ms,)
                terms[current] = (costs, delays)
                routes[current] = (width, sum(costs), sum(delays))
            if current == stop:
                break
            for neighbor, link in adjacency[current]:
                if neighbor in routes:
                    continue
                # min(width, bandwidth), inlined: keeps width on a tie.
                bandwidth = link.bandwidth_bps
                candidate = bandwidth if bandwidth < width else width
                if candidate > best.get(neighbor, -1.0):
                    best[neighbor] = candidate
                    parent[neighbor] = current
                    via[neighbor] = link
                    heappush(heap, (-candidate, neighbor))
        return WidestTree(source, parent, routes)

    def widest_path(self, source: str, target: str) -> Optional[List[str]]:
        """The max-bottleneck path from ``source`` to ``target``.

        Returns the node sequence, or ``None`` when the nodes are
        disconnected.  ``source == target`` yields the trivial path.  The
        search stops as soon as ``target`` is settled.
        """
        for node_id in (source, target):
            if node_id not in self._nodes:
                raise UnknownNodeError(node_id)
        return self.widest_tree(source, stop=target).path(target)

    def available_bandwidth(self, source: str, target: str) -> float:
        """``Bandwidth_AvailableBetween`` (Equation 2's right-hand side).

        The bottleneck bandwidth of the widest path between the two nodes;
        infinite when they are the same node; 0.0 when disconnected.
        """
        path = self.widest_path(source, target)
        if path is None:
            return 0.0
        return self.path_bottleneck(path)

    def path_bottleneck(self, path: List[str]) -> float:
        """Minimum link bandwidth along a node sequence."""
        if len(path) < 2:
            return UNLIMITED_BANDWIDTH
        return min(
            self.get_link(a, b).bandwidth_bps for a, b in zip(path, path[1:])
        )

    def shortest_path(
        self,
        source: str,
        target: str,
        weight: str = "hops",
    ) -> Optional[List[str]]:
        """Least-cost path under ``weight`` ∈ {"hops", "delay", "cost"}."""
        if source not in self._nodes:
            raise UnknownNodeError(source)
        if target not in self._nodes:
            raise UnknownNodeError(target)
        if weight not in ("hops", "delay", "cost"):
            raise ValidationError(f"unknown weight kind: {weight!r}")
        if source == target:
            return [source]
        distance: Dict[str, float] = {source: 0.0}
        parent: Dict[str, str] = {}
        heap: List[Tuple[float, str]] = [(0.0, source)]
        visited = set()
        while heap:
            dist, current = heapq.heappop(heap)
            if current in visited:
                continue
            visited.add(current)
            if current == target:
                break
            for neighbor, link in self._adjacency[current]:
                if neighbor in visited:
                    continue
                if weight == "hops":
                    step = 1.0
                elif weight == "delay":
                    step = link.delay_ms
                else:
                    step = link.cost
                candidate = dist + step
                if candidate < distance.get(neighbor, math.inf):
                    distance[neighbor] = candidate
                    parent[neighbor] = current
                    heapq.heappush(heap, (candidate, neighbor))
        if target not in distance:
            return None
        return _unwind(parent, source, target)

    def path_delay_ms(self, path: List[str]) -> float:
        """Total one-way propagation delay along a node sequence."""
        return sum(self.get_link(a, b).delay_ms for a, b in zip(path, path[1:]))

    def path_cost(self, path: List[str]) -> float:
        """Total transmission cost along a node sequence."""
        return sum(self.get_link(a, b).cost for a, b in zip(path, path[1:]))

    def path_loss_rate(self, path: List[str]) -> float:
        """End-to-end loss rate along a node sequence (independent links)."""
        survival = 1.0
        for a, b in zip(path, path[1:]):
            survival *= 1.0 - self.get_link(a, b).loss_rate
        return 1.0 - survival

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NetworkTopology(nodes={len(self._nodes)}, links={len(self._links)})"
