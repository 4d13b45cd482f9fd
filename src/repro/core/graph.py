"""Construction of the directed adaptation graph (Section 4.2).

Graph elements, exactly as the paper defines them:

- **Vertices** represent trans-coding services (plus the sender, "a special
  case vertex with only output links", and the receiver, "another special
  vertex with only input links").  Each vertex carries the computation and
  memory requirements of its service and the network node hosting it.
- **Edges** "represent the network connecting two vertices, where the input
  link of one vertex matches the output link of another vertex".  Each edge
  carries the format it transports, the available bandwidth between the two
  hosts (Section 4.3), and the transmission cost.

Acyclicity: the paper keeps the graph acyclic by "continuously verif[ying]
that all the formats along any path are distinct".  The *static* service
digraph built here may contain directed cycles (T1 → T2 → T1 on different
formats); the distinct-format rule is enforced on *paths* — during
selection, enumeration, and chain validation — which is what makes every
traversal acyclic.  :meth:`AdaptationGraph.enumerate_paths` implements that
rule and is the reference the property tests check against.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.configuration import Configuration
from repro.errors import GraphConstructionError, UnknownServiceError
from repro.network.placement import ServicePlacement
from repro.profiles.content import ContentProfile
from repro.profiles.device import DeviceProfile
from repro.services.catalog import ServiceCatalog, service_sort_key
from repro.services.descriptor import ServiceDescriptor, ServiceKind

__all__ = ["Vertex", "Edge", "AdaptationGraph", "AdaptationGraphBuilder"]

#: ``(bandwidth, cost, delay)`` between two services on one host (§4.3).
_SAME_HOST = (math.inf, 0.0, 0.0)
#: The same facts for hosts with no route; such pairs form no edge.
_DISCONNECTED = (0.0, 0.0, 0.0)
#: Sort key of a ``(sort tuple, edge)`` pair.
_KEY = itemgetter(0)


@dataclass(frozen=True)
class Vertex:
    """One vertex of the adaptation graph.

    ``source_configurations`` is populated only on the sender vertex: one
    configuration per output link, taken from the content profile's
    variants (the quality each stored variant was encoded at).
    """

    service: ServiceDescriptor
    node_id: str
    source_configurations: Mapping[str, Configuration] = field(default_factory=dict)

    @property
    def service_id(self) -> str:
        return self.service.service_id

    @property
    def is_sender(self) -> bool:
        return self.service.is_sender

    @property
    def is_receiver(self) -> bool:
        return self.service.is_receiver

    def __str__(self) -> str:
        return self.service_id


@dataclass(frozen=True)
class Edge:
    """One directed, format-labeled edge of the adaptation graph.

    ``delay_ms`` is the one-way propagation delay of the network route
    realizing the edge (Section 3's network profile lists maximum delay
    among the measured characteristics; delay-sensitive users bound it).
    """

    source: str
    target: str
    format_name: str
    bandwidth_bps: float
    transmission_cost: float = 0.0
    delay_ms: float = 0.0

    def __str__(self) -> str:
        return f"{self.source} --{self.format_name}--> {self.target}"


class AdaptationGraph:
    """The directed graph the QoS selection algorithm runs on."""

    def __init__(
        self,
        vertices: Sequence[Vertex],
        edges: Sequence[Edge],
        sender_id: str,
        receiver_id: str,
    ) -> None:
        self._vertices: Dict[str, Vertex] = {}
        for vertex in vertices:
            if vertex.service_id in self._vertices:
                raise GraphConstructionError(
                    f"duplicate vertex {vertex.service_id!r}"
                )
            self._vertices[vertex.service_id] = vertex
        for endpoint_id, role in ((sender_id, "sender"), (receiver_id, "receiver")):
            if endpoint_id not in self._vertices:
                raise GraphConstructionError(f"{role} vertex {endpoint_id!r} missing")
        self.sender_id = sender_id
        self.receiver_id = receiver_id
        for edge in edges:
            if edge.source not in self._vertices:
                raise GraphConstructionError(f"edge from unknown vertex {edge.source!r}")
            if edge.target not in self._vertices:
                raise GraphConstructionError(f"edge to unknown vertex {edge.target!r}")
        sort_keys = {
            service_id: service_sort_key(service_id) for service_id in self._vertices
        }
        self._ordered_ids: Tuple[str, ...] = tuple(
            sorted(self._vertices, key=sort_keys.__getitem__)
        )
        #: Natural-order rank per vertex id; selectors use it to turn the
        #: string-keyed tie-break orderings into cheap integer comparisons.
        self._vertex_rank: Dict[str, int] = {
            service_id: rank for rank, service_id in enumerate(self._ordered_ids)
        }
        # The graph is frozen after construction, so the adjacency order the
        # selectors rely on is computed exactly once here instead of on
        # every out_edges()/in_edges() call (the seed re-sorted per call).
        # It sorts on the dense rank of each id's natural sort key: ids
        # whose keys tie (``T1``/``T01``) share a rank and fall through to
        # the format name, exactly as sorting on the key itself would.
        key_rank: Dict[Tuple[str, float], int] = {}
        for service_id in self._ordered_ids:
            key_rank.setdefault(sort_keys[service_id], len(key_rank))
        rank = {service_id: key_rank[key] for service_id, key in sort_keys.items()}
        # One stable sort per direction, then bucketing, leaves every
        # bucket sorted with ties in input order, as a per-vertex sort would.
        out_lists: Dict[str, List[Edge]] = {v: [] for v in self._vertices}
        for edge in sorted(edges, key=lambda e: (rank[e.target], e.format_name)):
            out_lists[edge.source].append(edge)
        in_lists: Dict[str, List[Edge]] = {v: [] for v in self._vertices}
        for edge in sorted(edges, key=lambda e: (rank[e.source], e.format_name)):
            in_lists[edge.target].append(edge)
        self._out_edges: Dict[str, Tuple[Edge, ...]] = {
            v: tuple(es) for v, es in out_lists.items()
        }
        self._in_edges: Dict[str, Tuple[Edge, ...]] = {
            v: tuple(es) for v, es in in_lists.items()
        }
        # Adjacency built from arbitrary edge lists may order tied edges
        # (twin ids, duplicate triples) in a way a filtered copy would not
        # reproduce, so only the builder and restrict() vouch for it.
        self._filterable = False

    @classmethod
    def _assemble(
        cls,
        vertices: Dict[str, Vertex],
        ordered_ids: Tuple[str, ...],
        out_edges: Dict[str, Tuple[Edge, ...]],
        in_edges: Dict[str, Tuple[Edge, ...]],
        sender_id: str,
        receiver_id: str,
        filterable: bool,
    ) -> "AdaptationGraph":
        """A graph from adjacency already in constructor order.

        The caller guarantees what ``__init__`` would have derived: every
        dict keyed in vertex insertion order, ``ordered_ids`` in natural
        order, and each adjacency tuple sorted as ``__init__`` sorts it.
        ``filterable`` additionally promises no duplicate
        ``(source, target, format)`` triples and tied in-edges in vertex
        insertion order, which makes :meth:`restrict` exact.
        """
        graph = cls.__new__(cls)
        graph._vertices = vertices
        graph.sender_id = sender_id
        graph.receiver_id = receiver_id
        graph._ordered_ids = ordered_ids
        graph._vertex_rank = {
            service_id: rank for rank, service_id in enumerate(ordered_ids)
        }
        graph._out_edges = out_edges
        graph._in_edges = in_edges
        graph._filterable = filterable
        return graph

    @property
    def filterable(self) -> bool:
        """Can :meth:`restrict` derive subgraphs from this graph's adjacency?"""
        return self._filterable

    def restrict(self, keep: Set[str]) -> "AdaptationGraph":
        """The subgraph on ``keep`` without its zero-bandwidth edges.

        Bit-identical to constructing a graph from the kept vertices (in
        :meth:`vertices` order) and the kept edges (in :meth:`edges`
        order), but it filters the frozen adjacency instead of sorting it
        again.  Only valid on a :attr:`filterable` graph.
        """
        if not self._filterable:
            raise GraphConstructionError("adjacency is not filterable")
        for endpoint_id, role in (
            (self.sender_id, "sender"),
            (self.receiver_id, "receiver"),
        ):
            if endpoint_id not in keep:
                raise GraphConstructionError(f"{role} vertex {endpoint_id!r} missing")
        ordered = tuple(v for v in self._ordered_ids if v in keep)
        return AdaptationGraph._assemble(
            {v: self._vertices[v] for v in ordered},
            ordered,
            {
                v: tuple(
                    e
                    for e in self._out_edges[v]
                    if e.target in keep and e.bandwidth_bps > 0.0
                )
                for v in ordered
            },
            {
                v: tuple(
                    e
                    for e in self._in_edges[v]
                    if e.source in keep and e.bandwidth_bps > 0.0
                )
                for v in ordered
            },
            self.sender_id,
            self.receiver_id,
            filterable=True,
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def sender(self) -> Vertex:
        return self._vertices[self.sender_id]

    @property
    def receiver(self) -> Vertex:
        return self._vertices[self.receiver_id]

    def vertex(self, service_id: str) -> Vertex:
        try:
            return self._vertices[service_id]
        except KeyError:
            raise UnknownServiceError(service_id) from None

    def vertices(self) -> List[Vertex]:
        """All vertices in natural service-id order."""
        return [self._vertices[service_id] for service_id in self._ordered_ids]

    def vertex_ids(self) -> List[str]:
        return list(self._ordered_ids)

    def vertex_rank(self) -> Mapping[str, int]:
        """Natural-order rank per vertex id (``T2`` < ``T10``), frozen at
        construction.  Shared by the heap selectors' tie-break keys."""
        return self._vertex_rank

    def edges(self) -> List[Edge]:
        return [edge for edges in self._out_edges.values() for edge in edges]

    def out_edges(self, service_id: str) -> Tuple[Edge, ...]:
        """Outgoing edges, ordered by target id then format name.

        The tuple is built once at construction time; callers share it, so
        repeated calls are O(1) and always return the identical ordering.
        """
        try:
            return self._out_edges[service_id]
        except KeyError:
            raise UnknownServiceError(service_id) from None

    def in_edges(self, service_id: str) -> Tuple[Edge, ...]:
        """Incoming edges, ordered by source id then format name (cached)."""
        try:
            return self._in_edges[service_id]
        except KeyError:
            raise UnknownServiceError(service_id) from None

    def successors(self, service_id: str) -> List[str]:
        """Distinct successor ids in natural order (the paper's
        ``neighbor(Ti)``)."""
        # Out-edges are already sorted by target, so de-duping in order
        # preserves the natural ordering without a fresh sort.
        return list(dict.fromkeys(e.target for e in self._out_edges[service_id]))

    def __contains__(self, service_id: object) -> bool:
        return service_id in self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    def edge_count(self) -> int:
        return sum(len(edges) for edges in self._out_edges.values())

    # ------------------------------------------------------------------
    # Path enumeration under the distinct-format rule
    # ------------------------------------------------------------------
    def enumerate_paths(
        self,
        max_paths: Optional[int] = None,
        max_hops: Optional[int] = None,
    ) -> Iterator[List[Edge]]:
        """Yield every sender→receiver path with pairwise-distinct formats.

        Paths are edge sequences.  ``max_paths`` bounds the yield count and
        ``max_hops`` the path length (both optional) so callers can keep
        exhaustive enumeration tractable on large graphs.  Vertices never
        repeat along a path (a repeated service would re-encounter one of
        its formats anyway in all but degenerate cap configurations, and the
        paper's chains are service-distinct).
        """
        yielded = 0
        stack: List[Tuple[str, List[Edge], Set[str], Set[str]]] = [
            (self.sender_id, [], {self.sender_id}, set())
        ]
        while stack:
            current, path, visited, formats = stack.pop()
            if current == self.receiver_id:
                yield list(path)
                yielded += 1
                if max_paths is not None and yielded >= max_paths:
                    return
                continue
            if max_hops is not None and len(path) >= max_hops:
                continue
            # Reverse order keeps DFS exploring in natural order.
            for edge in reversed(self.out_edges(current)):
                if edge.target in visited:
                    continue
                if edge.format_name in formats:
                    continue
                stack.append(
                    (
                        edge.target,
                        path + [edge],
                        visited | {edge.target},
                        formats | {edge.format_name},
                    )
                )

    def reachable_from_sender(self) -> Set[str]:
        """Vertices reachable from the sender, ignoring format rules."""
        return self._flood(self.sender_id, self._out_edges, forward=True)

    def co_reachable_to_receiver(self) -> Set[str]:
        """Vertices from which the receiver is reachable."""
        return self._flood(self.receiver_id, self._in_edges, forward=False)

    def _flood(
        self,
        start: str,
        adjacency: Mapping[str, Sequence[Edge]],
        forward: bool,
    ) -> Set[str]:
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for edge in adjacency[current]:
                neighbor = edge.target if forward else edge.source
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return seen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AdaptationGraph(vertices={len(self._vertices)}, "
            f"edges={self.edge_count()})"
        )


class _Skeleton:
    """The request-independent part of every graph over one catalog and
    placement.

    ``transcoders`` are the placed (and, when checked, runnable) transcoder
    vertices in catalog order, ``ordered_ids`` their ids in natural order
    and ``order`` the matching ``(sort key, insertion index)`` pairs, where
    the sender and receiver take indices 0 and 1.  ``slots`` are the
    transcoder→transcoder edge candidates in generation order: one per
    (producer, consumer, shared format) occurrence.  ``out_slots`` and
    ``in_slots`` hold each transcoder's slot indices sorted as
    :class:`AdaptationGraph` sorts its adjacency, and ``out_keys`` and
    ``in_keys`` the sort tuples endpoint edges are bisected into:

    - out-edges of P: ``(key(target), format, k, j)`` — the k-th entry of
      P's output formats, and the consumer's 1-based place among that
      format's consumers (the receiver, generated first, takes 0);
    - in-edges of C: ``(key(source), format, 1, slot)`` — the sender's
      edges, generated first, use ``(key, format, 0, n)``.
    """

    def __init__(
        self,
        catalog: ServiceCatalog,
        placement: ServicePlacement,
        check_resources: bool,
        reference_input_bps: float,
    ) -> None:
        self.generation = (catalog.generation, placement.generation)
        #: Every transcoder id, placed or not, by catalog position; any
        #: endpoint id among them is a collision.
        self.catalog_ids: Dict[str, int] = {}
        self.transcoders: List[Vertex] = []
        topology = placement.topology
        for index, descriptor in enumerate(catalog.transcoders()):
            self.catalog_ids[descriptor.service_id] = index
            if not placement.is_placed(descriptor.service_id):
                continue  # Unplaced services cannot carry traffic.
            node_id = placement.node_of(descriptor.service_id)
            if check_resources:
                node = topology.get_node(node_id)
                if not (
                    descriptor.cpu_required(reference_input_bps) <= node.cpu_mips
                    and descriptor.memory_mb <= node.memory_mb
                ):
                    continue
            self.transcoders.append(Vertex(service=descriptor, node_id=node_id))

        self.keys: Dict[str, Tuple[str, float]] = {
            v.service_id: service_sort_key(v.service_id) for v in self.transcoders
        }
        self.order = sorted(
            (self.keys[v.service_id], index + 2)
            for index, v in enumerate(self.transcoders)
        )
        self.ordered_ids = [self.transcoders[i - 2].service_id for _, i in self.order]
        #: No vertex lists a format twice, so no edge triple repeats.
        self.distinct_formats = all(
            len(set(v.service.input_formats)) == len(v.service.input_formats)
            and len(set(v.service.output_formats)) == len(v.service.output_formats)
            for v in self.transcoders
        )

        self.consumers_of: Dict[str, List[Vertex]] = {}
        for vertex in self.transcoders:
            for fmt in vertex.service.input_formats:
                self.consumers_of.setdefault(fmt, []).append(vertex)

        #: ``(source, target, format, source host, target host)`` per slot.
        self.slots: List[Tuple[str, str, str, str, str]] = []
        out_keyed: Dict[str, List[Tuple[Tuple, int]]] = {}
        in_keyed: Dict[str, List[Tuple[Tuple, int]]] = {
            v.service_id: [] for v in self.transcoders
        }
        for producer in self.transcoders:
            keyed = out_keyed[producer.service_id] = []
            producer_key = self.keys[producer.service_id]
            for k, fmt in enumerate(producer.service.output_formats):
                for j, consumer in enumerate(self.consumers_of.get(fmt, ()), 1):
                    if consumer is producer:
                        continue
                    slot = len(self.slots)
                    self.slots.append(
                        (
                            producer.service_id,
                            consumer.service_id,
                            fmt,
                            producer.node_id,
                            consumer.node_id,
                        )
                    )
                    keyed.append(((self.keys[consumer.service_id], fmt, k, j), slot))
                    in_keyed[consumer.service_id].append(
                        ((producer_key, fmt, 1, slot), slot)
                    )
        self.out_slots: Dict[str, List[int]] = {}
        self.out_keys: Dict[str, List[Tuple]] = {}
        for service_id, keyed in out_keyed.items():
            keyed.sort()
            self.out_keys[service_id] = [key for key, _ in keyed]
            self.out_slots[service_id] = [slot for _, slot in keyed]
        self.in_slots: Dict[str, List[int]] = {}
        self.in_keys: Dict[str, List[Tuple]] = {}
        for service_id, keyed in in_keyed.items():
            keyed.sort()
            self.in_keys[service_id] = [key for key, _ in keyed]
            self.in_slots[service_id] = [slot for _, slot in keyed]


def _spliced(
    slots: List[int],
    slot_edges: List[Optional[Edge]],
    keys: List[Tuple],
    extra: List[Tuple[Tuple, Edge]],
) -> Tuple[Edge, ...]:
    """The live slot edges in order, with ``extra`` bisected in by key."""
    if not extra:
        return tuple(
            edge for edge in map(slot_edges.__getitem__, slots) if edge is not None
        )
    merged: List[Edge] = []
    cut = 0
    for key, edge in sorted(extra, key=_KEY):
        position = bisect_left(keys, key)
        merged.extend(
            e for e in map(slot_edges.__getitem__, slots[cut:position]) if e is not None
        )
        merged.append(edge)
        cut = position
    merged.extend(
        e for e in map(slot_edges.__getitem__, slots[cut:]) if e is not None
    )
    return tuple(merged)


class AdaptationGraphBuilder:
    """Builds the adaptation graph from profiles + catalog (Section 4.2).

    "To construct the adaptation graph, we start with the sender node, and
    then connect the outgoing edges of the sender with all the input edges
    of all other vertices that have the same format.  The same process is
    repeated for all vertices."

    Everything that depends only on the catalog and the placement — the
    transcoder vertices, their natural order, and the transcoder→transcoder
    edge slots in adjacency order — forms a skeleton built once per
    (catalog, placement) generation and shared by every :meth:`build`.
    Each build adds the session's sender and receiver, splices their
    edges into the pre-sorted slots, and fills in every edge's route facts
    from the current topology.  A builder shared between sessions is
    thread-safe.
    """

    def __init__(
        self,
        catalog: ServiceCatalog,
        placement: ServicePlacement,
        check_resources: bool = True,
        reference_input_bps: float = 1e6,
    ) -> None:
        self._catalog = catalog
        self._placement = placement
        self._check_resources = check_resources
        self._reference_input_bps = reference_input_bps
        self._skeleton: Optional[_Skeleton] = None
        self._skeleton_lock = threading.Lock()

    def _current_skeleton(self) -> _Skeleton:
        generation = (self._catalog.generation, self._placement.generation)
        with self._skeleton_lock:
            if self._skeleton is None or self._skeleton.generation != generation:
                self._skeleton = _Skeleton(
                    self._catalog,
                    self._placement,
                    self._check_resources,
                    self._reference_input_bps,
                )
            return self._skeleton

    def build(
        self,
        content: ContentProfile,
        device: DeviceProfile,
        sender_node: str,
        receiver_node: str,
        sender_id: str = "sender",
        receiver_id: str = "receiver",
        context_caps: Optional[Mapping[str, float]] = None,
    ) -> AdaptationGraph:
        """Construct the graph for one delivery session.

        ``context_caps`` (from the context profile) merge into the
        receiver's rendering caps — the context can only tighten them.

        Edge facts come from one single-source widest tree per distinct
        producer host, kept for this call only.  Trees are per direction:
        a→b and b→a may tie-break onto different routes, so their cost and
        delay can differ.
        """
        topology = self._placement.topology
        if sender_node not in topology:
            raise GraphConstructionError(f"sender node {sender_node!r} not in topology")
        if receiver_node not in topology:
            raise GraphConstructionError(
                f"receiver node {receiver_node!r} not in topology"
            )

        sender_descriptor = content.sender_descriptor(sender_id)
        receiver_caps = device.rendering_caps()
        for name, cap in (context_caps or {}).items():
            receiver_caps[name] = min(cap, receiver_caps.get(name, math.inf))
        receiver_descriptor = ServiceDescriptor(
            service_id=receiver_id,
            input_formats=tuple(device.decoders),
            output_caps=receiver_caps,
            kind=ServiceKind.RECEIVER,
            description=f"rendering device {device.device_id!r}",
        )
        sender = Vertex(
            service=sender_descriptor,
            node_id=sender_node,
            source_configurations={
                variant.format.name: variant.configuration
                for variant in content.variants
            },
        )
        receiver = Vertex(service=receiver_descriptor, node_id=receiver_node)

        skeleton = self._current_skeleton()
        collisions = [
            endpoint_id
            for endpoint_id in (sender_id, receiver_id)
            if endpoint_id in skeleton.catalog_ids
        ]
        if collisions:
            first = min(collisions, key=skeleton.catalog_ids.__getitem__)
            raise GraphConstructionError(
                f"catalog service id {first!r} collides with an endpoint id"
            )
        if sender_id == receiver_id:
            raise GraphConstructionError(f"duplicate vertex {receiver_id!r}")

        routes_from: Dict[str, Mapping[str, Tuple[float, float, float]]] = {}

        def facts(host: str, other: str) -> Tuple[float, float, float]:
            if other == host:
                return _SAME_HOST
            routes = routes_from.get(host)
            if routes is None:
                routes = routes_from[host] = topology.widest_tree(host).routes
            return routes.get(other, _DISCONNECTED)

        # Transcoder→transcoder slots; disconnected hosts form no edge.
        slot_edges: List[Optional[Edge]] = []
        for source, target, fmt, host, other in skeleton.slots:
            bandwidth, cost, delay = facts(host, other)
            slot_edges.append(
                Edge(source, target, fmt, bandwidth, cost, delay)
                if bandwidth > 0.0
                else None
            )

        # Endpoint edges, in generation order: the sender's first, then
        # each transcoder's edges into the receiver.
        keys = skeleton.keys
        sender_key = service_sort_key(sender_id)
        receiver_key = service_sort_key(receiver_id)
        decoders = set(receiver_descriptor.input_formats)
        sender_out: List[Tuple[Tuple, Edge]] = []
        receiver_in: List[Tuple[Tuple, Edge]] = []
        into: Dict[str, List[Tuple[Tuple, Edge]]] = {}
        generated = 0
        for fmt in sender_descriptor.output_formats:
            consumers = skeleton.consumers_of.get(fmt, [])
            if fmt in decoders:
                consumers = [receiver] + consumers
            for consumer in consumers:
                bandwidth, cost, delay = facts(sender_node, consumer.node_id)
                if bandwidth <= 0.0:
                    continue
                edge = Edge(
                    sender_id, consumer.service_id, fmt, bandwidth, cost, delay
                )
                target_key = (
                    receiver_key if consumer is receiver else keys[consumer.service_id]
                )
                sender_out.append(((target_key, fmt, generated), edge))
                if consumer is receiver:
                    receiver_in.append(((sender_key, fmt, generated), edge))
                else:
                    into.setdefault(consumer.service_id, []).append(
                        ((sender_key, fmt, 0, generated), edge)
                    )
                generated += 1
        out_of: Dict[str, List[Tuple[Tuple, Edge]]] = {}
        for producer in skeleton.transcoders:
            for k, fmt in enumerate(producer.service.output_formats):
                if fmt not in decoders:
                    continue
                bandwidth, cost, delay = facts(producer.node_id, receiver_node)
                if bandwidth <= 0.0:
                    continue
                edge = Edge(
                    producer.service_id, receiver_id, fmt, bandwidth, cost, delay
                )
                out_of.setdefault(producer.service_id, []).append(
                    ((receiver_key, fmt, k, 0), edge)
                )
                receiver_in.append(
                    ((keys[producer.service_id], fmt, generated), edge)
                )
                generated += 1

        vertices: Dict[str, Vertex] = {sender_id: sender, receiver_id: receiver}
        out_edges: Dict[str, Tuple[Edge, ...]] = {
            sender_id: tuple(edge for _, edge in sorted(sender_out, key=_KEY)),
            receiver_id: (),
        }
        in_edges: Dict[str, Tuple[Edge, ...]] = {
            sender_id: (),
            receiver_id: tuple(edge for _, edge in sorted(receiver_in, key=_KEY)),
        }
        for vertex in skeleton.transcoders:
            service_id = vertex.service_id
            vertices[service_id] = vertex
            out_edges[service_id] = _spliced(
                skeleton.out_slots[service_id],
                slot_edges,
                skeleton.out_keys[service_id],
                out_of.get(service_id, []),
            )
            in_edges[service_id] = _spliced(
                skeleton.in_slots[service_id],
                slot_edges,
                skeleton.in_keys[service_id],
                into.get(service_id, []),
            )

        ordered_ids = list(skeleton.ordered_ids)
        for key, index, service_id in sorted(
            [(sender_key, 0, sender_id), (receiver_key, 1, receiver_id)],
            reverse=True,
        ):
            ordered_ids.insert(bisect_left(skeleton.order, (key, index)), service_id)
        return AdaptationGraph._assemble(
            vertices,
            tuple(ordered_ids),
            out_edges,
            in_edges,
            sender_id,
            receiver_id,
            filterable=(
                skeleton.distinct_formats
                and len(decoders) == len(receiver_descriptor.input_formats)
                and len(set(sender_descriptor.output_formats))
                == len(sender_descriptor.output_formats)
            ),
        )
