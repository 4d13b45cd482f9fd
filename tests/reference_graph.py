"""The per-pair adaptation-graph builder, kept verbatim as the equivalence oracle.

Before single-source widest trees and the per-(catalog, placement)
transcoder skeleton, :class:`~repro.core.graph.AdaptationGraphBuilder`
created every vertex per session and connected them with one early-exit
widest-path Dijkstra per ordered host pair, then walked each path three
more times for its bottleneck, cost and delay.  :class:`AdaptationGraph` sorted its adjacency with the regex
``service_sort_key`` on every comparison.  This module preserves both:

- :func:`reference_widest_path` is the per-pair Dijkstra, written against
  the topology's public ``neighbors``/``get_link`` lookups;
- :class:`ReferenceGraphBuilder` is the seed builder as a standalone
  class: every vertex created per build, per-pair edge facts, and a
  :class:`SeedOrderGraph` result;
- :class:`SeedOrderGraph` re-derives vertex order, ranks and adjacency with
  the seed's key-based sorts over the edges in the order they were given.

The graph equivalence suite builds every graph both ways and asserts
bit-identical vertices, edges, adjacency and selection results.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.graph import AdaptationGraph, Edge, Vertex
from repro.errors import GraphConstructionError
from repro.network.placement import ServicePlacement
from repro.network.topology import NetworkTopology
from repro.profiles.content import ContentProfile
from repro.profiles.device import DeviceProfile
from repro.services.catalog import ServiceCatalog, service_sort_key
from repro.services.descriptor import ServiceDescriptor, ServiceKind

__all__ = ["ReferenceGraphBuilder", "SeedOrderGraph", "reference_widest_path"]


def reference_widest_path(
    topology: NetworkTopology, source: str, target: str
) -> Optional[List[str]]:
    """The seed's max-bottleneck Dijkstra for one ordered node pair."""
    if source == target:
        return [source]
    best: Dict[str, float] = {source: math.inf}
    parent: Dict[str, str] = {}
    heap: List[Tuple[float, str]] = [(-math.inf, source)]
    visited = set()
    while heap:
        neg_width, current = heapq.heappop(heap)
        if current in visited:
            continue
        visited.add(current)
        if current == target:
            break
        width = -neg_width
        for neighbor in topology.neighbors(current):
            if neighbor in visited:
                continue
            link = topology.get_link(current, neighbor)
            candidate = min(width, link.bandwidth_bps)
            if candidate > best.get(neighbor, -1.0):
                best[neighbor] = candidate
                parent[neighbor] = current
                heapq.heappush(heap, (-candidate, neighbor))
    if target not in best:
        return None
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


class SeedOrderGraph(AdaptationGraph):
    """An adaptation graph whose order comes from the seed's key sorts."""

    def __init__(
        self,
        vertices: Sequence[Vertex],
        edges: Sequence[Edge],
        sender_id: str,
        receiver_id: str,
    ) -> None:
        super().__init__(vertices, edges, sender_id, receiver_id)
        out_lists: Dict[str, List[Edge]] = {v: [] for v in self._vertices}
        in_lists: Dict[str, List[Edge]] = {v: [] for v in self._vertices}
        for edge in edges:
            out_lists[edge.source].append(edge)
            in_lists[edge.target].append(edge)
        self._out_edges = {
            v: tuple(
                sorted(es, key=lambda e: (service_sort_key(e.target), e.format_name))
            )
            for v, es in out_lists.items()
        }
        self._in_edges = {
            v: tuple(
                sorted(es, key=lambda e: (service_sort_key(e.source), e.format_name))
            )
            for v, es in in_lists.items()
        }
        self._ordered_ids = tuple(sorted(self._vertices, key=service_sort_key))
        self._vertex_rank = {
            service_id: rank for rank, service_id in enumerate(self._ordered_ids)
        }


class ReferenceGraphBuilder:
    """The seed builder: per-pair widest paths, seed-ordered adjacency.

    A standalone copy of the builder before the transcoder skeleton: it
    creates every vertex per build, connects every (producer, consumer,
    shared format) triple in generation order, and sorts with the seed's
    key-based sorts.
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

    def build(
        self,
        content: ContentProfile,
        device: DeviceProfile,
        sender_node: str,
        receiver_node: str,
        sender_id: str = "sender",
        receiver_id: str = "receiver",
        context_caps: Optional[Mapping[str, float]] = None,
    ) -> SeedOrderGraph:
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
        vertices: List[Vertex] = [
            Vertex(
                service=sender_descriptor,
                node_id=sender_node,
                source_configurations={
                    variant.format.name: variant.configuration
                    for variant in content.variants
                },
            ),
            Vertex(service=receiver_descriptor, node_id=receiver_node),
        ]
        for descriptor in self._catalog.transcoders():
            if descriptor.service_id in (sender_id, receiver_id):
                raise GraphConstructionError(
                    f"catalog service id {descriptor.service_id!r} collides "
                    f"with an endpoint id"
                )
            if not self._placement.is_placed(descriptor.service_id):
                continue
            if self._check_resources and not self._host_can_run(descriptor):
                continue
            vertices.append(
                Vertex(
                    service=descriptor,
                    node_id=self._placement.node_of(descriptor.service_id),
                )
            )
        edges = self._connect(vertices)
        return SeedOrderGraph(vertices, edges, sender_id, receiver_id)

    def _host_can_run(self, descriptor: ServiceDescriptor) -> bool:
        node = self._placement.topology.get_node(
            self._placement.node_of(descriptor.service_id)
        )
        return (
            descriptor.cpu_required(self._reference_input_bps) <= node.cpu_mips
            and descriptor.memory_mb <= node.memory_mb
        )

    def _connect(self, vertices: Sequence[Vertex]) -> List[Edge]:
        """Create one edge per (producer, consumer, shared format) triple."""
        topology = self._placement.topology
        edges: List[Edge] = []
        # Cache host-pair bandwidth: quadratic vertex pairs share few pairs.
        bandwidth_cache: Dict[Tuple[str, str], Tuple[float, float, float]] = {}

        def between(a: str, b: str) -> Tuple[float, float, float]:
            key = (a, b)
            hit = bandwidth_cache.get(key)
            if hit is not None:
                return hit
            if a == b:
                result = (math.inf, 0.0, 0.0)
            else:
                path = reference_widest_path(topology, a, b)
                if path is None:
                    result = (0.0, 0.0, 0.0)
                else:
                    result = (
                        topology.path_bottleneck(path),
                        topology.path_cost(path),
                        topology.path_delay_ms(path),
                    )
            bandwidth_cache[key] = result
            return result

        consumers_of: Dict[str, List[Vertex]] = {}
        for vertex in vertices:
            for fmt in vertex.service.input_formats:
                consumers_of.setdefault(fmt, []).append(vertex)

        for producer in vertices:
            for fmt in producer.service.output_formats:
                for consumer in consumers_of.get(fmt, ()):
                    if consumer.service_id == producer.service_id:
                        continue
                    bandwidth, cost, delay = between(
                        producer.node_id, consumer.node_id
                    )
                    if bandwidth <= 0.0:
                        continue  # Disconnected hosts cannot form an edge.
                    edges.append(
                        Edge(
                            source=producer.service_id,
                            target=consumer.service_id,
                            format_name=fmt,
                            bandwidth_bps=bandwidth,
                            transmission_cost=cost,
                            delay_ms=delay,
                        )
                    )
        return edges
