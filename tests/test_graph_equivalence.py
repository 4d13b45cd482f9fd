"""Equivalence of the single-source graph builder and the per-pair seed builder.

The production :class:`AdaptationGraphBuilder` takes every edge's
bandwidth, cost and delay from one widest tree per producer host, and
:class:`AdaptationGraph` sorts adjacency by vertex rank.  Both must be
**bit-identical** to the per-pair builder and key-sorted graph preserved in
:mod:`tests.reference_graph`: vertex order, ``edges()`` order, every
:class:`Edge` field (compared by ``repr`` too, so ``-0.0`` and int/float
drift would show), pruned graphs, and the :class:`SelectionResult` under
every tie-break policy.

Hypothesis draws random topologies whose link bandwidths come from a small
tied set, so widest routes tie often and the heap's tie-break decides the
route.  Delays and costs are arbitrary floats or ints, so cost and delay
sums round.  Catalogs come from the synthetic generator, optionally with
zero-padded twins (``S3`` and ``S03``) whose sort keys tie, and services
are placed at random, some left unplaced.
"""

from __future__ import annotations

import dataclasses
import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.graph import AdaptationGraphBuilder
from repro.core.pruning import GraphPruner
from repro.core.selection import QoSPathSelector, TieBreakPolicy
from repro.errors import GraphConstructionError
from repro.network.placement import ServicePlacement
from repro.network.topology import NetworkTopology
from repro.profiles.device import DeviceProfile
from repro.services.catalog import ServiceCatalog
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

from tests.reference_graph import (
    ReferenceGraphBuilder,
    SeedOrderGraph,
    reference_widest_path,
)

TIED_BANDWIDTHS = [0.0, 1e6, 2e6, 5e6]
link_delays = st.one_of(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    st.integers(min_value=0, max_value=20),
)
link_costs = st.one_of(
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    st.integers(min_value=0, max_value=3),
)


@st.composite
def topologies(draw):
    """A chain-like random tree (long routes), now and then cut, plus chords."""
    n_nodes = draw(st.integers(min_value=2, max_value=9))
    pairs = {
        (draw(st.integers(min_value=max(0, child - 2), max_value=child - 1)), child)
        for child in range(1, n_nodes)
        if draw(st.integers(min_value=0, max_value=9))  # 0 cuts the tree
    }
    all_pairs = list(itertools.combinations(range(n_nodes), 2))
    pairs.update(draw(st.lists(st.sampled_from(all_pairs), max_size=n_nodes)))
    topology = NetworkTopology()
    for index in range(n_nodes):
        topology.node(f"n{index}")
    for a, b in sorted(pairs):
        topology.link(
            f"n{a}",
            f"n{b}",
            bandwidth_bps=draw(st.sampled_from(TIED_BANDWIDTHS)),
            delay_ms=draw(link_delays),
            cost=draw(link_costs),
        )
    return topology


@st.composite
def infrastructures(draw, duplicate_formats=False):
    """A synthetic scenario re-homed onto a random topology and placement.

    With ``duplicate_formats`` some transcoders list one of their formats
    twice, which makes the builder emit repeated edge triples.
    """
    scenario = generate_scenario(
        SyntheticConfig(
            seed=draw(st.integers(min_value=0, max_value=10_000)),
            n_services=draw(st.integers(min_value=4, max_value=20)),
            n_formats=draw(st.integers(min_value=5, max_value=9)),
            n_nodes=3,
            backbone_hops=draw(st.integers(min_value=1, max_value=3)),
            preference_mode=draw(st.sampled_from(["single", "rich"])),
        )
    )
    descriptors = list(scenario.catalog)
    twins = draw(st.lists(st.sampled_from(descriptors), unique=True, max_size=3))
    for descriptor in twins:
        twin_id = re.sub(r"(\d+)$", r"0\1", descriptor.service_id)
        if twin_id not in scenario.catalog:
            descriptors.append(dataclasses.replace(descriptor, service_id=twin_id))
    if duplicate_formats:
        for index in draw(
            st.lists(st.sampled_from(range(len(descriptors))), unique=True, max_size=3)
        ):
            descriptor = descriptors[index]
            descriptors[index] = dataclasses.replace(
                descriptor,
                input_formats=descriptor.input_formats + descriptor.input_formats[:1],
                output_formats=descriptor.output_formats
                + descriptor.output_formats[-1:],
            )
    catalog = ServiceCatalog(descriptors)

    topology = draw(topologies())
    nodes = topology.node_ids()
    placement = ServicePlacement(topology)
    for descriptor in catalog:
        node = draw(st.sampled_from(nodes + [None]))  # None: left unplaced
        if node is not None:
            placement.place(descriptor.service_id, node)
    return scenario, catalog, topology, placement, draw(st.booleans())


@st.composite
def worlds(draw):
    """One production and one reference graph over a random infrastructure."""
    scenario, catalog, topology, placement, check_resources = draw(
        infrastructures()
    )
    nodes = topology.node_ids()
    build_args = dict(
        content=scenario.content,
        device=scenario.device,
        sender_node=draw(st.sampled_from(nodes)),
        receiver_node=draw(st.sampled_from(nodes)),
    )
    production = AdaptationGraphBuilder(
        catalog, placement, check_resources=check_resources
    ).build(**build_args)
    reference = ReferenceGraphBuilder(
        catalog, placement, check_resources=check_resources
    ).build(**build_args)
    return scenario, topology, production, reference


def _assert_same_graph(production, reference):
    assert production.vertex_ids() == reference.vertex_ids()
    assert production.vertex_rank() == reference.vertex_rank()
    assert production.edges() == reference.edges()
    assert [repr(e) for e in production.edges()] == [
        repr(e) for e in reference.edges()
    ]
    for service_id in reference.vertex_ids():
        assert production.out_edges(service_id) == reference.out_edges(service_id)
        assert production.in_edges(service_id) == reference.in_edges(service_id)


def _select(scenario, graph, policy):
    return QoSPathSelector.for_user(
        graph=graph,
        registry=scenario.registry,
        parameters=scenario.parameters,
        user=scenario.user,
        tie_break=policy,
        record_trace=True,
    ).run()


@settings(max_examples=60, deadline=None)
@given(topology=topologies())
def test_widest_path_matches_reference_for_every_pair(topology):
    for source, target in itertools.product(topology.node_ids(), repeat=2):
        expected = reference_widest_path(topology, source, target)
        assert topology.widest_path(source, target) == expected
        routes = topology.widest_tree(source).routes
        if expected is None:
            assert target not in routes
            continue
        facts = (
            topology.path_bottleneck(expected),
            topology.path_cost(expected),
            topology.path_delay_ms(expected),
        )
        assert routes[target] == facts
        assert repr(routes[target]) == repr(facts)


@settings(max_examples=60, deadline=None)
@given(world=worlds())
def test_graph_matches_per_pair_reference(world):
    _, _, production, reference = world
    _assert_same_graph(production, reference)


@settings(max_examples=25, deadline=None)
@given(world=worlds())
def test_pruned_graph_and_selection_match_reference(world):
    scenario, _, production, reference = world
    pruned, _ = GraphPruner().prune(production)
    # The pruner hands over the surviving edges in edges() order; replay
    # that order through the seed sorts.
    kept = set(pruned.edges())
    seed_pruned = SeedOrderGraph(
        pruned.vertices(),
        [edge for edge in reference.edges() if edge in kept],
        pruned.sender_id,
        pruned.receiver_id,
    )
    _assert_same_graph(pruned, seed_pruned)
    for policy in TieBreakPolicy:
        assert _select(scenario, production, policy) == _select(
            scenario, reference, policy
        )
        assert _select(scenario, pruned, policy) == _select(
            scenario, seed_pruned, policy
        )


#: Endpoint ids: the defaults, a catalog id (a collision) and plain text;
#: the test adds a zero-padded twin of every catalog id (``X04`` for
#: ``X4``), whose natural key ties with the catalog id's.
ENDPOINT_IDS = ["sender", "receiver", "X1", "S", "rx"]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_shared_builder_matches_reference_across_requests(data):
    """One builder, its skeleton reused across requests and link changes."""
    scenario, catalog, topology, placement, check_resources = data.draw(
        infrastructures(duplicate_formats=True)
    )
    builder = AdaptationGraphBuilder(
        catalog, placement, check_resources=check_resources
    )
    links = topology.links()
    nodes = topology.node_ids()
    formats = [fmt.name for fmt in scenario.registry]
    endpoint_ids = ENDPOINT_IDS + [
        re.sub(r"(\d+)$", r"0\1", service_id) for service_id in catalog.ids()
    ]
    for _ in range(data.draw(st.integers(min_value=2, max_value=4))):
        changed = data.draw(st.lists(st.sampled_from(links), max_size=3)) if links else []
        for link in changed:
            topology.set_bandwidth(
                link.a, link.b, data.draw(st.sampled_from(TIED_BANDWIDTHS))
            )
        if data.draw(st.integers(min_value=0, max_value=3)) == 0:
            # Re-place one service: the next build needs a new skeleton.
            placement.place(
                data.draw(st.sampled_from(catalog.ids())),
                data.draw(st.sampled_from(nodes)),
            )
        device = DeviceProfile(
            device_id=scenario.device.device_id,
            decoders=data.draw(
                st.lists(st.sampled_from(formats), min_size=1, unique=True)
            ),
            max_resolution=scenario.device.max_resolution,
            max_color_depth=scenario.device.max_color_depth,
            max_frame_rate=scenario.device.max_frame_rate,
            max_audio_kbps=scenario.device.max_audio_kbps,
        )
        build_args = dict(
            content=scenario.content,
            device=device,
            sender_node=data.draw(st.sampled_from(nodes)),
            receiver_node=data.draw(st.sampled_from(nodes)),
            sender_id=data.draw(st.sampled_from(endpoint_ids)),
            receiver_id=data.draw(st.sampled_from(endpoint_ids)),
        )
        reference_builder = ReferenceGraphBuilder(
            catalog, placement, check_resources=check_resources
        )
        try:
            reference = reference_builder.build(**build_args)
        except GraphConstructionError as error:
            with pytest.raises(GraphConstructionError) as raised:
                builder.build(**build_args)
            assert str(raised.value) == str(error)
            continue
        production = builder.build(**build_args)
        _assert_same_graph(production, reference)
        pruned, report = GraphPruner().prune(production)
        reference_pruned, reference_report = GraphPruner().prune(reference)
        _assert_same_graph(pruned, reference_pruned)
        assert report == reference_report
