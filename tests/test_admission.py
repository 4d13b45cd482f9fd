"""Tests for the bandwidth reservation ledger."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.network.reservations import BandwidthLedger
from repro.network.topology import NetworkTopology


def small_topology() -> NetworkTopology:
    topology = NetworkTopology()
    for node in ("a", "b", "c"):
        topology.node(node)
    topology.link("a", "b", 10e6)
    topology.link("b", "c", 4e6)
    return topology


class TestBandwidthLedger:
    def test_reserve_and_residual(self):
        ledger = BandwidthLedger(small_topology())
        ledger.reserve(["a", "b", "c"], 1e6)
        assert ledger.residual("a", "b") == pytest.approx(9e6)
        assert ledger.residual("b", "c") == pytest.approx(3e6)
        assert len(ledger) == 1

    def test_release_restores_capacity(self):
        ledger = BandwidthLedger(small_topology())
        reservation = ledger.reserve(["a", "b"], 2e6)
        ledger.release(reservation)
        assert ledger.residual("a", "b") == pytest.approx(10e6)
        assert len(ledger) == 0

    def test_double_release_rejected(self):
        ledger = BandwidthLedger(small_topology())
        reservation = ledger.reserve(["a", "b"], 1e6)
        ledger.release(reservation)
        with pytest.raises(ValidationError):
            ledger.release(reservation)

    def test_over_reservation_rejected_atomically(self):
        ledger = BandwidthLedger(small_topology())
        with pytest.raises(ValidationError):
            ledger.reserve(["a", "b", "c"], 5e6)  # b--c only has 4e6
        # The a--b leg must not have been charged.
        assert ledger.residual("a", "b") == pytest.approx(10e6)
        assert len(ledger) == 0

    def test_many_reservations_accumulate(self):
        ledger = BandwidthLedger(small_topology())
        for _ in range(4):
            ledger.reserve(["b", "c"], 1e6)
        assert ledger.residual("b", "c") == pytest.approx(0.0)
        with pytest.raises(ValidationError):
            ledger.reserve(["b", "c"], 0.5e6)

    def test_single_node_route_reserves_nothing(self):
        ledger = BandwidthLedger(small_topology())
        reservation = ledger.reserve(["a"], 5e6)
        assert ledger.residual("a", "b") == pytest.approx(10e6)
        ledger.release(reservation)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ValidationError):
            BandwidthLedger(small_topology()).reserve(["a", "b"], -1.0)

    def test_residual_topology_reflects_reservations(self):
        ledger = BandwidthLedger(small_topology())
        ledger.reserve(["a", "b"], 4e6)
        residual = ledger.residual_topology()
        assert residual.get_link("a", "b").bandwidth_bps == pytest.approx(6e6)
        assert residual.get_link("b", "c").bandwidth_bps == pytest.approx(4e6)
        # Delays and structure are preserved.
        assert residual.get_link("a", "b").delay_ms == pytest.approx(
            small_topology().get_link("a", "b").delay_ms
        )

    def test_unknown_link_query_raises(self):
        ledger = BandwidthLedger(small_topology())
        with pytest.raises(Exception):
            ledger.residual("a", "c")

