"""Tests for NoC traffic generation, link-trace simulation and power."""

import numpy as np
import pytest

from repro.core.optimize import run_searches
from repro.noc.power import optimize_vertical_links
from repro.noc.simulation import simulate_link_traces
from repro.noc.topology import MeshTopology
from repro.noc.traffic import (
    Packet,
    hotspot_traffic,
    transpose_traffic,
    uniform_traffic,
)


@pytest.fixture(scope="module")
def topo():
    return MeshTopology(3, 3, 2)


class TestTraffic:
    def test_uniform_no_self_packets(self, topo):
        trace = uniform_traffic(topo, 100, rng=np.random.default_rng(0))
        assert len(trace.packets) == 100
        assert all(p.source != p.destination for p in trace.packets)

    def test_hotspot_biases_destination(self, topo):
        hotspot = (1, 1, 0)
        trace = hotspot_traffic(
            topo, 400, hotspot=hotspot, hotspot_fraction=0.7,
            rng=np.random.default_rng(1),
        )
        hits = sum(p.destination == hotspot for p in trace.packets)
        assert hits > 0.5 * len(trace.packets)

    def test_hotspot_validation(self, topo):
        with pytest.raises(ValueError):
            hotspot_traffic(topo, 10, hotspot=(9, 9, 9))
        with pytest.raises(ValueError):
            hotspot_traffic(topo, 10, hotspot=(0, 0, 0), hotspot_fraction=1.5)

    def test_transpose_pairs(self, topo):
        trace = transpose_traffic(topo, rng=np.random.default_rng(2))
        for packet in trace.packets:
            x, y, z = packet.source
            assert packet.destination == (y, x, topo.nz - 1 - z)

    def test_transpose_needs_square(self):
        with pytest.raises(ValueError):
            transpose_traffic(MeshTopology(2, 3, 2))

    def test_payload_kinds(self, topo):
        rng = np.random.default_rng(3)
        random_trace = uniform_traffic(topo, 20, payload="random", rng=rng)
        gauss_trace = uniform_traffic(topo, 20, payload="gaussian", rng=rng)
        for trace in (random_trace, gauss_trace):
            for packet in trace.packets:
                assert (packet.flits >= 0).all()
                assert (packet.flits < (1 << trace.flit_width)).all()
        with pytest.raises(ValueError):
            uniform_traffic(topo, 5, payload="morse", rng=rng)

    def test_packet_validation(self):
        with pytest.raises(ValueError):
            Packet((0, 0, 0), (1, 0, 0), np.array([], dtype=np.int64))


class TestSimulation:
    def test_flit_conservation_per_hop(self, topo):
        """Every link a packet traverses carries all of its flits."""
        rng = np.random.default_rng(4)
        trace = uniform_traffic(topo, 30, flits_per_packet=5, rng=rng)
        traces = simulate_link_traces(topo, trace, idle="zero")
        from repro.noc.routing import path_links, xyz_route

        expected = {}
        for packet in trace.packets:
            for hop in path_links(
                xyz_route(topo, packet.source, packet.destination)
            ):
                expected[hop] = expected.get(hop, 0) + len(packet.flits)
        for hop, count in expected.items():
            carried = traces.trace(*hop)
            # idle cycles add at most (packets-1) extra words.
            assert len(carried) >= count

    def test_single_packet_trace_is_verbatim(self, topo):
        rng = np.random.default_rng(5)
        trace = uniform_traffic(topo, 1, flits_per_packet=6, rng=rng)
        traces = simulate_link_traces(topo, trace)
        packet = trace.packets[0]
        from repro.noc.routing import path_links, xyz_route

        hop = path_links(
            xyz_route(topo, packet.source, packet.destination)
        )[0]
        np.testing.assert_array_equal(traces.trace(*hop), packet.flits)

    def test_idle_modes_differ(self, topo):
        rng = np.random.default_rng(6)
        trace = hotspot_traffic(topo, 40, hotspot=(0, 0, 1), rng=rng)
        hold = simulate_link_traces(topo, trace, idle="hold")
        zero = simulate_link_traces(topo, trace, idle="zero")
        busiest = max(hold.utilization(), key=hold.utilization().get)
        assert len(hold.trace(*busiest)) == len(zero.trace(*busiest))
        assert (hold.trace(*busiest) != zero.trace(*busiest)).any()

    def test_unknown_idle_mode(self, topo):
        trace = uniform_traffic(topo, 2, rng=np.random.default_rng(7))
        with pytest.raises(ValueError):
            simulate_link_traces(topo, trace, idle="tristate")

    def test_missing_link_raises(self, topo):
        trace = uniform_traffic(topo, 1, rng=np.random.default_rng(8))
        traces = simulate_link_traces(topo, trace)
        with pytest.raises(KeyError):
            traces.trace((0, 0, 0), (0, 0, 9))

    def test_bits_shape(self, topo):
        rng = np.random.default_rng(9)
        trace = uniform_traffic(topo, 20, flit_width=9, rng=rng)
        traces = simulate_link_traces(topo, trace)
        hop = next(iter(traces.words))
        bits = traces.bits(*hop)
        assert bits.shape[1] == 9
        assert set(np.unique(bits)) <= {0, 1}


class TestVerticalPower:
    def test_network_report(self, topo):
        rng = np.random.default_rng(10)
        trace = hotspot_traffic(
            topo, 120, hotspot=(1, 1, 0), flit_width=9,
            flits_per_packet=12, rng=rng,
        )
        traces = simulate_link_traces(topo, trace)
        report = run_searches(optimize_vertical_links(
            traces, sa_steps=40, baseline_samples=15,
            rng=np.random.default_rng(0),
        ))
        assert report.n_links > 0
        # The assignment is free and must pay; combining with the code
        # must beat the code alone.
        assert report.assigned < report.plain
        assert report.coded_assigned < report.coded
        assert report.reduction("assigned") > 0.0

    def test_no_traffic_raises(self):
        flat = MeshTopology(2, 2, 1)  # no vertical links at all
        trace = uniform_traffic(flat, 10, rng=np.random.default_rng(11))
        traces = simulate_link_traces(flat, trace)
        with pytest.raises(ValueError):
            run_searches(optimize_vertical_links(traces))
