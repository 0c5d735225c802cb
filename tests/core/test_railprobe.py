"""Unit tests for rail-optimized one-way probing (§7.4)."""

import pytest

from repro.core.railprobe import RailProber
from repro.net.faults import (LinkCorruption, RnicDown,
                              RnicRoutingMisconfig)
from repro.net.topology import Tier
from repro.sim.units import MILLISECOND, seconds


@pytest.fixture
def prober(small_rail):
    return RailProber(small_rail, "host0")


class TestBasics:
    def test_requires_multi_rnic_host(self, tiny_clos):
        with pytest.raises(ValueError):
            RailProber(tiny_clos, "host0")  # 1 RNIC per host

    def test_one_way_probe_completes(self, small_rail, prober):
        prober.probe_pair("host0-rnic0", "host0-rnic1")
        small_rail.sim.run_for(seconds(1))
        assert len(prober.results) == 1
        result = prober.results[0]
        assert not result.timeout
        assert result.raw_delta_ns is not None

    def test_probe_round_covers_all_pairs(self, small_rail, prober):
        prober.probe_round()
        small_rail.sim.run_for(seconds(1))
        pairs = {(r.src_rnic, r.dst_rnic) for r in prober.results}
        assert len(pairs) == 4 * 3  # 4 rails, ordered pairs

    def test_cross_rail_probes_traverse_spine(self, small_rail, prober):
        prober.sweep_ports()
        small_rail.sim.run_for(seconds(1))
        covered = prober.covered_links()
        spines = set(small_rail.topology.switches(Tier.SPINE))
        assert any(any(s in link for s in spines) for link in covered)

    def test_sweep_covers_whole_fabric_with_all_hosts(self, small_rail):
        probers = [RailProber(small_rail, h)
                   for h in sorted(small_rail.hosts)]
        for p in probers:
            p.sweep_ports()
        small_rail.sim.run_for(seconds(1))
        covered = set()
        for p in probers:
            covered |= p.covered_links()
        fabric = {l.name for l in small_rail.topology.switch_links()}
        assert fabric <= covered


class TestOneWayDetection:
    def test_timeout_on_dead_destination(self, small_rail, prober):
        RnicDown(small_rail, "host0-rnic1").inject()
        prober.probe_pair("host0-rnic0", "host0-rnic1")
        small_rail.sim.run_for(seconds(1))
        assert prober.results[0].timeout
        assert prober.timeout_rate() == 1.0

    def test_loss_on_corrupted_uplink(self, small_rail, prober):
        LinkCorruption(small_rail, "rail0", "spine0",
                       drop_prob=1.0).inject()
        LinkCorruption(small_rail, "rail0", "spine1",
                       drop_prob=1.0).inject()
        # Everything out of rnic0 (rail0) must die.
        for _ in range(10):
            prober.probe_pair("host0-rnic0", "host0-rnic1")
        small_rail.sim.run_for(seconds(1))
        from_rnic0 = [r for r in prober.results
                      if r.src_rnic == "host0-rnic0"]
        assert all(r.timeout for r in from_rnic0)

    def test_locally_failed_probe_takes_no_send_timestamp(self, small_rail,
                                                          prober):
        """A probe that never reaches the wire keeps its pending entry
        until its timeout; the next probe's ② must still be its own."""
        misconfig = RnicRoutingMisconfig(small_rail, "host0-rnic0")
        misconfig.inject()
        prober.probe_pair("host0-rnic0", "host0-rnic1", src_port=5000)
        misconfig.clear()
        prober.probe_pair("host0-rnic0", "host0-rnic1", src_port=5001)
        small_rail.sim.run_for(seconds(1))
        by_port = {r.src_port: r for r in prober.results}
        assert by_port[5000].timeout
        assert not by_port[5001].timeout
        assert by_port[5001].raw_delta_ns is not None

    def test_delay_change_needs_baseline(self, small_rail, prober):
        assert prober.delay_change_ns("host0-rnic0", "host0-rnic1") is None

    def test_delay_change_detects_congestion(self, small_rail, prober):
        pair = ("host0-rnic0", "host0-rnic1")
        for _ in range(40):
            prober.probe_pair(*pair, src_port=30_000)
            small_rail.sim.run_for(20 * MILLISECOND)
        baseline_change = prober.delay_change_ns(*pair)
        assert abs(baseline_change) < 5_000  # stable before congestion
        # Congest every spine->rail1 downlink.
        rail1 = small_rail.topology.tor_of("host0-rnic1")
        for spine in small_rail.topology.switches(Tier.SPINE):
            link = small_rail.topology.link(spine, rail1)
            link.set_offered_load(small_rail.sim.now, link.rate_gbps + 100)
        for _ in range(40):
            prober.probe_pair(*pair, src_port=30_000)
            small_rail.sim.run_for(20 * MILLISECOND)
        assert prober.delay_change_ns(*pair) > 10_000

    def test_raw_delta_includes_clock_offset(self, small_rail, prober):
        """The raw delta is cross-clock: it embeds an arbitrary offset,
        which is why only its *changes* are meaningful."""
        prober.probe_pair("host0-rnic0", "host0-rnic1")
        small_rail.sim.run_for(seconds(1))
        raw = prober.results[0].raw_delta_ns
        # A genuine one-way fabric delay is microseconds; the raw delta is
        # dominated by the RNIC clock offsets (up to ±100 s).
        assert abs(raw) > 1_000_000 or abs(raw) < 100_000_000_000
