"""Unit tests for fault injection (Table 2 catalogue)."""

import pytest

from repro.net.faults import (CpuOverload, FaultManager, HostDown,
                              LinkCorruption, LinkFailure, LinkOverload,
                              LocusKind, PcieDowngrade, PfcDeadlock,
                              PfcHeadroomMisconfig, ProblemCategory,
                              RnicAcsMisconfig, RnicCorruption, RnicDown,
                              RnicFlapping, RnicGidIndexMissing,
                              RnicRoutingMisconfig, ROUTING_CONVERGENCE_NS,
                              SilentDrop, SwitchAclError, SwitchPortFlapping)
from repro.net.addresses import roce_five_tuple
from repro.sim.units import MILLISECOND, seconds


class TestFlapping:
    def test_switch_port_flapping_toggles(self, tiny_clos):
        c = tiny_clos
        fault = SwitchPortFlapping(c, "pod0-tor0", "pod0-agg0",
                                   period_ns=100 * MILLISECOND)
        pair = c.topology.link_pair("pod0-tor0", "pod0-agg0")
        fault.inject()
        states = []
        for _ in range(10):
            c.sim.run_for(50 * MILLISECOND)
            states.append(pair.up)
        assert True in states and False in states
        fault.clear()
        c.sim.run_for(seconds(1))
        assert pair.up

    def test_flapping_never_converges_routing(self, tiny_clos):
        c = tiny_clos
        fault = SwitchPortFlapping(c, "pod0-tor0", "pod0-agg0")
        fault.inject()
        c.sim.run_for(seconds(30))
        assert not c.topology.link_pair("pod0-tor0", "pod0-agg0").routed_around

    def test_rnic_flapping_toggles(self, tiny_clos):
        c = tiny_clos
        rnic = c.rnic("host0-rnic0")
        fault = RnicFlapping(c, "host0-rnic0", period_ns=100 * MILLISECOND)
        fault.inject()
        states = []
        for _ in range(10):
            c.sim.run_for(50 * MILLISECOND)
            states.append(rnic.operational)
        assert True in states and False in states
        fault.clear()
        assert rnic.operational

    def test_bad_duty_cycle(self, tiny_clos):
        with pytest.raises(ValueError):
            SwitchPortFlapping(tiny_clos, "pod0-tor0", "pod0-agg0",
                               down_fraction=1.5)

    @pytest.mark.parametrize("period_ns", [0, -5, float("nan")])
    def test_non_positive_period_rejected(self, tiny_clos, period_ns):
        # Accepted, a zero period toggled the port every nanosecond and
        # wedged the run.
        with pytest.raises(ValueError, match="period_ns"):
            SwitchPortFlapping(tiny_clos, "pod0-tor0", "pod0-agg0",
                               period_ns=period_ns)
        with pytest.raises(ValueError, match="period_ns"):
            RnicFlapping(tiny_clos, "host0-rnic0", period_ns=period_ns)

    @pytest.mark.parametrize("period_ns", [2, MILLISECOND - 1])
    def test_sub_millisecond_period_rejected(self, tiny_clos, period_ns):
        # Positive but tiny, a period toggled the port every nanosecond
        # all the same (max(1, round(...))) and wedged the run.
        with pytest.raises(ValueError, match="period_ns must be"):
            SwitchPortFlapping(tiny_clos, "pod0-tor0", "pod0-agg0",
                               period_ns=period_ns)
        with pytest.raises(ValueError, match="period_ns must be"):
            RnicFlapping(tiny_clos, "host0-rnic0", period_ns=period_ns)
        RnicFlapping(tiny_clos, "host0-rnic0", period_ns=MILLISECOND)

    def test_ground_truth_metadata(self, tiny_clos):
        fault = SwitchPortFlapping(tiny_clos, "pod0-tor0", "pod0-agg0")
        gt = fault.ground_truth
        assert gt.table2_row == 1
        assert gt.category == ProblemCategory.HARDWARE_FAILURE
        assert gt.locus_kind == LocusKind.LINK
        assert not gt.active
        fault.inject()
        assert gt.active


class TestSimpleFaults:
    def test_link_corruption(self, tiny_clos):
        fault = LinkCorruption(tiny_clos, "pod0-tor0", "pod0-agg0",
                               drop_prob=0.3)
        fault.inject()
        assert tiny_clos.topology.link("pod0-tor0",
                                       "pod0-agg0").corruption_drop_prob == 0.3
        assert tiny_clos.topology.link("pod0-agg0",
                                       "pod0-tor0").corruption_drop_prob == 0.3
        fault.clear()
        assert tiny_clos.topology.link("pod0-tor0",
                                       "pod0-agg0").corruption_drop_prob == 0.0

    def test_rnic_corruption(self, tiny_clos):
        fault = RnicCorruption(tiny_clos, "host0-rnic0", drop_prob=0.2)
        fault.inject()
        rnic = tiny_clos.rnic("host0-rnic0")
        assert rnic.rx_corruption_prob == 0.2
        fault.clear()
        assert rnic.rx_corruption_prob == 0.0

    def test_rnic_down_marks_service_failing(self, tiny_clos):
        fault = RnicDown(tiny_clos, "host0-rnic0")
        assert fault.ground_truth.causes_service_failure
        fault.inject()
        assert not tiny_clos.rnic("host0-rnic0").operational
        fault.clear()
        assert tiny_clos.rnic("host0-rnic0").operational

    def test_host_down_takes_rnics_down(self, tiny_clos):
        fault = HostDown(tiny_clos, "host0")
        fault.inject()
        assert not tiny_clos.hosts["host0"].up
        for rnic in tiny_clos.hosts["host0"].rnics:
            assert not rnic.operational
        fault.clear()
        assert tiny_clos.hosts["host0"].up

    def test_pfc_deadlock_both_directions(self, tiny_clos):
        fault = PfcDeadlock(tiny_clos, "pod0-tor0", "pod0-agg0")
        fault.inject()
        assert tiny_clos.topology.link("pod0-tor0", "pod0-agg0").pfc_deadlocked
        assert tiny_clos.topology.link("pod0-agg0", "pod0-tor0").pfc_deadlocked
        # Link is physically up: routing does NOT converge around it.
        assert tiny_clos.topology.link_pair("pod0-tor0", "pod0-agg0").up

    def test_routing_misconfig(self, tiny_clos):
        fault = RnicRoutingMisconfig(tiny_clos, "host0-rnic0")
        fault.inject()
        assert not tiny_clos.rnic("host0-rnic0").routing_configured

    def test_gid_index_missing(self, tiny_clos):
        fault = RnicGidIndexMissing(tiny_clos, "host0-rnic0")
        fault.inject()
        assert not tiny_clos.rnic("host0-rnic0").gid_index_present

    def test_acl_error(self, tiny_clos):
        ip = tiny_clos.rnic("host0-rnic0").ip
        fault = SwitchAclError(tiny_clos, "pod0-agg0", src_ip=ip)
        fault.inject()
        acl = tiny_clos.topology.node("pod0-agg0").acl
        assert not acl.permits(roce_five_tuple(ip, "10.0.0.99", 1234))
        fault.clear()
        assert acl.permits(roce_five_tuple(ip, "10.0.0.99", 1234))

    def test_pfc_headroom(self, tiny_clos):
        fault = PfcHeadroomMisconfig(tiny_clos, "pod0-tor0", "pod0-agg0")
        fault.inject()
        assert not tiny_clos.topology.link("pod0-tor0",
                                           "pod0-agg0").pfc_headroom_ok

    def test_link_overload_restores_baseline(self, tiny_clos):
        link = tiny_clos.topology.link("pod0-tor0", "pod0-agg0")
        link.set_offered_load(0, 50.0)
        fault = LinkOverload(tiny_clos, "pod0-tor0", "pod0-agg0",
                             extra_gbps=100.0)
        fault.inject()
        assert link.offered_load_gbps == 150.0
        fault.clear()
        assert link.offered_load_gbps == 50.0

    def test_cpu_overload_restores_previous(self, tiny_clos):
        host = tiny_clos.hosts["host0"]
        host.cpu.set_load(0.2)
        fault = CpuOverload(tiny_clos, "host0", load=0.95)
        fault.inject()
        assert host.cpu.load == 0.95
        assert host.cpu.overloaded
        fault.clear()
        assert host.cpu.load == 0.2

    def test_pcie_downgrade_sets_pause_pressure(self, tiny_clos):
        fault = PcieDowngrade(tiny_clos, "host0-rnic0")
        fault.inject()
        rnic = tiny_clos.rnic("host0-rnic0")
        tor = tiny_clos.tor_of("host0-rnic0")
        downlink = tiny_clos.topology.link(tor, "host0-rnic0")
        assert rnic.pcie_gbps == 32.0
        assert downlink.pause_delay_ns > 0
        fault.clear()
        assert downlink.pause_delay_ns == 0

    @pytest.mark.parametrize("fault_class", [PcieDowngrade, RnicAcsMisconfig])
    @pytest.mark.parametrize("params", [
        {"degraded_pcie_gbps": 0}, {"degraded_pcie_gbps": -8.0},
        {"degraded_pcie_gbps": float("nan")}, {"pause_delay_ns": -1}])
    def test_pcie_downgrade_rejects_bad_parameters(self, tiny_clos,
                                                   fault_class, params):
        # Accepted, they crashed the world at the next probe tick.
        with pytest.raises(ValueError):
            fault_class(tiny_clos, "host0-rnic0", **params)

    @pytest.mark.parametrize("drop_prob", [-1.0, 0.0, 1.5, float("nan")])
    def test_rnic_corruption_rejects_out_of_range_prob(self, tiny_clos,
                                                       drop_prob):
        # Accepted, a negative probability was a fault that did nothing
        # yet still counted as ground truth.
        with pytest.raises(ValueError, match="drop_prob"):
            RnicCorruption(tiny_clos, "host0-rnic0", drop_prob=drop_prob)

    @pytest.mark.parametrize("load", [-1.0, 0.0, 5.0, float("nan")])
    def test_cpu_overload_rejects_out_of_range_load(self, tiny_clos, load):
        with pytest.raises(ValueError, match="load"):
            CpuOverload(tiny_clos, "host0", load=load)

    def test_range_ends_accepted(self, tiny_clos):
        RnicCorruption(tiny_clos, "host0-rnic0", drop_prob=1.0)
        CpuOverload(tiny_clos, "host0", load=1.0)

    @pytest.mark.parametrize("extra_gbps", [-900.0, -1e-9, float("nan")])
    def test_link_overload_rejects_negative_load(self, tiny_clos, extra_gbps):
        with pytest.raises(ValueError):
            LinkOverload(tiny_clos, "pod0-tor0", "pod0-agg0",
                         extra_gbps=extra_gbps)

    def test_acs_misconfig_is_row_14(self, tiny_clos):
        fault = RnicAcsMisconfig(tiny_clos, "host0-rnic0")
        assert fault.ground_truth.table2_row == 14
        assert fault.ground_truth.category == \
            ProblemCategory.INTRA_HOST_BOTTLENECK


class TestLinkFailure:
    def test_routing_converges_after_delay(self, tiny_clos):
        c = tiny_clos
        fault = LinkFailure(c, "pod0-tor0", "pod0-agg0")
        fault.inject()
        pair = c.topology.link_pair("pod0-tor0", "pod0-agg0")
        assert not pair.up
        assert not pair.routed_around
        c.sim.run_for(ROUTING_CONVERGENCE_NS + 1)
        assert pair.routed_around
        fault.clear()
        assert pair.up and not pair.routed_around

    def test_recovery_before_convergence(self, tiny_clos):
        c = tiny_clos
        fault = LinkFailure(c, "pod0-tor0", "pod0-agg0")
        fault.inject()
        fault.clear()
        c.sim.run_for(ROUTING_CONVERGENCE_NS + 1)
        assert not c.topology.link_pair("pod0-tor0",
                                        "pod0-agg0").routed_around


class TestSilentDrop:
    def test_matches_only_some_ports(self, tiny_clos):
        fault = SilentDrop(tiny_clos, "pod0-tor0", "pod0-agg0",
                           match_port_mod=8, match_port_rem=3)
        fault.inject()
        link = tiny_clos.topology.link("pod0-tor0", "pod0-agg0")
        hit = roce_five_tuple("a", "b", 8 * 100 + 3)
        miss = roce_five_tuple("a", "b", 8 * 100 + 4)
        assert link.silent_drop_predicate(hit)
        assert not link.silent_drop_predicate(miss)
        fault.clear()
        assert link.silent_drop_predicate is None

    @pytest.mark.parametrize("mod, rem", [(0, 0), (-8, 3), (8, 8), (8, 9),
                                          (8, -1)])
    def test_port_match_out_of_range_rejected(self, tiny_clos, mod, rem):
        # mod 0 crashed the first packet with ZeroDivisionError; a
        # remainder outside [0, mod) matched no port yet was ground truth.
        with pytest.raises(ValueError, match="must be"):
            SilentDrop(tiny_clos, "pod0-tor0", "pod0-agg0",
                       match_port_mod=mod, match_port_rem=rem)

    def test_port_match_edges_accepted(self, tiny_clos):
        for mod, rem in ((1, 0), (8, 0), (8, 7)):
            fault = SilentDrop(tiny_clos, "pod0-tor0", "pod0-agg0",
                               match_port_mod=mod, match_port_rem=rem)
            assert fault.matches(roce_five_tuple("a", "b", 8 * 100 + rem))


class TestFaultManager:
    def test_schedule_window(self, tiny_clos):
        c = tiny_clos
        manager = FaultManager(c)
        fault = RnicDown(c, "host0-rnic0")
        manager.schedule(fault, start_ns=seconds(1), end_ns=seconds(2))
        assert c.rnic("host0-rnic0").operational
        c.sim.run_until(seconds(1) + 1)
        assert not c.rnic("host0-rnic0").operational
        c.sim.run_until(seconds(2) + 1)
        assert c.rnic("host0-rnic0").operational

    def test_bad_window(self, tiny_clos):
        manager = FaultManager(tiny_clos)
        with pytest.raises(ValueError):
            manager.schedule(RnicDown(tiny_clos, "host0-rnic0"),
                             start_ns=seconds(2), end_ns=seconds(1))

    def test_ground_truth_registry(self, tiny_clos):
        manager = FaultManager(tiny_clos)
        manager.inject_now(RnicDown(tiny_clos, "host0-rnic0"))
        manager.schedule(HostDown(tiny_clos, "host1"), start_ns=seconds(5))
        truths = manager.ground_truths()
        assert len(truths) == 2
        active = manager.active_ground_truths()
        assert len(active) == 1
        assert active[0].locus == "host0-rnic0"

    def test_inject_clear_idempotent(self, tiny_clos):
        fault = RnicDown(tiny_clos, "host0-rnic0")
        fault.inject()
        fault.inject()
        fault.clear()
        fault.clear()
        assert tiny_clos.rnic("host0-rnic0").operational
