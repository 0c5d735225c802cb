"""Regression tests: fault windows, and writers that overlap on a device.

Overlapping activation windows on the same locus, adjacent windows whose
boundary events land on the same timestamp, and a clear that races ahead
of its inject are all legal campaign shapes — the fleet's
``schedule_campaign`` produces them routinely.  The refcounted
``Fault.acquire``/``release`` pair keeps the fault active exactly while
at least one window is open, regardless of event order.

Windows of *different* writers on one device setting — two faults, a fault
and a workload, a fault and remediation — compose through the cluster's
``Holds`` table: while both hold, the device reads both; when one leaves,
the other's value stays; when the last leaves, the device reads its base.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster
from repro.core.remediation import Remediator
from repro.fleet.presets import SMALL, TINY
from repro.fleet.spec import FaultEvent, schedule_campaign
from repro.net.addresses import roce_five_tuple
from repro.net.faults import (ROUTING_CONVERGENCE_NS, CpuOverload,
                              FaultManager, LinkCorruption, LinkFailure,
                              LinkOverload, PcieDowngrade, RnicAcsMisconfig,
                              RnicDown, SwitchPortFlapping)
from repro.net.pfc import PfcPropagationEngine
from repro.services.dml import CommPattern, DmlConfig, DmlJob
from repro.services.traffic import Flow, TrafficEngine
from repro.sim.units import MILLISECOND, seconds


def _rnic_fault(cluster):
    return RnicDown(cluster, "host0-rnic0")


class TestWindowRefcounting:
    def test_single_window(self, tiny_clos):
        c = tiny_clos
        manager = FaultManager(c)
        rnic = c.rnic("host0-rnic0")
        manager.schedule(_rnic_fault(c), start_ns=seconds(1),
                         end_ns=seconds(3))
        c.sim.run_for(seconds(2))
        assert not rnic.operational
        c.sim.run_for(seconds(2))
        assert rnic.operational

    def test_overlapping_windows_same_locus(self, tiny_clos):
        """[1s,5s) and [3s,8s): active for the union, cleared once."""
        c = tiny_clos
        manager = FaultManager(c)
        rnic = c.rnic("host0-rnic0")
        fault = _rnic_fault(c)
        manager.schedule(fault, start_ns=seconds(1), end_ns=seconds(5))
        manager.schedule(fault, start_ns=seconds(3), end_ns=seconds(8))
        c.sim.run_for(seconds(2))
        assert not rnic.operational and fault.open_windows == 1
        c.sim.run_for(seconds(2))   # t=4: both windows open
        assert not rnic.operational and fault.open_windows == 2
        c.sim.run_for(seconds(2))   # t=6: first closed, second still open
        assert not rnic.operational and fault.open_windows == 1
        c.sim.run_for(seconds(3))   # t=9: all closed
        assert rnic.operational and fault.open_windows == 0

    def test_adjacent_windows_same_timestamp(self, tiny_clos):
        """[1s,3s) then [3s,5s): release and acquire collide at t=3.

        Whatever order the engine pops the two t=3 events, the fault must
        be active throughout — a release while the second window's
        acquire is pending drops the count to zero momentarily only in
        one ordering, and refcounting makes both orderings re-inject.
        """
        c = tiny_clos
        manager = FaultManager(c)
        rnic = c.rnic("host0-rnic0")
        fault = _rnic_fault(c)
        manager.schedule(fault, start_ns=seconds(1), end_ns=seconds(3))
        manager.schedule(fault, start_ns=seconds(3), end_ns=seconds(5))
        c.sim.run_for(seconds(4))   # t=4: inside the second window
        assert not rnic.operational
        c.sim.run_for(seconds(2))   # t=6: past both
        assert rnic.operational

    def test_adjacent_windows_scheduled_in_reverse(self, tiny_clos):
        """Same shape, windows registered later-first."""
        c = tiny_clos
        manager = FaultManager(c)
        rnic = c.rnic("host0-rnic0")
        fault = _rnic_fault(c)
        manager.schedule(fault, start_ns=seconds(3), end_ns=seconds(5))
        manager.schedule(fault, start_ns=seconds(1), end_ns=seconds(3))
        c.sim.run_for(seconds(4))
        assert not rnic.operational
        c.sim.run_for(seconds(2))
        assert rnic.operational

    def test_clear_before_inject_is_noop(self, tiny_clos):
        """release() with no open window must not clear or go negative."""
        c = tiny_clos
        rnic = c.rnic("host0-rnic0")
        fault = _rnic_fault(c)
        fault.release()
        assert rnic.operational and fault.open_windows == 0
        fault.acquire()
        assert not rnic.operational and fault.open_windows == 1
        fault.release()
        assert rnic.operational and fault.open_windows == 0

    def test_double_acquire_injects_once(self, tiny_clos):
        """Nested acquires stack; inject/clear fire once per envelope."""
        c = tiny_clos
        link = c.topology.link("pod0-tor0", "pod0-agg0")
        fault = LinkCorruption(c, "pod0-tor0", "pod0-agg0", drop_prob=0.5)
        fault.acquire()
        fault.acquire()
        assert link.corruption_drop_prob == pytest.approx(0.5)
        fault.release()
        assert link.corruption_drop_prob == pytest.approx(0.5)
        fault.release()
        assert link.corruption_drop_prob == 0.0

    def test_registered_once_across_windows(self, tiny_clos):
        c = tiny_clos
        manager = FaultManager(c)
        fault = _rnic_fault(c)
        manager.schedule(fault, start_ns=seconds(1), end_ns=seconds(2))
        manager.schedule(fault, start_ns=seconds(4), end_ns=seconds(5))
        assert sum(1 for f in manager.faults if f is fault) == 1

    def test_open_ended_window(self, tiny_clos):
        c = tiny_clos
        manager = FaultManager(c)
        rnic = c.rnic("host0-rnic0")
        manager.schedule(_rnic_fault(c), start_ns=seconds(1))
        c.sim.run_for(seconds(30))
        assert not rnic.operational

    def test_empty_window_rejected(self, tiny_clos):
        c = tiny_clos
        manager = FaultManager(c)
        with pytest.raises(ValueError):
            manager.schedule(_rnic_fault(c), start_ns=seconds(2),
                             end_ns=seconds(2))

    def test_inject_now(self, tiny_clos):
        c = tiny_clos
        manager = FaultManager(c)
        rnic = c.rnic("host0-rnic0")
        fault = manager.inject_now(_rnic_fault(c))
        assert not rnic.operational
        assert any(f is fault for f in manager.faults)
        manager.clear_all()
        assert rnic.operational


class TestCampaignIdentity:
    """Events naming one ``(kind, loci, params)`` are one refcounted fault
    — across ``schedule_campaign`` calls too, since the manager owns the
    identity table.  Two instances would each zero the link on their own
    clear, under the other's open window."""

    def test_same_identity_across_calls_shares_one_fault(self, tiny_clos):
        c = tiny_clos
        manager = FaultManager(c)
        link = c.topology.link("pod0-tor0", "pod0-agg0")
        first = FaultEvent.make("link_corruption", "pod0-tor0", "pod0-agg0",
                                start_s=0, end_s=5, drop_prob=0.5)
        second = FaultEvent.make("link_corruption", "pod0-tor0", "pod0-agg0",
                                 start_s=2, end_s=20, drop_prob=0.5)
        [(fault, _)] = schedule_campaign(manager, c, (first,))
        [(again, span)] = schedule_campaign(manager, c, (second,))
        assert again is fault and manager.faults == [fault]
        assert span == fault.span == (0, seconds(20))
        c.sim.run_until(seconds(6))     # first window closed, second open
        assert link.corruption_drop_prob == pytest.approx(0.5)
        assert fault.ground_truth.active and fault.open_windows == 1
        c.sim.run_until(seconds(19))
        assert link.corruption_drop_prob == pytest.approx(0.5)
        c.sim.run_until(seconds(21))
        assert link.corruption_drop_prob == 0.0
        assert not fault.ground_truth.active and fault.open_windows == 0

    def test_different_params_are_different_faults(self, tiny_clos):
        manager = FaultManager(tiny_clos)
        events = [FaultEvent.make("link_corruption", "pod0-tor0",
                                  "pod0-agg0", start_s=1, drop_prob=p)
                  for p in (0.2, 0.4)]
        scheduled = schedule_campaign(manager, tiny_clos, events)
        assert len(scheduled) == len(manager.faults) == 2

    def test_open_ended_window_leaves_the_span_open(self, tiny_clos):
        manager = FaultManager(tiny_clos)
        events = (FaultEvent.make("rnic_down", "host0-rnic0",
                                  start_s=3, end_s=9),
                  FaultEvent.make("rnic_down", "host0-rnic0", start_s=1))
        [(_, span)] = schedule_campaign(manager, tiny_clos, events)
        assert span == (seconds(1), None)


# -- writers that overlap on one device setting ------------------------------

def _table2_dml(row):
    """Table 2's service: the All2All job over six RNICs of a SMALL fabric
    (no monitor: the device settings are all these tests read)."""
    cluster = Cluster.clos(SMALL, seed=16 + row)
    rnics = cluster.rnic_names()[:6]
    DmlJob(cluster, rnics,
           DmlConfig(pattern=CommPattern.ALL2ALL,
                     compute_time_ns=300 * MILLISECOND,
                     data_gbits_per_cycle=3.0)).start()
    cluster.sim.run_for(seconds(3))
    return cluster, rnics


def _sample(cluster, every_ns, count, read):
    samples = []
    for _ in range(count):
        cluster.sim.run_for(every_ns)
        samples.append(read())
    return samples


class TestOverlappingWriters:
    def test_cpu_overload_under_the_table2_dml_job(self):
        """Row 12: the job's phase loads (0.45 / 0.30) used to overwrite
        the fault's 0.85 within one phase."""
        cluster, rnics = _table2_dml(12)
        host = cluster.host_of_rnic(rnics[1])
        CpuOverload(cluster, host.name, load=0.85).inject()
        loads = _sample(cluster, 250 * MILLISECOND, 200,
                        lambda: host.cpu.load)
        assert set(loads) == {0.85}

    def test_link_overload_under_the_table2_dml_job(self):
        """Row 10: every traffic apply used to zero the link first."""
        cluster, _ = _table2_dml(10)
        link = cluster.topology.link("pod0-tor0", "pod0-agg0")
        LinkOverload(cluster, "pod0-tor0", "pod0-agg0",
                     extra_gbps=500.0).inject()
        loads = _sample(cluster, 50 * MILLISECOND, 200,
                        lambda: link.offered_load_gbps)
        assert min(loads) >= 500.0
        assert max(loads) > 500.0       # the job's gradients ride on top

    def test_pcie_downgrade_and_acs_misconfig_on_one_rnic(self, tiny_clos):
        c = tiny_clos
        rnic = c.rnic("host0-rnic0")
        downlink = c.topology.link(c.tor_of("host0-rnic0"), "host0-rnic0")
        pcie = PcieDowngrade(c, "host0-rnic0")
        acs = RnicAcsMisconfig(c, "host0-rnic0")
        pcie.inject()
        acs.inject()
        assert rnic.pcie_gbps == 32.0
        assert downlink.pause_delay_ns == 600_000
        pcie.clear()
        assert rnic.pcie_gbps == 32.0
        assert downlink.pause_delay_ns == 300_000
        acs.clear()
        assert rnic.pcie_gbps == 512.0
        assert downlink.pause_delay_ns == 0

    def test_two_cpu_overloads_on_one_host(self, tiny_clos):
        cpu = tiny_clos.hosts["host0"].cpu
        first = CpuOverload(tiny_clos, "host0", load=0.96)
        second = CpuOverload(tiny_clos, "host0", load=0.97)
        first.inject()
        second.inject()
        first.clear()
        assert cpu.load == 0.97
        second.clear()
        assert cpu.load == 0.10

    def test_link_failure_and_flapping_on_one_cable(self, tiny_clos):
        c = tiny_clos
        pair = c.topology.link_pair("pod0-tor0", "pod0-agg0")
        failure = LinkFailure(c, "pod0-tor0", "pod0-agg0")
        flap = SwitchPortFlapping(c, "pod0-tor0", "pod0-agg0",
                                  period_ns=100 * MILLISECOND)
        failure.inject()
        flap.inject()
        assert not any(_sample(c, 30 * MILLISECOND, 20, lambda: pair.up))
        flap.clear()
        assert not pair.up
        failure.clear()
        assert pair.up and not pair.routed_around

    def test_pfc_engine_on_top_of_a_pcie_downgrade(self, small_clos):
        """The engine used to zero the fault's static pause each tick, and
        on stop() with the fault still active."""
        c = small_clos
        downlink = c.topology.link(c.tor_of("host0-rnic0"), "host0-rnic0")
        PcieDowngrade(c, "host0-rnic0").inject()
        victim = c.rnic("host0-rnic0")
        TrafficEngine(c).apply([
            Flow(five_tuple=roce_five_tuple(c.rnic(src).ip, victim.ip,
                                            9000 + i),
                 src_port_node=src, demand_gbps=80.0)
            for i, src in enumerate(c.rnic_names()[1:6])])
        engine = PfcPropagationEngine(c)
        engine.evaluate()
        first = downlink.pause_delay_ns
        engine.evaluate()
        assert downlink.pause_delay_ns == first > 300_000
        engine.stop()
        assert downlink.pause_delay_ns == 300_000

    def test_deisolate_leaves_a_converged_link_failure_routed_around(
            self, tiny_clos):
        c = tiny_clos
        pair = c.topology.link_pair("pod0-tor0", "pod0-agg0")
        LinkFailure(c, "pod0-tor0", "pod0-agg0").inject()
        c.sim.run_for(ROUTING_CONVERGENCE_NS + 1)
        Remediator(c).deisolate("pod0-tor0->pod0-agg0")
        assert not pair.up and pair.routed_around

    def test_cpu_overload_holds_at_every_dml_phase_boundary(self):
        cluster = Cluster.clos(SMALL, seed=3)
        host = cluster.hosts["host0"]
        loads = []

        class PhaseProbe(DmlJob):
            def _set_participant_load(self, load):
                super()._set_participant_load(load)
                loads.append(host.cpu.load)

        job = PhaseProbe(cluster, cluster.rnic_names()[:4])
        job.start()
        cluster.sim.run_for(seconds(2))
        CpuOverload(cluster, "host0", load=0.85).inject()
        del loads[:]
        cluster.sim.run_for(seconds(20))
        assert len(loads) >= 4 and set(loads) == {0.85}


# -- the Holds table's algebra -----------------------------------------------

class _PortIs:
    """A silent-drop predicate: source port is ``rem`` mod 4."""

    def __init__(self, rem):
        self.rem = rem

    def __call__(self, five_tuple):
        return five_tuple.src_port % 4 == self.rem


_PROBES = [roce_five_tuple("10.0.0.1", "10.0.0.2", port)
           for port in range(1024, 1032)]


def _any_of(operands):
    held = [p for p in operands if p is not None]
    return (lambda ft: any(p(ft) for p in held)) if held else None


def _verdicts(predicate):
    """What a predicate decides on a few probe 5-tuples."""
    return None if predicate is None else tuple(map(predicate, _PROBES))


def _same(value):
    return value


def _link(c):
    return c.topology.link("pod0-tor0", "pod0-agg0")


def _rnic(c):
    return c.rnic("host0-rnic0")


# rule kind: (device, setting, value strategy, reference combination of
# [base, *held values]).  Predicates are compared by what they decide.
RULE_KINDS = {
    "and": (_rnic, "admin_up", st.booleans(), all),
    "or": (_link, "pfc_deadlocked", st.booleans(), any),
    "max": (lambda c: c.hosts["host0"], "cpu_load",
            st.integers(0, 99).map(lambda i: i / 100), max),
    "min": (_rnic, "pcie_gbps", st.integers(1, 1024).map(float), min),
    "sum": (_link, "offered_load_gbps",
            st.integers(0, 8000).map(lambda i: i / 10), math.fsum),
    "int_sum": (_link, "pause_delay_ns", st.integers(0, 10 ** 6), sum),
    "predicate_or": (_link, "silent_drop_predicate",
                     st.integers(0, 3).map(_PortIs), _any_of),
}


def _read(device, setting):
    return (device.cpu.load if setting == "cpu_load"
            else getattr(device, setting))


@pytest.mark.parametrize("kind", sorted(RULE_KINDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_holds_combine_commutatively(kind, data):
    """Three owners hold and release at random: while any holds, the device
    reads the combination; once all have left, its base; and the value
    does not depend on the order the holds were taken in."""
    get, setting, values, combine = RULE_KINDS[kind]
    view = _verdicts if setting == "silent_drop_predicate" else _same
    steps = data.draw(st.lists(
        st.tuples(st.integers(0, 2), st.none() | values), max_size=12))

    cluster = Cluster.clos(TINY, seed=0)
    device, holds = get(cluster), cluster.holds
    base = _read(device, setting)
    owners = [holds.owner(f"writer{i}") for i in range(3)]
    held = {}
    for who, value in steps:
        if value is None:
            holds.release(owners[who])
            held.pop(who, None)
        else:
            holds.hold(owners[who], device, setting, value)
            held[who] = value
        assert view(_read(device, setting)) == view(
            combine([base, *held.values()]))

    twin = Cluster.clos(TINY, seed=0)
    twin_device = get(twin)
    for who, value in data.draw(st.permutations(sorted(held.items()))):
        twin.holds.hold(owners[who], twin_device, setting, value)
    assert view(_read(twin_device, setting)) == view(
        _read(device, setting))

    for owner in owners:
        holds.release(owner)
    assert view(_read(device, setting)) == view(base)
