"""Regression tests: FaultManager window scheduling must be idempotent.

Overlapping activation windows on the same locus, adjacent windows whose
boundary events land on the same timestamp, and a clear that races ahead
of its inject are all legal campaign shapes — the fleet's
``schedule_campaign`` produces them routinely.  The refcounted
``Fault.acquire``/``release`` pair keeps the fault active exactly while
at least one window is open, regardless of event order.
"""

import pytest

from repro.fleet.spec import FaultEvent, schedule_campaign
from repro.net.faults import FaultManager, LinkCorruption, RnicDown
from repro.sim.units import seconds


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
