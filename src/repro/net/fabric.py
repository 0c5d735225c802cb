"""Packet forwarding over the topology.

The :class:`Fabric` moves every packet with **one lookahead walker**
(DESIGN.md §10).  A packet is injected at a source host port; at each node
the next hop is the ECMP choice for the packet's outer 5-tuple.  A hop that
can drop, pause or queue the packet is evaluated by an event at the packet's
true arrival time, applying in order:

1. physical link state (down -> drop, unless routing already converged
   around the link, in which case ECMP never offered it),
2. PFC deadlock (traffic through a deadlocked link is blocked; from the
   endpoint's perspective that is a drop),
3. random corruption drops (damaged fiber / dusty optics, fault #2),
4. silent per-5-tuple drops (the "certain 5-tuples" problem §4.1),
5. lossy-queue overflow (PFC unconfigured / bad headroom, fault #9),
6. ingress ACL at the downstream switch (fault #8),

so drops happen at the right link (which is what Algorithm 1's voting
localises), queue delays are sampled at traversal time, and TTL semantics
work.  A *quiet* hop (:attr:`DirectedLink.quiet`: no rule can lose the
packet and the fluid queue cannot move — idle, or loaded with a standing
queue) can do none of that: its delay is a constant, so the walker adds
consecutive quiet hops up and schedules a single event at the first hop that
is not quiet — or at the destination.  Before any write changes what a quiet
link tells a packet, and on any route change, the take-back ledger
(:mod:`repro.sim.ledger`) runs :meth:`Fabric._demote_in_flight`, so a write
landing mid-flight is seen at exactly the hop a per-hop walk would see it.

Delivery invokes the receiver registered for the destination host port —
normally the RNIC model, which applies its own (host-side) fault logic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional

from repro.net.ecmp import pick_next_hop
from repro.net.packet import TC_ROCE, Packet, PacketPool
from repro.net.topology import (SWITCH_FORWARD_LATENCY_NS, DirectedLink,
                                Topology)
from repro.sim.engine import SimulationError, Simulator
from repro.sim.ledger import hooked
from repro.sim.rng import RngStream

# A plan longer than this is a routing loop; the walker re-plans at its end
# and the packet's TTL ends the loop.
MAX_PLANNED_HOPS = 64


class DropReason(Enum):
    """Why the fabric dropped a packet."""

    LINK_DOWN = "link_down"
    PFC_DEADLOCK = "pfc_deadlock"
    CORRUPTION = "corruption"
    SILENT_DROP = "silent_drop"
    QUEUE_OVERFLOW = "queue_overflow"
    ACL_DENY = "acl_deny"
    NO_ROUTE = "no_route"
    TTL_EXPIRED = "ttl_expired"


@dataclass(slots=True)
class DropRecord:
    """One dropped packet: when, where, why."""

    time_ns: int
    packet: Packet
    reason: DropReason
    link: Optional[str]      # "src->dst" of the offending directed link
    node: Optional[str]      # node at which the drop was decided


class DeliveryRecord(NamedTuple):
    """Bookkeeping attached to a delivered packet (the fabric builds one
    per delivery with ``tuple.__new__``, which runs no Python code)."""

    time_ns: int
    path: tuple[str, ...]    # node names traversed, inclusive of endpoints


class _CachedPath:
    """A planned route; complete ECMP plans are shared per flow.

    ``quiet_*`` remember the last walk over it on which every hop was
    quiet: for ``quiet_size``-byte RoCE packets the hops add up to
    ``quiet_ns`` and cost ``quiet_ttl``.  That holds while
    ``Fabric.quiet_epoch`` is still ``quiet_epoch``: no write a quiet link
    would tell a packet about has landed since (an exchange's legs read it).
    """

    __slots__ = ("nodes", "hops", "ways", "route_epoch", "quiet_epoch",
                 "quiet_size", "quiet_ns", "quiet_ttl")

    def __init__(self, nodes: tuple[str, ...],
                 hops: tuple[DirectedLink, ...], ways: tuple[int, ...],
                 route_epoch: int):
        self.nodes = nodes           # node names, first to last planned
        self.hops = hops             # hops[i] links nodes[i] -> nodes[i+1]
        self.ways = ways             # ECMP fan-out at each hop
        self.route_epoch = route_epoch
        self.quiet_epoch = -1
        self.quiet_size = self.quiet_ns = self.quiet_ttl = 0


class _Transit:
    """One packet's walk, and the walker: the engine runs the transit itself
    at the packet's next arrival.  The walk owns it: built with ``__new__``
    and slot writes by :meth:`Fabric.inject` (or by a demotion, for the rest
    of a walk), it dies with the walk.

    ``idx`` is the node the pending event finds the packet at.  Hops
    ``look_idx .. idx-1`` were added up ahead of the clock, the first of
    them entered at ``look_ns``; they are what a demotion can take back.
    ``packet`` is None once a demotion has superseded the transit.
    """

    __slots__ = ("fabric", "packet", "path", "idx", "dst", "is_roce",
                 "look_idx", "look_ns")

    def __call__(self, start_ns: Optional[int] = None) -> None:
        """Advance the packet from the node it stands at, at ``sim.now``
        (fresh from :meth:`Fabric.inject`: from ``start_ns`` on).

        Quiet hops are added up without an event of their own; the first
        hop that is not quiet is evaluated here if the packet stands at it
        now, otherwise by the event this schedules for its arrival time.  A
        packet that stands at its destination now is delivered here.
        """
        fabric = self.fabric
        packet = self.packet
        if packet is None:
            return      # superseded by _demote_in_flight
        now = fabric.sim.now
        path = self.path
        idx = self.idx
        if (start_ns is None and idx == len(path.hops)
                and path.nodes[idx] == self.dst):
            # The usual event: every hop on the way here was added up.  (A
            # re-plan from the destination could only plan it again.)
            fabric._deliver(packet, path.nodes, now)
            return
        if path.route_epoch != fabric.topology.route_epoch:
            path = fabric._replan(self, path, idx)
        hops = path.hops
        n_hops = len(hops)
        size = packet.size_bytes
        is_roce = self.is_roce
        collector = fabric._int_collector
        # TTL cannot expire inside a plan shorter than it.
        look = fabric._tracer is None and packet.ttl > n_hops - idx
        look_idx = idx
        look_ns = t = now if start_ns is None else start_ns
        while True:
            if idx == n_hops:
                if t != now:
                    break
                if path.nodes[idx] == self.dst:
                    fabric._deliver(packet, path.nodes, now)
                    return
                path = fabric._replan(self, path, idx)
                hops = path.hops
                n_hops = len(hops)
                if idx == n_hops:
                    del fabric._in_flight[packet.packet_id]
                    fabric._drop(packet, DropReason.NO_ROUTE, link=None,
                                 node=path.nodes[idx])
                    return
                look = fabric._tracer is None and packet.ttl > n_hops - idx
                continue
            link = hops[idx]
            if look and link.quiet:
                if collector is not None:
                    collector.stamp(packet, link, t)
                if link.dst_acl is not None:
                    packet.ttl -= 1
                t += (link.quiet_delays[size] if is_roce
                      else _quiet_hop_ns(link, size, False))
                link.packets_forwarded += 1
                idx += 1
            elif t == now:
                delay = fabric._evaluate_hop(self, path, idx, link)
                if delay is None:
                    return
                idx += 1
                look_idx = idx
                look_ns = t = now + delay
            else:
                break
        self.idx = idx
        self.look_idx = look_idx
        self.look_ns = look_ns
        fabric.sim.schedule(t - now, self)


_new_transit = _Transit.__new__


def _quiet_hop_ns(link: DirectedLink, size_bytes: int, is_roce: bool) -> int:
    """What a quiet hop costs: a constant of the link, size and class."""
    if is_roce:
        return link.quiet_delays[size_bytes]
    delay = link.base_delays[size_bytes]
    if link.dst_acl is not None:
        delay += SWITCH_FORWARD_LATENCY_NS
    return delay


class Fabric:
    """Forwards packets over a :class:`Topology` inside a simulation."""

    def __init__(self, sim: Simulator, topology: Topology, rng: RngStream):
        self.sim = sim
        self.topology = topology
        self.rng = rng
        # InfiniBand-style Adaptive Routing (paper §7.5): every packet may
        # take any parallel path, independent of its 5-tuple.  Probing
        # still detects problems, but traced paths stop matching the
        # packets that died — the stated localisation limitation.
        self._adaptive_routing = False
        # Builds the RoCE packets RNICs send.
        self.packet_pool = PacketPool()
        # Complete plans per 5-tuple, valid for one Topology.route_epoch.
        self._path_cache: dict = {}
        self._path_cache_epoch = -1
        # packet_id -> the transit whose event is pending.  Insertion
        # ordered, so a demotion reschedules packets in a replayable order.
        self._in_flight: dict[int, _Transit] = {}
        # Packets whose lookahead a mid-flight write took back, and hops
        # not quiet when their packet got there: the rule chain ran.
        self.walker_demotions = 0
        self.hops_evaluated = 0
        # Moves with every take-back, i.e. before any write to what a quiet
        # link tells a packet: what a plan's quiet walk added up holds while
        # this has not moved (_CachedPath.quiet_*).
        self.quiet_epoch = 0
        self._receivers: dict[str, Callable[[Packet, DeliveryRecord], None]] = {}
        self._ip_to_port: dict[str, str] = {}
        self._drop_listeners: list[Callable[[DropRecord], None]] = []
        self.drops: list[DropRecord] = []
        self.max_drop_log = 100_000
        self.packets_delivered = 0
        self._packets_injected = 0
        # Incremental per-reason totals; unlike the bounded drop log these
        # never saturate, which is what the metrics registry exports.
        self.drop_counts: dict[str, int] = {}
        # Probe-lifecycle tracer (repro.obs), installed by
        # Observability.install when tracing is on.  While one is installed
        # every hop is evaluated by its own event, so ``fabric.hop`` events
        # carry true arrival times.
        self._tracer = None
        # In-band telemetry collector (repro.diagnosis.inband), installed
        # by IntCollector.install when the "int" backend is deployed.
        # Unlike the tracer, stamping does not end lookahead: a quiet
        # hop's stamp is as constant as its delay.
        self._int_collector = None
        # Per-fabric packet id source: ids restart at 1 for every cluster
        # so same-process replays see identical ids.
        self._packet_ids = itertools.count(1)
        topology.ledger = sim.ledger        # the walker plans over it
        sim.ledger.register(topology, self._demote_in_flight)

    def _walks(self) -> tuple:
        return ((self.sim.ledger, self.topology),)

    def _replan_all(self) -> None:
        # A route change: each packet is re-planned under the new mode from
        # where it stands, at its next event.
        self.topology._routes_changed()

    adaptive_routing = hooked(
        "_adaptive_routing", _walks, _replan_all, every_write=True,
        doc="Whether per-packet adaptive routing replaces ECMP (§7.5).")
    tracer = hooked("_tracer", _walks, None, every_write=True,
                    doc="The installed probe-lifecycle tracer, or None.")
    int_collector = hooked(
        "_int_collector", _walks, None, every_write=True,
        doc="The installed in-band telemetry collector, or None.")

    # -- wiring ------------------------------------------------------------

    def register_ip(self, ip: str, host_port: str) -> None:
        """Bind an IP address to a host port vertex."""
        if host_port not in self.topology.nodes:
            raise KeyError(f"unknown host port: {host_port}")
        self._ip_to_port[ip] = host_port

    def attach_receiver(
            self, host_port: str,
            receiver: Callable[[Packet, DeliveryRecord], None]) -> None:
        """Register the packet sink for a host port (usually an RNIC)."""
        if host_port not in self.topology.nodes:
            raise KeyError(f"unknown host port: {host_port}")
        self._receivers[host_port] = receiver

    def add_drop_listener(
            self, listener: Callable[[DropRecord], None]) -> None:
        """Subscribe to drop events (used by tests and fault assertions)."""
        self._drop_listeners.append(listener)

    def port_for_ip(self, ip: str) -> Optional[str]:
        """Host port bound to ``ip``, if any."""
        return self._ip_to_port.get(ip)

    # -- sending -----------------------------------------------------------

    def inject(self, packet: Packet, src_port: str,
               at_ns: Optional[int] = None) -> None:
        """Send ``packet`` into the fabric from ``src_port``, now or at a
        later ``at_ns`` (the sender's TX pipeline as one more quiet hop in
        front of the plan; :meth:`withdraw` takes it back until then)."""
        now = self.sim.now
        if at_ns is None:
            at_ns = now
        elif at_ns < now:
            raise SimulationError(
                f"cannot inject in the past: {at_ns} < now {now}")
        self._packets_injected += 1
        packet.packet_id = next(self._packet_ids)
        packet.sent_at_ns = at_ns
        dst_port = self._ip_to_port.get(packet.five_tuple.dst_ip)
        if dst_port is None or (at_ns != now and self._adaptive_routing):
            # No route to plan, or one drawn hop by hop when it stands there.
            path = _CachedPath((src_port,), (), (), self.topology.route_epoch)
        else:
            path = self._plan(packet.five_tuple, src_port, dst_port)
        transit = _new_transit(_Transit)
        transit.fabric = self
        transit.packet = packet
        transit.path = path
        transit.dst = dst_port
        transit.is_roce = packet.traffic_class == TC_ROCE
        transit.idx = transit.look_idx = transit.look_ns = 0
        self._in_flight[packet.packet_id] = transit
        transit(at_ns)

    def withdraw(self, packet: Packet) -> bool:
        """Un-send a packet injected for an instant not before now: its
        looked-ahead hops are given back, its pending event finds a
        tombstone.  False if its walk was evaluated already, or is over."""
        transit = self._in_flight.get(packet.packet_id)
        if (transit is None or transit.look_idx
                or packet.sent_at_ns < self.sim.now):
            return False
        self._give_back(transit, 0)
        del self._in_flight[packet.packet_id]
        transit.packet = None
        self._packets_injected -= 1
        return True

    @property
    def packets_injected(self) -> int:
        """Packets sent by ``sim.now`` (not yet: those injected for later)."""
        now = self.sim.now
        return self._packets_injected - sum(
            1 for transit in self._in_flight.values()
            if transit.packet.sent_at_ns > now)

    @property
    def packets_in_flight(self) -> int:
        """Packets injected and neither delivered nor dropped yet."""
        return len(self._in_flight)

    # -- route planning ------------------------------------------------------

    def _plan(self, five_tuple, node: str, dst_port: str) -> _CachedPath:
        """The route from ``node`` toward ``dst_port`` under today's tables.

        Complete ECMP plans are cached per flow for one ``route_epoch``.  A
        plan may stop short — no candidates, or a loop — and the walker
        re-plans (or drops NO_ROUTE) where it ends.  Under adaptive routing
        a plan is one randomly drawn hop, so the draw for every hop happens
        when the packet stands there.
        """
        topology = self.topology
        epoch = topology.route_epoch
        cache = self._path_cache
        if self._path_cache_epoch != epoch:
            cache.clear()
            self._path_cache_epoch = epoch
        adaptive = self._adaptive_routing
        if dst_port is None:
            # An address nobody registered: NO_ROUTE where the packet stands.
            return _CachedPath((node,), (), (), epoch)
        if not adaptive:
            cached = cache.get(five_tuple)
            if (cached is not None and cached.nodes[0] == node
                    and cached.nodes[-1] == dst_port):
                return cached
        nodes = [node]
        hops = []
        ways = []
        while node != dst_port and len(hops) < MAX_PLANNED_HOPS:
            candidates = topology.next_hops(node, dst_port)
            if not candidates:
                break
            if adaptive and len(candidates) > 1:
                node = self.rng.choice(candidates)
            else:
                node = pick_next_hop(five_tuple, node, candidates)
            hops.append(topology.links[(nodes[-1], node)])
            ways.append(len(candidates))
            nodes.append(node)
            if adaptive:
                break
        plan = _CachedPath(tuple(nodes), tuple(hops), tuple(ways), epoch)
        if node == dst_port and not adaptive:
            if len(cache) >= 65536:
                cache.clear()
            cache[five_tuple] = plan
        return plan

    def _replan(self, transit: _Transit, path: _CachedPath,
                idx: int) -> _CachedPath:
        """Re-route from the node the packet stands at, keeping its trail."""
        rest = self._plan(transit.packet.five_tuple, path.nodes[idx],
                          transit.dst)
        if idx:
            rest = _CachedPath(path.nodes[:idx] + rest.nodes,
                               path.hops[:idx] + rest.hops,
                               path.ways[:idx] + rest.ways, rest.route_epoch)
        transit.path = rest
        return rest

    # -- the walker's slow path ----------------------------------------------

    def _evaluate_hop(self, transit: _Transit, path: _CachedPath, idx: int,
                      link: DirectedLink) -> Optional[int]:
        """Apply every per-hop rule now; the hop's delay, or None if dropped."""
        packet = transit.packet
        now = self.sim.now
        is_roce = transit.is_roce
        acl = link.dst_acl
        self.hops_evaluated += 1
        reason = self._check_link(packet, link, now, is_roce)
        node = path.nodes[idx]
        if reason is None and acl is not None:
            node = path.nodes[idx + 1]
            if not acl.permits(packet.five_tuple):
                reason = DropReason.ACL_DENY
            else:
                packet.ttl -= 1
                if packet.ttl <= 0:
                    reason = DropReason.TTL_EXPIRED
        if reason is not None:
            del self._in_flight[packet.packet_id]
            self._drop(packet, reason, link=link.name, node=node)
            return None
        delay = link.traversal_delay_ns(now, packet.size_bytes,
                                        roce_queue=is_roce)
        if acl is not None:
            delay += SWITCH_FORWARD_LATENCY_NS
        link.packets_forwarded += 1
        if self._int_collector is not None:
            self._int_collector.stamp(packet, link, now)
        if self._tracer is not None:
            seq, leg = self._probe_leg(packet)
            if seq is not None:
                fields = {"leg": leg, "node": path.nodes[idx],
                          "next": path.nodes[idx + 1], "delay_ns": delay,
                          "ecmp_ways": path.ways[idx]}
                if link.pause_delay_ns:
                    fields["pfc_pause_ns"] = link.pause_delay_ns
                self._tracer.event(seq, now, "fabric.hop", **fields)
        return delay

    def _check_link(self, packet: Packet, link: DirectedLink,
                    now: int, is_roce: bool) -> Optional[DropReason]:
        """Apply the per-hop drop rules; return a reason or None.

        PFC deadlock and lossy-RoCE-queue overflow affect only the RoCE
        traffic class: a TCP probe sails through a PFC-deadlocked link,
        which is precisely why TCP Pingmesh cannot detect those problems
        (§2.4).  Physical faults (down links, corruption) hit both classes.
        """
        if not link.up:
            return DropReason.LINK_DOWN
        if is_roce and link.pfc_deadlocked:
            return DropReason.PFC_DEADLOCK
        if link.corruption_drop_prob > 0 and self.rng.chance(
                link.corruption_drop_prob):
            link.crc_errors += 1   # the counter operators would inspect
            return DropReason.CORRUPTION
        if (link.silent_drop_predicate is not None
                and link.silent_drop_predicate(packet.five_tuple)):
            return DropReason.SILENT_DROP
        if is_roce:
            overflow = link.congestion_drop_prob(now)
            if overflow > 0 and self.rng.chance(overflow):
                return DropReason.QUEUE_OVERFLOW
        return None

    # -- taking lookahead back -----------------------------------------------

    def _first_unreached(self, transit: _Transit,
                         now: int) -> tuple[int, int]:
        """(node index, arrival ns) of the first looked-ahead hop the
        packet enters at or after ``now``; ``transit.idx`` if none."""
        idx = transit.idx
        k = transit.look_idx
        t = transit.look_ns
        hops = transit.path.hops
        size = transit.packet.size_bytes
        is_roce = transit.is_roce
        while k < idx and t < now:
            t += _quiet_hop_ns(hops[k], size, is_roce)
            k += 1
        return k, t

    def _give_back(self, transit: _Transit, k: int) -> None:
        """Undo the looked-ahead hops ``k .. idx-1`` of one packet."""
        idx, packet = transit.idx, transit.packet
        for link in transit.path.hops[k:idx]:
            link.packets_forwarded -= 1
            if link.dst_acl is not None:
                packet.ttl += 1
        if idx > k and self._int_collector is not None:
            self._int_collector.unstamp(packet, idx - k)

    def _demote_in_flight(self) -> None:
        """Take back every lookahead decision not reached yet.

        The walker's take-back, filed with the ledger under the topology:
        it runs *before* a write (``repro.sim.ledger``), as entry times are
        recomputed here from link constants the plan was made with.  Each
        in-flight packet is put back at the first looked-ahead node it has
        not entered, with an event at its arrival time there, so the hop is
        evaluated under the written state exactly as a per-hop walk would
        (the ledger's tie rule: a hop entered at the write's nanosecond is
        taken back).  O(1) when nothing is in flight.
        """
        self.quiet_epoch += 1
        if not self._in_flight:
            return
        now = self.sim.now
        for transit in list(self._in_flight.values()):
            idx = transit.idx
            k, t = self._first_unreached(transit, now)
            if k == idx:
                # All entered: nothing to take back, now or later, and
                # nothing to re-time from constants about to change.
                transit.look_idx = idx
                continue
            packet = transit.packet
            self._give_back(transit, k)
            # The pending event cannot be cancelled (schedule() keeps no
            # handle): leave its transit behind as a tombstone and carry on
            # with a fresh one.
            successor = _new_transit(_Transit)
            successor.fabric = self
            successor.packet = packet
            successor.path = transit.path
            successor.dst = transit.dst
            successor.is_roce = transit.is_roce
            successor.idx = successor.look_idx = k
            successor.look_ns = t
            transit.packet = None
            self._in_flight[packet.packet_id] = successor
            self.sim.schedule(t - now, successor)
            self.walker_demotions += 1

    def forwarded_by_link(self) -> dict[str, int]:
        """Packets that have entered each directed link by ``sim.now``.

        ``DirectedLink.packets_forwarded`` runs ahead of the clock by the
        hops in-flight packets have looked ahead over; this takes those
        back out, so the answer does not depend on when it is asked.
        """
        counts = {link.name: link.packets_forwarded
                  for link in self.topology.links.values()
                  if link.packets_forwarded}
        now = self.sim.now
        for transit in self._in_flight.values():
            k, _ = self._first_unreached(transit, now + 1)
            for link in transit.path.hops[k:transit.idx]:
                counts[link.name] -= 1
        return {name: count for name, count in counts.items() if count}

    # -- endings -------------------------------------------------------------

    def _deliver(self, packet: Packet, nodes: tuple[str, ...],
                 now: int) -> None:
        """The walk is over, then the packet is handed to its receiver."""
        del self._in_flight[packet.packet_id]
        self.packets_delivered += 1
        if self._int_collector is not None:
            self._int_collector.collect(packet, now)
        if self._tracer is not None:
            seq, leg = self._probe_leg(packet)
            if seq is not None:
                self._tracer.event(seq, now, "fabric.deliver", leg=leg,
                                   dst=nodes[-1], hops=len(nodes) - 1)
        receiver = self._receivers.get(nodes[-1])
        if receiver is not None:
            receiver(packet, tuple.__new__(DeliveryRecord, (now, nodes)))

    def _drop(self, packet: Packet, reason: DropReason, *,
              link: Optional[str], node: Optional[str]) -> None:
        record = DropRecord(self.sim.now, packet, reason, link, node)
        self.drop_counts[reason.value] = \
            self.drop_counts.get(reason.value, 0) + 1
        if len(self.drops) < self.max_drop_log:
            self.drops.append(record)
        if self._tracer is not None:
            seq, leg = self._probe_leg(packet)
            if seq is not None:
                self._tracer.event(seq, self.sim.now, "fabric.drop", leg=leg,
                                   reason=reason.value, link=link, node=node)
        for listener in self._drop_listeners:
            listener(record)

    @staticmethod
    def _probe_leg(packet: Packet) -> tuple[Optional[int], Optional[str]]:
        """(probe_seq, leg) of a probe-exchange packet, (None, None) else."""
        leg = packet.payload.get("t")
        if leg in ("probe", "ack1", "ack2"):
            return packet.payload.get("seq"), leg
        return None, None

    # -- path computation (control plane) -----------------------------------

    def path_of(self, five_tuple, src_port: str,
                dst_port: Optional[str] = None,
                *, respect_down: bool = False) -> list[str]:
        """The node sequence the flow's packets take right now.

        This mirrors the per-switch ECMP choices of the data path; it is
        used by the traffic layer to map fluid flows onto links and by the
        traceroute service.  With ``respect_down`` the walk stops at a down
        link (what a real traceroute would observe).
        """
        if dst_port is None:
            dst_port = self._ip_to_port.get(five_tuple.dst_ip)
            if dst_port is None:
                raise KeyError(f"no host port for {five_tuple.dst_ip}")
        path = [src_port]
        node = src_port
        guard = 0
        while node != dst_port:
            guard += 1
            if guard > 64:
                raise RuntimeError(f"routing loop toward {dst_port}")
            candidates = self.topology.next_hops(node, dst_port)
            if not candidates:
                break
            next_node = pick_next_hop(five_tuple, node, candidates)
            if respect_down and not self.topology.link(node, next_node).up:
                break
            path.append(next_node)
            node = next_node
        return path

    def links_of_path(self, path: list[str]) -> list[DirectedLink]:
        """Directed links along a node path."""
        return [self.topology.link(a, b) for a, b in zip(path, path[1:])]
