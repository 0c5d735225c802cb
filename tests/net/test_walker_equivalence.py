"""Differential test: the lookahead walker vs the per-hop walker it replaced.

``Fabric`` used to schedule one event per hop and apply every drop rule at
each (``_forward``).  The lookahead walker adds the delays of consecutive
*quiet* hops up and schedules one event where the run of quiet hops ends;
before a write changes what a quiet link tells a packet, the lookahead
in-flight packets have not reached is taken back (the write notifies the
take-back ledger, ``repro.sim.ledger``, which runs the walker's
``_demote_in_flight``).  Its contract is *exact*
equivalence, so this harness drives both with the same randomized, seeded
script — random Clos shapes, background loads, and fault / load / pause /
ACL / route writes timed to land mid-flight, a third of them at the very
nanosecond a packet enters a hop — and requires identical observable
results.  A quarter of the sends reach the lookahead walker early, through
``inject(..., at_ns)``, and some of those are withdrawn again and sent by an
event after all; the per-hop walker sends every one of them by an event at
its instant.  Compared:

* delivery time and ``DeliveryRecord.path`` of every packet;
* every ``DropRecord`` (time, reason, link, node);
* per-link ``packets_forwarded`` and ``crc_errors``, at the end and at
  cuts taken while packets are in flight;
* the fabric RNG stream's draw count and state;
* with an INT collector installed, every stamp it folded;

and the lookahead walker's results once more, with every packet it took in
accounted for — delivered, dropped or in flight — at every cut.

``_PerHopFabric`` below is a faithful port of the pre-lookahead walker.

Quiet means *steady*, not idle: a link fed at exactly line rate with a
standing queue, or overfed with a full one behind healthy PFC, costs a
constant too, and that constant is something writes change.  So besides the
sprayed writes every script aims a second batch at a link some packet has
looked ahead over **that is not the last hop of its plan** — later hops'
entry times hang on the constant being rewritten — ahead of the packet, at
its entry nanosecond, or just behind it: ``standing`` (exactly what
``TrafficEngine.apply`` does on a healthy-PFC link), ``saturate`` (1.5 x
rate: moving until the buffer has filled, steady after; a second wave of
sends crosses it then), steady -> steady rewrites (``repause`` A -> B,
``reload`` A -> B below rate, ``refill`` x -> y) and ``spill`` (a full
overfed queue loses PFC).  Over the 60 scripts packets look ahead over some
2,300 loaded, 1,300 paused, 1,900 standing-queue and 160 full-queue hops; 25
queues fill and 68 drain with the flag flipping inside ``advance_queue``.

Each before-write demotion has scripts that fail when it is deleted —
checked by hand, once, keeping the write and its ``_refresh_quiet()`` but
dropping the notice in front, over seeds 0-59: ``offered_load_gbps`` 21
seeds fail, ``queue_bytes`` 22, ``pause_delay_ns`` 26,
``corruption_drop_prob`` 1, ``silent_drop_predicate`` 1, ``pfc_headroom_ok``
6, ``pfc_deadlocked`` 1, ``LinkPair.up`` 5, ACL edits 3; the line that
forgets a packet's *entered* lookahead when a demotion finds nothing to take
back (its entry times would be recomputed from rewritten constants by the
next one) 2; none deleted, 0.  ``tests/sim/test_ledger.py`` checks in tier-1
that every hooked write still reaches the walker before it re-derives
anything, and reaches no other planner.

Tie rule (pinned by ``TestTieRule``): a write at the nanosecond a packet
enters a looked-ahead hop applies to that hop.  The per-hop walker ordered
such a tie by event sequence number, i.e. by which of the two was *queued*
first; every writer in the tree (fault windows, periodic engines, job
phases, control-plane handlers) queues far ahead of a hop event that
exists for under a microsecond, so write-first is what it did in practice.
The script therefore queues all writes before it injects anything.

One ordering is outside the contract: when two *packets* are evaluated at
the same nanosecond and both draw from the fabric RNG, which draws first
follows event sequence numbers, and the walkers queue their events at
different moments (per hop vs per run of quiet hops; a demotion re-queues).
About one random script in two thousand trips on that; the seeds below do
not.  A seed that fails only there is ambiguous, not wrong.

Not covered on purpose: poking ``link.queue_bytes`` directly, with no
``set_offered_load(now, ...)`` in front of it, on any *steady* link — idle
or loaded.  How such a backlog moves depends on when the queue was last
integrated; the per-hop walker advanced that clock on every traversal,
while a steady link's ``_queue_updated_ns`` is as old as the last write
(there is nothing to integrate, and lookahead must not integrate toward a
future instant).  ``TrafficEngine.apply``, the one writer outside tests,
always integrates first; tests that use the backdoor do so at time zero.
"""

import random
from functools import partial

import pytest

from repro.diagnosis.inband import IntCollector
from repro.net.addresses import FiveTuple, PROTO_TCP, roce_five_tuple
from repro.net.clos import ClosParams, build_clos
from repro.net.ecmp import pick_next_hop
from repro.net.fabric import (SWITCH_FORWARD_LATENCY_NS, DeliveryRecord,
                              DropReason, Fabric)
from repro.net.packet import TC_ROCE, RoCEPacket, TCPPacket
from repro.sim.engine import Simulator
from repro.sim.rng import RngStream

PROBE_BYTES = 108
# Writes to steady loaded links per script, and the second wave of sends.
STEADY_WRITES = 14
LATE_PACKETS = 30
LATE_NS = 700_000
# Past the last delivery of any script: a full 16 MB queue holds a packet
# for ~335 us, and a path has at most six hops.
HORIZON_NS = 4_000_000


class _PerHopFabric(Fabric):
    """The original walker: one event per hop, every rule at every hop."""

    def inject(self, packet, src_port, at_ns=None):
        assert at_ns is None or at_ns == self.sim.now
        self._packets_injected += 1
        packet.packet_id = next(self._packet_ids)
        packet.sent_at_ns = self.sim.now
        dst_port = self._ip_to_port.get(packet.five_tuple.dst_ip)
        if dst_port is None:
            self._drop(packet, DropReason.NO_ROUTE, link=None, node=src_port)
            return
        self._forward(packet, src_port, dst_port, [src_port])

    def _forward(self, packet, node, dst_port, path):
        if node == dst_port:
            self.packets_delivered += 1
            if self.int_collector is not None:
                self.int_collector.collect(packet, self.sim.now)
            receiver = self._receivers.get(path[-1])
            if receiver is not None:
                receiver(packet, DeliveryRecord(self.sim.now, tuple(path)))
            return
        candidates = self.topology.next_hops(node, dst_port)
        if not candidates:
            self._drop(packet, DropReason.NO_ROUTE, link=None, node=node)
            return
        if self.adaptive_routing and len(candidates) > 1:
            next_node = self.rng.choice(candidates)
        else:
            next_node = pick_next_hop(packet.five_tuple, node, candidates)
        link = self.topology.link(node, next_node)
        now = self.sim.now
        is_roce = packet.traffic_class == TC_ROCE

        reason = self._reference_check(packet, link, now, is_roce)
        if reason is not None:
            self._drop(packet, reason, link=link.name, node=node)
            return
        next_is_switch = self.topology.nodes[next_node].is_switch
        if next_is_switch:
            if not self.topology.nodes[next_node].acl.permits(
                    packet.five_tuple):
                self._drop(packet, DropReason.ACL_DENY, link=link.name,
                           node=next_node)
                return
            packet.ttl -= 1
            if packet.ttl <= 0:
                self._drop(packet, DropReason.TTL_EXPIRED, link=link.name,
                           node=next_node)
                return
        delay = link.traversal_delay_ns(now, packet.size_bytes,
                                        roce_queue=is_roce)
        if next_is_switch:
            delay += SWITCH_FORWARD_LATENCY_NS
        link.packets_forwarded += 1
        if self.int_collector is not None:
            self.int_collector.stamp(packet, link, now)
        path.append(next_node)
        self.sim.schedule(
            delay, partial(self._forward, packet, next_node, dst_port, path))

    def _reference_check(self, packet, link, now, is_roce):
        if not link.up:
            return DropReason.LINK_DOWN
        if is_roce and link.pfc_deadlocked:
            return DropReason.PFC_DEADLOCK
        if link.corruption_drop_prob > 0 and self.rng.chance(
                link.corruption_drop_prob):
            link.crc_errors += 1
            return DropReason.CORRUPTION
        if (link.silent_drop_predicate is not None
                and link.silent_drop_predicate(packet.five_tuple)):
            return DropReason.SILENT_DROP
        if is_roce:
            overflow = link.congestion_drop_prob(now)
            if overflow > 0 and self.rng.chance(overflow):
                return DropReason.QUEUE_OVERFLOW
        return None

    def forwarded_by_link(self):
        # Per-hop counters never run ahead of the clock.
        return {link.name: link.packets_forwarded
                for link in self.topology.links.values()
                if link.packets_forwarded}


# -- scripts ---------------------------------------------------------------------

def _odd_source_port(five_tuple):
    return five_tuple.src_port % 2 == 1


def _random_shape(rng):
    return ClosParams(pods=rng.choice((1, 2)), tors_per_pod=rng.choice((1, 2)),
                      aggs_per_pod=rng.choice((1, 2, 3)),
                      spines=rng.choice((1, 2)), hosts_per_tor=2)


class _Script:
    """One seeded scenario as plain data, replayable into any fabric."""

    def __init__(self, seed, *, packets=120, writes=40, span_ns=40_000):
        rng = random.Random(seed)
        self.seed = seed
        self.params = _random_shape(rng)
        self.adaptive = rng.random() < 0.15
        self.with_int = rng.random() < 0.5
        # A scratch world to draw names and quiet arrival times from.
        world = _World(self.params, seed, Fabric)
        topo, ports, ips = world.topo, world.ports, world.ips
        links = sorted(topo.links)
        switch_links = sorted((l.src, l.dst) for l in topo.switch_links())
        switches = topo.switches()

        self.loads = [(key, rng.choice((40.0, 390.0, 460.0)))
                      for key in rng.sample(links, k=len(links) // 6)]
        self.sends = []
        arrivals = []
        # (link, its entry ns, the delivery ns, which hop) of every hop a
        # packet looks ahead over that is not the last of its plan, on a
        # quiet path.
        inner_hops = []

        def quiet_walk(at, src, dst, sport):
            five_tuple = roce_five_tuple(ips[src], ips[dst], sport)
            t = at
            path = world.fabric.path_of(five_tuple, src)
            entries = []
            for link in world.fabric.links_of_path(path):
                entries.append(((link.src, link.dst), t))
                t += link.base_delays[PROBE_BYTES]
                if link.dst_acl is not None:
                    t += SWITCH_FORWARD_LATENCY_NS
            inner_hops.extend((key, entry, t, n)
                              for n, (key, entry) in enumerate(entries[:-1]))
            return [entry for _, entry in entries] + [t]

        for _ in range(packets):
            src, dst = rng.sample(ports, 2)
            at = rng.randrange(span_ns)
            sport = rng.randrange(5000, 5016)
            ttl = rng.choice((64, 64, 64, 64, 1, 2, 3, 5))
            tcp = rng.random() < 0.1
            if rng.random() < 0.05:
                dst = None            # an address nobody registered
            self.sends.append((at, src, dst, sport, ttl, tcp))
            if dst is not None and not tcp:
                arrivals.extend(quiet_walk(at, src, dst, sport))
        self.cuts = sorted(rng.sample(arrivals, k=6))
        # Everything about *steady* loaded links comes from a stream of its
        # own, after the draws above, for the same reason as the leads below.
        steady = random.Random(f"steady-{seed}")
        # A second wave, sent once a link saturated in the first has filled.
        for _ in range(LATE_PACKETS):
            src, dst = steady.sample(ports, 2)
            at = LATE_NS + steady.randrange(span_ns)
            sport = steady.randrange(5000, 5016)
            self.sends.append((at, src, dst, sport, 64, False))
            quiet_walk(at, src, dst, sport)
        self.cuts = sorted(self.cuts + [
            steady.randrange(lo, hi) for lo, hi in
            ((0, 300_000), (0, 300_000), (LATE_NS, LATE_NS + 300_000),
             (LATE_NS, LATE_NS + 300_000))])
        # How early each send is handed to inject(at_ns=), and whether it is
        # withdrawn halfway there.  Drawn from a stream of their own so the
        # scripts above are the ones this file has always run.
        early = random.Random(f"early-{seed}")
        self.leads = [(min(at, early.randrange(1, 4_000)),
                       early.random() < 0.3)
                      if early.random() < 0.25 else (0, False)
                      for at, *_ in self.sends]

        self.writes = []
        for _ in range(writes):
            if rng.random() < 0.35:
                at = rng.choice(arrivals)        # the same-nanosecond tie
            else:
                at = rng.randrange(span_ns + 6_000)
            kind = rng.choice(("corruption", "down", "deadlock", "silent",
                               "lossy", "load", "pause", "acl", "withdraw",
                               "reroute", "adaptive"))
            link = rng.choice(switch_links if rng.random() < 0.7 else links)
            undo_after = rng.choice((None, 700, 3_000, 15_000))
            self.writes.append((at, kind, link, rng.choice(switches),
                                rng.choice(ports), rng.random(), undo_after))
        # Writes to what a steady link tells a packet, aimed at an inner hop
        # of some packet's plan — later hops' entry times hang on it — while
        # it is still ahead of the packet, at its entry nanosecond, or just
        # behind it (the packet is past, the rest of its plan is not).
        for _ in range(STEADY_WRITES):
            link, entry, delivery, nth = steady.choice(inner_hops)
            aim = steady.random()
            if aim < 0.3:
                at = entry
            elif aim < 0.7:
                at = max(0, entry - steady.randrange(1, 3_000))
            else:
                at = steady.randrange(entry, delivery)
            # Not a drawing rule on a first hop: packets sent at the same
            # nanosecond would draw in event order (see above).
            kind = steady.choice(("standing", "saturate", "repause", "reload",
                                  "refill", "spill" if nth else "standing"))
            if kind == "saturate":
                undo_after = steady.choice((None, 15_000, LATE_NS + 200_000))
            elif kind == "standing":
                undo_after = steady.choice((None, 700, 3_000, 15_000))
            else:
                # A -> B: the aimed write is the second of the pair.
                undo_after = steady.choice((700, 3_000, 15_000))
                at = max(0, at - undo_after)
            self.writes.append((at, kind, link, switches[0], ports[0],
                                steady.random(), undo_after))


def _apply(world, kind, link_key, switch, port, x, undo):
    """One write (or, with ``undo``, the write that takes it back)."""
    topo = world.topo
    link = topo.links[link_key]
    now = world.sim.now
    if kind == "corruption":
        link.corruption_drop_prob = 0.0 if undo else 0.2 + 0.8 * x
    elif kind == "down":
        link.pair.up = bool(undo)
    elif kind == "deadlock":
        link.pfc_deadlocked = not undo
    elif kind == "silent":
        link.silent_drop_predicate = None if undo else _odd_source_port
    elif kind == "lossy":
        link.pfc_headroom_ok = bool(undo)
        link.set_offered_load(now, 0.0 if undo else 1.5 * link.rate_gbps)
        # A standing backlog, set the way TrafficEngine.apply sets one:
        # right after set_offered_load has integrated the queue up to now.
        link.queue_bytes = 0.0 if undo else float(link.buffer_bytes)
    elif kind == "load":
        link.set_offered_load(now, 0.0 if undo else 100.0 + 400.0 * x)
    elif kind == "standing":
        # Exactly what TrafficEngine.apply does to an overloaded link with
        # PFC healthy: arrivals capped at capacity, a fixed standing queue.
        link.set_offered_load(now, 0.0 if undo else link.rate_gbps)
        link.queue_bytes = 0.0 if undo else x ** 3 * link.buffer_bytes
    elif kind == "saturate":
        # Moving until the buffer is full (16 MB at 200 Gbps net = 640 us),
        # steady after; taken back, moving again until it has drained.
        link.set_offered_load(now, 0.0 if undo else 1.5 * link.rate_gbps)
    # Steady -> steady: A first, then (as the "undo") B.
    elif kind == "repause":
        link.pause_delay_ns = 1 + int(5_000 * (1.0 - x if undo else x))
    elif kind == "reload":
        link.set_offered_load(
            now, (0.1 + 0.8 * (1.0 - x if undo else x)) * link.rate_gbps)
    elif kind == "refill":
        link.set_offered_load(now, link.rate_gbps)
        link.queue_bytes = (1.0 - x if undo else x) ** 3 * link.buffer_bytes
    elif kind == "spill":
        # Overfed and full, which PFC makes a constant — until it is gone.
        if undo:
            link.pfc_headroom_ok = False
        else:
            link.set_offered_load(now, 1.5 * link.rate_gbps)
            link.queue_bytes = float(link.buffer_bytes)
    elif kind == "pause":
        link.pause_delay_ns = 0 if undo else 1 + int(5_000 * x)
    elif kind == "acl":
        acl = topo.nodes[switch].acl
        if undo:
            acl.clear()
        else:
            acl.deny(dst_ip=world.ips[port])
    elif kind == "withdraw":
        link.pair.up = bool(undo)
        link.pair.routed_around = not undo
        if x < 0.5:
            topo.invalidate_routes()
    elif kind == "reroute":
        topo.invalidate_routes()
    elif kind == "adaptive":
        world.fabric.adaptive_routing = not undo


class _World:
    """A fabric of the given class over a Clos of the given shape."""

    def __init__(self, params, seed, fabric_cls):
        self.topo = build_clos(params).topology
        # Every cable its own length: with build_clos's uniform 500 ns two
        # packets injected a whole number of hop delays apart meet at the
        # same nanosecond hop after hop, and which of them draws from the
        # fabric RNG first then hangs on event sequence numbers — the one
        # thing the two walkers are *not* meant to share.
        lengths = random.Random(seed)
        for key in sorted(self.topo.links):
            self.topo.links[key].propagation_ns = lengths.randrange(300, 900)
        self.sim = Simulator(seed=0)
        self.fabric = fabric_cls(self.sim, self.topo,
                                 RngStream(seed, "fabric"))
        self.ports = self.topo.host_ports()
        self.ips = {port: f"10.0.{i // 200}.{i % 200 + 1}"
                    for i, port in enumerate(self.ports)}
        self.delivered = {}
        self.drops = []
        self.collector = None
        for port, ip in self.ips.items():
            self.fabric.register_ip(ip, port)
            self.fabric.attach_receiver(port, self._on_delivery)
        self.fabric.add_drop_listener(self._on_drop)

    def play(self, script):
        """Queue a whole script into the simulator."""
        if script.with_int:
            self.collector = IntCollector()
            self.collector.install(self.fabric)
        self.fabric.adaptive_routing = script.adaptive
        for key, gbps in script.loads:
            self.topo.links[key].set_offered_load(0, gbps)
        # Writes are queued before anything is injected: see the tie rule.
        for at, kind, link, switch, port, x, undo_after in script.writes:
            self.sim.call_at(at, partial(_apply, self, kind, link, switch,
                                         port, x, False))
            if undo_after is not None:
                self.sim.call_at(at + undo_after,
                                 partial(_apply, self, kind, link, switch,
                                         port, x, True))
        lookahead = type(self.fabric) is Fabric
        for n, (send, (lead, withdrawn)) in enumerate(
                zip(script.sends, script.leads), 1):
            at = send[0]
            if not lookahead:
                lead = 0
            self.sim.call_at(at - lead, partial(self._send, n, at, withdrawn
                                                and lead > 1, *send[1:]))

    def _send(self, n, at, withdrawn, src, dst, sport, ttl, tcp):
        dst_ip = self.ips[dst] if dst is not None else "10.9.9.9"
        if tcp:
            packet = TCPPacket(
                five_tuple=FiveTuple(self.ips[src], sport, dst_ip, 443,
                                     PROTO_TCP),
                size_bytes=PROBE_BYTES, ttl=ttl, payload={"n": n})
        else:
            packet = RoCEPacket(
                five_tuple=roce_five_tuple(self.ips[src], dst_ip, sport),
                size_bytes=PROBE_BYTES, ttl=ttl, payload={"n": n})
        self.fabric.inject(packet, src, at)
        if withdrawn:
            self.sim.call_at((self.sim.now + at) // 2,
                             partial(self._resend, packet, src, at))

    def _resend(self, packet, src, at):
        assert self.fabric.withdraw(packet)
        self.sim.call_at(at, partial(self.fabric.inject, packet, src))

    def _on_delivery(self, packet, record):
        self.delivered[packet.payload["n"]] = (record.time_ns, record.path,
                                               packet.ttl)

    def _on_drop(self, record):
        self.drops.append((record.time_ns, record.packet.payload["n"],
                           record.reason, record.link, record.node,
                           record.packet.ttl))

    def snapshot(self, *, final=False):
        links = self.topo.links.values()
        out = {
            "now": self.sim.now,
            "injected": self.fabric.packets_injected,
            "delivered": dict(self.delivered),
            "drops": sorted(self.drops),
            "forwarded": self.fabric.forwarded_by_link(),
            "crc_errors": {l.name: l.crc_errors for l in links
                           if l.crc_errors},
            "rng": (self.fabric.rng.draws, self.fabric.rng.state_digest()),
        }
        # Like the raw link counters, the collector's tallies run ahead of
        # the clock by the hops in flight; they are compared once at rest.
        if final and self.collector is not None:
            window = self.collector._window
            out["int"] = (
                self.collector.stamps_total, self.collector.telemetry_bytes,
                self.collector.packets_collected,
                {name: (acc.packets, acc.paused_packets, acc.max_queue_bytes,
                        acc.max_delay_ns, acc.max_utilization,
                        acc.last_seen_ns)
                 for name, acc in window.items()})
        return out


def _run(script, fabric_cls, on_cut=None):
    world = _World(script.params, script.seed, fabric_cls)
    world.play(script)
    snapshots = []
    for cut in script.cuts:
        world.sim.run_until(cut)
        snapshots.append(world.snapshot())
        if on_cut is not None:
            on_cut(world)
    world.sim.run_until(HORIZON_NS)
    snapshots.append(world.snapshot(final=True))
    if on_cut is not None:
        on_cut(world)
    return world, snapshots


def _conserved(world):
    """Every packet injected (including those injected for an instant still
    ahead) is delivered, dropped or in flight."""
    fabric = world.fabric
    assert fabric._packets_injected == (
        fabric.packets_delivered + sum(fabric.drop_counts.values())
        + fabric.packets_in_flight)


# -- the differential tests ------------------------------------------------------------

@pytest.mark.parametrize("seed", range(60))
def test_lookahead_walker_matches_per_hop_walker(seed):
    script = _Script(seed)
    reference, expected = _run(script, _PerHopFabric)
    walker, actual = _run(script, Fabric)
    for want, got in zip(expected, actual):
        for key in want:
            assert got[key] == want[key], (
                f"seed {seed}: {key} diverged at t={want['now']}")
    assert not walker.fabric.packets_in_flight
    assert not reference.fabric.walker_demotions
    # Once more: the same results, every packet accounted for at each cut.
    assert _run(script, Fabric, _conserved)[1] == actual


def test_scripts_reach_every_ending_and_demote_in_flight():
    reasons = set()
    demotions = delivered = events = 0
    for seed in range(60):
        world, _ = _run(_Script(seed), Fabric)
        reasons |= {drop[2] for drop in world.drops}
        demotions += world.fabric.walker_demotions
        delivered += len(world.delivered)
        events += world.sim.events_processed
    assert reasons == set(DropReason)
    assert demotions > 100
    assert delivered > 1_000
    # 60 scripts x (150 sends + <= 108 writes): under 3 hop events a
    # packet, where the per-hop walker took one per hop.
    assert events < 60 * (258 + 150 * 3)


# -- the tie rule ---------------------------------------------------------------------

def _line_world(fabric_cls=Fabric):
    """a - tor0 - agg0 - tor1 - b: one path, four quiet hops."""
    world = _World(ClosParams(pods=1, tors_per_pod=2, aggs_per_pod=1,
                              spines=1, hosts_per_tor=1), 0, fabric_cls)
    src, dst = world.ports[0], world.ports[-1]
    five_tuple = roce_five_tuple(world.ips[src], world.ips[dst], 5000)
    path = world.fabric.path_of(five_tuple, src)
    assert len(path) == 5
    return world, src, dst, path


def _entry_time(world, path, hop, start=100):
    """When a packet injected at ``start`` enters hop ``hop`` of a quiet path."""
    t = start
    for link in world.fabric.links_of_path(path)[:hop]:
        t += link.base_delays[PROBE_BYTES]
        if link.dst_acl is not None:
            t += SWITCH_FORWARD_LATENCY_NS
    return t


class TestTieRule:
    @pytest.mark.parametrize("fabric_cls", [Fabric, _PerHopFabric])
    @pytest.mark.parametrize("offset,dropped", [(-1, True), (0, True),
                                                 (1, False)])
    def test_write_at_the_entry_nanosecond_applies_to_that_hop(
            self, fabric_cls, offset, dropped):
        world, src, dst, path = _line_world(fabric_cls)
        link = world.topo.link(path[2], path[3])
        entry = _entry_time(world, path, 2)
        # Queued before the injection, like every real writer's event.
        world.sim.call_at(entry + offset,
                          partial(setattr, link.pair, "up", False))
        world.sim.call_at(100, partial(world._send, 1, 100, False, src, dst, 5000,
                                       64, False))
        world.sim.run_all()
        if dropped:
            assert world.drops == [(entry, 1, DropReason.LINK_DOWN,
                                    link.name, path[2], 62)]
            assert world.fabric.forwarded_by_link() == {
                f"{path[0]}->{path[1]}": 1, f"{path[1]}->{path[2]}": 1}
        else:
            assert not world.drops
            assert world.delivered[1][1] == tuple(path)

    def test_late_queued_write_still_goes_first(self):
        """Where the lookahead walker knowingly differs from per-hop.

        A write queued *after* the packet was injected, for the nanosecond
        it enters a hop, ran after that hop's event in the per-hop walker
        (higher sequence number).  The lookahead walker has no hop event
        to order against: the write always goes first.
        """
        world, src, dst, path = _line_world()
        link = world.topo.link(path[2], path[3])
        entry = _entry_time(world, path, 2)
        world.sim.call_at(100, partial(world._send, 1, 100, False, src, dst, 5000,
                                       64, False))
        world.sim.call_at(
            101, lambda: world.sim.call_at(
                entry, partial(setattr, link.pair, "up", False)))
        world.sim.run_all()
        assert [drop[2] for drop in world.drops] == [DropReason.LINK_DOWN]
        assert world.fabric.walker_demotions == 1

    def test_forwarded_counts_do_not_run_ahead_of_the_clock(self):
        world, src, dst, path = _line_world()
        world.sim.call_at(100, partial(world._send, 1, 100, False, src, dst, 5000,
                                       64, False))
        names = [f"{a}->{b}" for a, b in zip(path, path[1:])]
        for hop in range(1, 4):
            # One nanosecond before the packet enters hop `hop`.
            world.sim.run_until(_entry_time(world, path, hop) - 1)
            assert world.fabric.packets_in_flight == 1
            assert world.fabric.forwarded_by_link() == dict.fromkeys(
                names[:hop], 1)
            # Raw link counters already hold the whole lookahead.
            assert world.topo.link(path[3], path[4]).packets_forwarded == 1
        world.sim.run_all()
        assert world.fabric.forwarded_by_link() == dict.fromkeys(names, 1)
