"""Topology graph: nodes, directed links, and the link queue model.

The graph has two node kinds: *switches* and *host ports* (one host port per
RNIC).  Links are directed — the paper's probing requirements ("more than 10
probes per second per **direction**", §5) and Algorithm 1's voting both work
per direction — and bidirectional physical cables are simply two directed
links that share fault state through a :class:`LinkPair`.

Queue model
-----------
Service traffic is fluid: the traffic layer assigns each directed link an
*offered background load* in Gbps.  A link integrates its queue occupancy
lazily: whenever a discrete packet traverses (or the load changes), the
occupancy is advanced from the last update using ``(offered - capacity)``.
A discrete packet then experiences::

    delay = propagation + serialization + queue_bytes * 8 / rate

This hybrid keeps month-scale scenarios tractable while giving probes the
queue-delay tails that Figures 5, 8, 10, 11 and 13 depend on.

Lossless behaviour: with PFC enabled the queue saturates at the buffer limit
and packets are delayed, not dropped.  With PFC unconfigured or headroom
misconfigured (fault #9), packets arriving at a saturated queue are dropped
with a probability proportional to the overload.
"""

from __future__ import annotations

import sys
from bisect import insort
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Optional

from repro.net.addresses import FiveTuple
from repro.sim.ledger import Ledger, hooked
from repro.sim.units import DelayTable

SWITCH_FORWARD_LATENCY_NS = 450  # ASIC pipeline latency per switch hop


class NodeKind(Enum):
    """What a graph vertex represents."""

    SWITCH = "switch"
    HOST_PORT = "host_port"


class Tier(Enum):
    """Where a node sits in the fabric (Clos naming)."""

    HOST = 0
    TOR = 1
    AGG = 2
    SPINE = 3


@dataclass
class AclRule:
    """A deny rule: drop packets matching src/dst IP (None = wildcard)."""

    src_ip: Optional[str] = None
    dst_ip: Optional[str] = None

    def matches(self, five_tuple: FiveTuple) -> bool:
        if self.src_ip is not None and five_tuple.src_ip != self.src_ip:
            return False
        if self.dst_ip is not None and five_tuple.dst_ip != self.dst_ip:
            return False
        return True


# The walker's scope (repro.sim.ledger): it looks ahead over quiet links only.

def _walker(link: "DirectedLink") -> tuple:
    topology = link.pair.topology
    return ((topology.ledger, topology),) if topology and link.quiet else ()


def _walker_over_any(owner) -> tuple:
    return next((_walker(link) for link in owner.links if link.quiet), ())


def _refresh_links(owner) -> None:
    for link in owner.links:
        link._refresh_quiet()


class Acl:
    """Per-switch access control list (default: permit everything)."""

    deny_rules = hooked("_deny_rules", _walker_over_any, _refresh_links)

    def __init__(self) -> None:
        self._deny_rules: tuple[AclRule, ...] = ()
        # In-links, from add_cable; a host port's stays empty.
        self.links: list["DirectedLink"] = []

    def deny(self, src_ip: Optional[str] = None,
             dst_ip: Optional[str] = None) -> AclRule:
        """Install a deny rule and return it (for later removal)."""
        rule = AclRule(src_ip, dst_ip)
        self.deny_rules = (*self._deny_rules, rule)
        return rule

    def remove(self, rule: AclRule) -> None:
        """Remove a previously installed rule (no-op if absent)."""
        if rule in self._deny_rules:
            rules = list(self._deny_rules)
            rules.remove(rule)
            self.deny_rules = tuple(rules)

    def clear(self) -> None:
        """Remove all deny rules."""
        self.deny_rules = ()

    def permits(self, five_tuple: FiveTuple) -> bool:
        """Whether the packet passes the ACL."""
        return not any(rule.matches(five_tuple) for rule in self._deny_rules)

    @property
    def rule_count(self) -> int:
        return len(self._deny_rules)


class TracerouteLimiter:
    """Switch-CPU rate limit on traceroute (ICMP time-exceeded) replies.

    Data-center switches throttle punted packets; the paper limits Agent's
    Traceroute frequency for this reason (§4.2.3).  The limiter is a simple
    token bucket refilled continuously.
    """

    def __init__(self, responses_per_second: float = 100.0,
                 burst: float = 20.0):
        if responses_per_second <= 0:
            raise ValueError("rate must be positive")
        self.rate = responses_per_second
        self.burst = burst
        self._tokens = burst
        self._last_ns = 0
        self.responses_sent = 0
        self.responses_suppressed = 0

    def allow(self, now_ns: int) -> bool:
        """Consume a token if available; return whether the reply is sent."""
        elapsed = max(0, now_ns - self._last_ns)
        self._last_ns = max(self._last_ns, now_ns)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate / 1e9)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.responses_sent += 1
            return True
        self.responses_suppressed += 1
        return False


@dataclass
class Node:
    """A vertex in the topology graph."""

    name: str
    kind: NodeKind
    tier: Tier
    acl: Acl = field(default_factory=Acl)
    traceroute: TracerouteLimiter = field(default_factory=TracerouteLimiter)

    @property
    def is_switch(self) -> bool:
        return self.kind == NodeKind.SWITCH

    def __hash__(self) -> int:
        return hash(self.name)


def _rerouted(pair: "LinkPair") -> tuple:
    topology = pair.topology     # a route change, quiet links or not
    return ((topology.ledger, topology),) if topology else ()


def _reroute(pair: "LinkPair") -> None:
    _refresh_links(pair)
    if pair.topology:
        pair.topology._routes_changed()


class LinkPair:
    """Shared physical-cable state for the two directions of a cable."""

    __slots__ = ("name", "_up", "_routed_around", "last_transition_ns",
                 "transition_count", "links", "topology")

    # Hooked, so *any* writer — faults or tests poking pairs directly —
    # keeps the links' quiet flags and the fabric's routes current.
    up = hooked("_up", _walker_over_any, _refresh_links,
                doc="Physical cable state (both directions).")
    routed_around = hooked(
        "_routed_around", _rerouted, _reroute,
        doc="Whether routing has converged around the (down) cable.")

    def __init__(self, name: str):
        self.name = name
        self._up = True
        self._routed_around = False
        # Last up/down transition (flap detection for transports).
        self.last_transition_ns = -(1 << 62)
        # Lifetime transition count (the "port flap counter" operators read).
        self.transition_count = 0
        # The cable's two directions and its topology (set by add_cable).
        self.links: tuple["DirectedLink", ...] = ()
        self.topology: Optional["Topology"] = None

    def mark_transition(self, now_ns: int) -> None:
        """Record an up/down state change at ``now_ns``."""
        self.last_transition_ns = now_ns
        self.transition_count += 1

    def flapped_recently(self, now_ns: int,
                         window_ns: int = 2_000_000_000) -> bool:
        """Whether the cable changed state within the last ``window_ns``.

        RDMA transports experience a flapping cable as packet loss across
        the whole window, not just at sampling instants.
        """
        return now_ns - self.last_transition_ns <= window_ns


class DirectedLink:
    """One direction of a cable, with queue state and fault knobs."""

    def __init__(self, src: str, dst: str, pair: LinkPair, *,
                 rate_gbps: float = 400.0, propagation_ns: int = 500,
                 buffer_bytes: int = 16 * 1024 * 1024,
                 dst_acl: Optional[Acl] = None):
        if rate_gbps <= 0:
            raise ValueError(f"rate must be positive: {rate_gbps}")
        self.src = src
        self.dst = dst
        # Built once: every drop record and INT stamp names the link, and
        # thousands of them then share one string.
        self.name = sys.intern(f"{src}->{dst}")
        self.pair = pair
        self.rate_gbps = rate_gbps
        self._propagation_ns = propagation_ns
        self.buffer_bytes = buffer_bytes
        # Ingress ACL of the switch this link feeds; None for a host port,
        # which is also how the fabric tells the two apart per hop.
        self.dst_acl = dst_acl

        # The knobs' state (written only through the properties below);
        # rate is a construction-time constant, which the delay tables and
        # the fabric's route cache both rely on.
        self._corruption_drop_prob = 0.0
        self._silent_drop_predicate: Optional[Callable[[FiveTuple], bool]] = None
        self._pfc_headroom_ok = True
        self._pfc_deadlocked = False
        # Extra fixed delay, e.g. PFC storm pause pressure (Figure 8 right).
        self._pause_delay_ns = 0

        # Fluid queue state (load: written through set_offered_load)
        self._offered_load_gbps = 0.0
        self._queue_bytes = 0.0
        self._queue_updated_ns = 0

        # Whether a packet crossing now can only be delayed by a constant
        # — the link is *steady*: cable up and not routed around, no
        # deadlock / corruption / silent-drop rule, PFC healthy, no ACL
        # rule at the far switch, and a fluid queue that cannot move
        # (idle, fed at exactly line rate, or overfed and full).  The
        # fabric adds such hops up without an event of their own
        # (DESIGN.md §10); ``quiet_wait_ns`` is what a RoCE packet then
        # pays on top of ``base_delays[size]`` (propagation plus
        # serialization, all an idle link costs): standing queue plus pause
        # pressure; ``quiet_delays[size]`` is all it pays here, the far
        # switch's pipeline included.  All are re-derived after every
        # write, and the walker's take-back runs *before* one that changes
        # what a quiet link tells a packet, while the constants are still
        # those lookahead used (repro.sim.ledger).
        self.base_delays = self.quiet_delays = DelayTable(rate_gbps, -1)
        self._refresh_quiet()           # derives both tables

        # Counters for assertions and SLA accounting
        self.packets_forwarded = 0
        # CRC error counter, as a switch would expose for this port.
        self.crc_errors = 0

    def _refresh_quiet(self) -> None:
        pair = self.pair
        acl = self.dst_acl
        queue = self._queue_bytes
        net_gbps = self._offered_load_gbps - self.rate_gbps
        self.quiet = (
            pair._up and not pair._routed_around
            and not self._pfc_deadlocked
            and self._corruption_drop_prob <= 0
            and self._silent_drop_predicate is None
            and self._pfc_headroom_ok
            and (acl is None or not acl.rule_count)
            # The three states advance_queue leaves exactly as they are.
            and (queue == 0.0 if net_gbps < 0
                 else queue == self.buffer_bytes if net_gbps > 0
                 else 0.0 <= queue <= self.buffer_bytes))
        self.quiet_wait_ns = wait = (round(queue * 8.0 / self.rate_gbps)
                                     + self._pause_delay_ns)
        propagation = self._propagation_ns
        if self.base_delays.fixed_ns != propagation:
            self.base_delays = DelayTable(self.rate_gbps, propagation)
        fixed = propagation + wait + (
            SWITCH_FORWARD_LATENCY_NS if acl is not None else 0)
        if self.quiet_delays.fixed_ns != fixed:
            self.quiet_delays = DelayTable(self.rate_gbps, fixed)

    # What a packet is told here.  Faults and workloads hold the fault
    # knobs and the load through ``cluster.holds`` (DESIGN.md §4);
    # ``queue_bytes`` is queue state, not a held setting.
    corruption_drop_prob = hooked(
        "_corruption_drop_prob", _walker, _refresh_quiet,
        doc="Per-packet corruption drop probability (fault #2).")
    silent_drop_predicate = hooked(
        "_silent_drop_predicate", _walker, _refresh_quiet,
        doc="Per-5-tuple silent-drop rule (the §4.1 problem), or None.")
    pfc_headroom_ok = hooked(
        "_pfc_headroom_ok", _walker, _refresh_quiet,
        doc="Whether PFC headroom is sized correctly (fault #9 clears it).")
    pfc_deadlocked = hooked(
        "_pfc_deadlocked", _walker, _refresh_quiet,
        doc="Whether a PFC deadlock blocks the RoCE queue.")
    pause_delay_ns = hooked(
        "_pause_delay_ns", _walker, _refresh_quiet,
        doc="Extra per-packet delay from PFC pause pressure on this port.")
    queue_bytes = hooked(
        "_queue_bytes", _walker, _refresh_quiet,
        doc="Fluid queue occupancy as of the last integration.")
    propagation_ns = hooked("_propagation_ns", _walker, _refresh_quiet,
                            doc="Cable propagation delay.")
    offered_load_gbps = hooked(
        "_offered_load_gbps", _walker, _refresh_quiet,
        doc="Fluid background load (written by set_offered_load).")

    @property
    def up(self) -> bool:
        """Physical state, shared with the reverse direction."""
        return self.pair.up

    def advance_queue(self, now_ns: int) -> None:
        """Integrate fluid queue occupancy up to ``now_ns``."""
        dt = now_ns - self._queue_updated_ns
        if dt <= 0:
            return
        net_gbps = self._offered_load_gbps - self.rate_gbps
        before = self._queue_bytes
        limit = float(self.buffer_bytes)
        # Gbps == bits/ns, so bytes delta = net * dt / 8.
        self._queue_bytes = queue_bytes = min(
            max(before + net_gbps * dt / 8.0, 0.0), limit)
        self._queue_updated_ns = now_ns
        if queue_bytes != before and (queue_bytes == 0.0
                                      or queue_bytes == limit):
            self._refresh_quiet()      # a backlog that has drained, or filled

    def set_offered_load(self, now_ns: int, load_gbps: float) -> None:
        """Update the fluid background load (traffic layer hook)."""
        if load_gbps < 0:
            raise ValueError(f"load must be non-negative: {load_gbps}")
        self.advance_queue(now_ns)
        self.offered_load_gbps = load_gbps

    def utilization(self) -> float:
        """Offered load over capacity (may exceed 1.0 when congested)."""
        return self._offered_load_gbps / self.rate_gbps

    def queue_delay_ns(self, now_ns: int) -> int:
        """Queue wait a packet entering now would experience."""
        if self.quiet:
            # Steady queue: integrating it is an exact no-op.  (Also keeps a
            # lookahead caller's future ``now_ns`` out of the integration
            # clock, which is therefore as old as the last write.)
            return self.quiet_wait_ns - self._pause_delay_ns
        self.advance_queue(now_ns)
        return round(self._queue_bytes * 8.0 / self.rate_gbps)

    def traversal_delay_ns(self, now_ns: int, size_bytes: int, *,
                           roce_queue: bool = True) -> int:
        """Total one-hop latency for a discrete packet entering now.

        The fluid queue and PFC pause pressure live in the *RoCE* traffic
        class; TCP rides a separate, lightly loaded queue (§2.4), so
        non-RoCE packets see only propagation + serialization.
        """
        delay = self.base_delays[size_bytes]
        if roce_queue:
            delay += self.queue_delay_ns(now_ns) + self._pause_delay_ns
        return delay

    def congestion_drop_prob(self, now_ns: int) -> float:
        """Probability a packet is dropped by a *lossy* saturated queue.

        Zero whenever PFC is healthy (pause, never drop), or the queue is
        not full.  With PFC unconfigured/mis-headroomed (fault #9),
        overload spills.
        """
        if self._pfc_headroom_ok:
            return 0.0
        self.advance_queue(now_ns)
        if self._queue_bytes < self.buffer_bytes * 0.98:
            return 0.0
        overload = self._offered_load_gbps / self.rate_gbps
        if overload <= 1.0:
            return 0.0
        # Fraction of arrivals that cannot be served nor buffered.
        return min(1.0, 1.0 - 1.0 / overload)


class Topology:
    """The fabric graph plus per-destination ECMP next-hop tables."""

    def __init__(self, name: str = "fabric"):
        self.name = name
        self.nodes: dict[str, Node] = {}
        self.links: dict[tuple[str, str], DirectedLink] = {}
        self._adjacency: dict[str, list[str]] = {}
        # Kept where adjacency is written: each node's switch neighbours,
        # and per switch the sorted nodes whose only switch neighbour it is
        # (tor_of / ports_under in O(1)).
        self._switch_neighbors: dict[str, list[str]] = {}
        self._under: dict[str, list[str]] = {}
        self._next_hops: dict[str, dict[str, list[str]]] = {}
        self._routes_dirty = True
        # Bumps whenever next_hops() may answer differently — route
        # invalidation or a routed_around flip — which is what the fabric's
        # cached plans are valid for (DESIGN.md §10).
        self.route_epoch = 0
        # (node, dst) -> filtered ECMP candidates, valid for the current
        # route tables + routed_around flags.
        self._next_hop_memo: dict[tuple[str, str], list[str]] = {}
        self.ledger = Ledger()   # the world's, once a fabric walks the graph

    def _routes_changed(self) -> None:
        # routed_around flips alter the live next_hops filter but NOT the
        # stale BFS tables (reconvergence needs an explicit
        # invalidate_routes — the black-hole window depends on this).
        self.route_epoch += 1
        self._next_hop_memo.clear()

    # -- construction -----------------------------------------------------

    def add_node(self, name: str, kind: NodeKind, tier: Tier) -> Node:
        """Add a vertex; names must be unique."""
        if name in self.nodes:
            raise ValueError(f"duplicate node name: {name}")
        node = Node(name=name, kind=kind, tier=tier)
        self.nodes[name] = node
        self._adjacency[name] = []
        self._switch_neighbors[name] = []
        self._under[name] = []
        self.invalidate_routes()
        return node

    def add_switch(self, name: str, tier: Tier) -> Node:
        """Add a switch vertex."""
        return self.add_node(name, NodeKind.SWITCH, tier)

    def add_host_port(self, name: str) -> Node:
        """Add a host-port (RNIC attachment) vertex."""
        return self.add_node(name, NodeKind.HOST_PORT, Tier.HOST)

    def add_cable(self, a: str, b: str, *, rate_gbps: float = 400.0,
                  propagation_ns: int = 500,
                  buffer_bytes: int = 16 * 1024 * 1024) -> LinkPair:
        """Add a bidirectional cable as two directed links."""
        for end in (a, b):
            if end not in self.nodes:
                raise ValueError(f"unknown node: {end}")
        if (a, b) in self.links:
            raise ValueError(f"duplicate cable: {a} <-> {b}")
        pair = LinkPair(name=f"{a}<->{b}")
        pair.topology = self
        for src, dst in ((a, b), (b, a)):
            far = self.nodes[dst]
            link = DirectedLink(
                src, dst, pair, rate_gbps=rate_gbps,
                propagation_ns=propagation_ns, buffer_bytes=buffer_bytes,
                dst_acl=far.acl if far.is_switch else None)
            if far.is_switch:
                # No packet reads a host port's ACL, so its edits re-derive
                # no link and tell no planner.
                far.acl.links.append(link)
            self.links[(src, dst)] = link
            self._adjacency[src].append(dst)
            if far.is_switch:
                self._add_switch_neighbor(src, dst)
        pair.links = (self.links[(a, b)], self.links[(b, a)])
        self.invalidate_routes()
        return pair

    # -- accessors ---------------------------------------------------------

    def node(self, name: str) -> Node:
        """Look up a vertex."""
        try:
            return self.nodes[name]
        except KeyError:
            raise KeyError(f"unknown node: {name}") from None

    def link(self, src: str, dst: str) -> DirectedLink:
        """Look up a directed link."""
        try:
            return self.links[(src, dst)]
        except KeyError:
            raise KeyError(f"no link {src} -> {dst}") from None

    def link_pair(self, a: str, b: str) -> LinkPair:
        """Shared cable state for the a<->b cable."""
        return self.link(a, b).pair

    def neighbors(self, name: str) -> list[str]:
        """Adjacent node names."""
        return list(self._adjacency[name])

    def host_ports(self) -> list[str]:
        """All host-port vertex names, sorted."""
        return sorted(n for n, node in self.nodes.items()
                      if node.kind == NodeKind.HOST_PORT)

    def switches(self, tier: Optional[Tier] = None) -> list[str]:
        """All switch names, optionally filtered by tier, sorted."""
        return sorted(
            n for n, node in self.nodes.items()
            if node.is_switch and (tier is None or node.tier == tier))

    def _add_switch_neighbor(self, node: str, switch: str) -> None:
        tors = self._switch_neighbors[node]
        if len(tors) == 1:
            self._under[tors[0]].remove(node)   # no longer its only one
        tors.append(switch)
        if len(tors) == 1:
            insort(self._under[switch], node)

    def tor_of(self, host_port: str) -> str:
        """The ToR switch a host port hangs off (its unique neighbor)."""
        tors = self._switch_neighbors.get(host_port, ())
        if len(tors) != 1:
            raise ValueError(
                f"host port {host_port} has {len(tors)} switch neighbors")
        return tors[0]

    def ports_under(self, switch: str) -> list[str]:
        """The nodes ``tor_of`` maps to ``switch``, sorted."""
        return list(self._under.get(switch, ()))

    def all_directed_links(self) -> Iterable[DirectedLink]:
        """Every directed link."""
        return self.links.values()

    def switch_links(self) -> list[DirectedLink]:
        """Directed links where both endpoints are switches."""
        return [l for l in self.links.values()
                if self.nodes[l.src].is_switch and self.nodes[l.dst].is_switch]

    # -- routing -----------------------------------------------------------

    def _rebuild_routes(self) -> None:
        """BFS from every host port to build ECMP next-hop tables.

        ``_next_hops[dst][node]`` lists all neighbors of ``node`` that lie on
        a shortest path toward host port ``dst``.  Down links that routing
        has converged around (``routed_around``) are excluded; freshly-down
        links are not, which is how flapping causes black-holed packets.
        """
        self._next_hops = {}

        def usable(a: str, b: str) -> bool:
            # Routed-around links are withdrawn from the routing domain,
            # exactly as a converged IGP would withdraw a failed adjacency
            # (this also redirects *upstream* choices, e.g. a spine stops
            # sending pod traffic to an agg whose ToR downlink is out).
            return not self.links[(a, b)].pair.routed_around

        for dst in self.host_ports():
            dist = {dst: 0}
            frontier = [dst]
            while frontier:
                nxt: list[str] = []
                for node in frontier:
                    for neigh in self._adjacency[node]:
                        if neigh not in dist and usable(neigh, node):
                            dist[neigh] = dist[node] + 1
                            nxt.append(neigh)
                frontier = nxt
            table: dict[str, list[str]] = {}
            for node in self.nodes:
                if node == dst or node not in dist:
                    continue
                hops = [neigh for neigh in self._adjacency[node]
                        if dist.get(neigh, 1 << 30) == dist[node] - 1
                        and usable(node, neigh)]
                table[node] = sorted(hops)
            self._next_hops[dst] = table
        self._routes_dirty = False

    def invalidate_routes(self) -> None:
        """Force next-hop recomputation (after topology edits)."""
        self.ledger.notify(self)
        self._routes_dirty = True
        self._routes_changed()

    def next_hops(self, node: str, dst: str) -> list[str]:
        """ECMP candidate next hops from ``node`` toward host port ``dst``.

        Candidates whose link has been *converged around* are filtered; a
        link that is down but not yet converged around remains a candidate
        (packets hashed onto it black-hole), matching real fabrics between
        failure and reconvergence.

        Results are memoized per (node, dst); the memo is cleared whenever
        routes are invalidated or a routed_around flag flips, so it is
        always equal to the unmemoized filter.  Callers must treat the
        returned list as read-only.
        """
        if self._routes_dirty:
            self._rebuild_routes()
        key = (node, dst)
        memo = self._next_hop_memo
        hops = memo.get(key)
        if hops is None:
            table = self._next_hops.get(dst)
            if table is None:
                raise KeyError(f"unknown destination host port: {dst}")
            candidates = table.get(node, [])
            live = [h for h in candidates
                    if not self.links[(node, h)].pair.routed_around]
            # If everything is routed around, fall back to raw candidates
            # so the packet visibly dies on a dead link rather than
            # vanishing silently.
            hops = memo[key] = live if live else candidates
        return hops
