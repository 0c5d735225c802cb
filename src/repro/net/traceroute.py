"""Traceroute over the simulated fabric.

R-Pingmesh traces the path of every probe 5-tuple *continuously* rather than
on demand (§4.2.3): after a failure, replayed packets would be rehashed onto
healthy links and mislead localisation.  The Agent therefore keeps a fresh
:class:`PathRecord` per active 5-tuple.

Switches rate-limit their TTL-exceeded replies (switch CPU protection), so a
trace may come back with unknown hops; the record keeps ``None`` in those
positions and marks itself incomplete.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from repro.net.addresses import FiveTuple
from repro.net.fabric import Fabric


@dataclass(frozen=True)
class PathRecord:
    """A traced path for one 5-tuple at one point in time.

    ``hops`` holds node names from the source host port to the last node the
    trace reached; rate-limited switches appear as ``None``.  ``reached``
    says whether the destination host port answered.
    """

    five_tuple: FiveTuple
    traced_at_ns: int
    hops: tuple[Optional[str], ...]
    reached: bool

    @property
    def complete(self) -> bool:
        """True when every hop is known and the destination was reached."""
        return self.reached and all(h is not None for h in self.hops)

    def known_links(self) -> list[tuple[str, str]]:
        """Directed (src, dst) link pairs between consecutive known hops."""
        links = []
        for a, b in zip(self.hops, self.hops[1:]):
            if a is not None and b is not None:
                links.append((a, b))
        return links

    @cached_property
    def link_names(self) -> tuple[str, ...]:
        """``"src->dst"`` per known link, built once: what Algorithm 1
        votes on, window after window, for as long as the record lives
        (interned: thousands of live records share a few hundred names)."""
        return tuple(sys.intern(f"{a}->{b}") for a, b in self.known_links())

    def known_switches(self) -> list[str]:
        """Known intermediate switch hops (excludes the two host ports)."""
        return [h for h in self.hops[1:-1] if h is not None]


class TracerouteService:
    """Issues traceroutes against the fabric, honoring switch rate limits."""

    def __init__(self, fabric: Fabric):
        self.fabric = fabric
        self.traces_issued = 0
        # Hops lost to switch-CPU rate limiting (a None in some record's
        # ``hops``) — the telemetry gap ERSPAN/INT close in §7.4.
        self.rate_limited_hops = 0

    def trace(self, five_tuple: FiveTuple, src_port: str,
              dst_port: Optional[str] = None) -> PathRecord:
        """Trace the current path of ``five_tuple`` from ``src_port``.

        The walk follows the same per-switch ECMP choices the data path
        makes.  A down link truncates the trace (the TTL probes beyond it
        die), and each switch on the path consumes a token from its
        traceroute limiter — an exhausted switch shows up as ``None``.
        """
        self.traces_issued += 1
        now = self.fabric.sim.now
        raw_path = self.fabric.path_of(five_tuple, src_port, dst_port,
                                       respect_down=True)
        if dst_port is None:
            dst_port = self.fabric.port_for_ip(five_tuple.dst_ip)
        reached = bool(raw_path) and raw_path[-1] == dst_port

        hops: list[Optional[str]] = []
        topo = self.fabric.topology
        for name in raw_path:
            node = topo.nodes[name]
            if node.is_switch and not node.traceroute.allow(now):
                self.rate_limited_hops += 1
                hops.append(None)
            else:
                hops.append(name)
        return PathRecord(five_tuple=five_tuple, traced_at_ns=now,
                          hops=tuple(hops), reached=reached)
