"""Rail-optimized probing (paper §7.4, Figure 12).

In a rail-optimized cluster, NIC *i* of every host connects to rail switch
*i*, so traffic between two NICs **on the same host** must climb to the
spine tier and back down.  That enables two simplifications the paper
describes:

* **No Controller pinglists** — every host probes between its own RNICs;
  with enough 5-tuples (source ports) all fabric links get covered.
* **One-way probing** — prober and responder belong to the *same Agent*,
  which sees both the send CQE (prober-RNIC clock) and the receive CQE
  (responder-RNIC clock).  The clock offset between the two RNICs is
  constant, so one-way *timeouts* are exact and one-way *delay changes*
  (relative to a per-pair baseline) are measurable without any ACK.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.cluster import Cluster
from repro.host.rnic import LocalSendError, QPType, QueuePair
from repro.net.addresses import roce_five_tuple
from repro.sim.engine import EventHandle
from repro.sim.stats import PercentileTracker
from repro.sim.units import MILLISECOND


@dataclass
class OneWayResult:
    """One one-way probe across the rails."""

    src_rnic: str
    dst_rnic: str
    src_port: int
    issued_at_ns: int
    timeout: bool
    # Raw cross-clock delta (recv CQE on dst clock - send CQE on src
    # clock); only its *changes* are physically meaningful.
    raw_delta_ns: Optional[int] = None


@dataclass
class _Pending:
    seq: int
    src_rnic: str
    dst_rnic: str
    src_port: int
    issued_at_ns: int
    t_send: Optional[int] = None
    timeout_handle: Optional[EventHandle] = None


class RailProber:
    """Same-host cross-rail one-way prober for one host."""

    def __init__(self, cluster: Cluster, host_name: str, *,
                 timeout_ns: int = 500 * MILLISECOND,
                 ports_per_pair: int = 16):
        host = cluster.hosts[host_name]
        if len(host.rnics) < 2:
            raise ValueError("rail probing needs >= 2 RNICs on the host")
        self.cluster = cluster
        self.host = host
        self.timeout_ns = timeout_ns
        self.ports_per_pair = ports_per_pair
        self.rng = cluster.rngs.stream(f"railprobe.{host_name}")
        self.results: list[OneWayResult] = []
        self._pending: dict[int, _Pending] = {}
        self._qps: dict[str, QueuePair] = {}
        # Per-(src,dst) baseline of raw deltas, for delay-change detection.
        self._baselines: dict[tuple[str, str], PercentileTracker] = {}
        for rnic in host.rnics:
            self._qps[rnic.name] = host.verbs.create_qp(
                rnic, QPType.UD, on_sent=self._on_sent,
                on_recv=self._on_recv)

    # -- probing -------------------------------------------------------------

    def probe_pair(self, src_rnic: str, dst_rnic: str,
                   src_port: Optional[int] = None) -> None:
        """One one-way probe from src to dst (both on this host)."""
        if src_port is None:
            src_port = self.rng.randint(1024, 65535)
        seq = next(self.cluster.probe_seqs)
        src = self.host.rnic_by_name(src_rnic)
        dst = self.host.rnic_by_name(dst_rnic)
        pending = _Pending(seq=seq, src_rnic=src_rnic, dst_rnic=dst_rnic,
                           src_port=src_port,
                           issued_at_ns=self.cluster.sim.now)
        self._pending[seq] = pending
        pending.timeout_handle = self.cluster.sim.call_later(
            self.timeout_ns, partial(self._on_timeout, seq))
        try:
            src.post_send(self._qps[src_rnic],
                          dst.comm_info(self._qps[dst_rnic].qpn),
                          src_port=src_port,
                          payload={"t": "rail", "seq": seq},
                          payload_bytes=50, context=pending)
        except LocalSendError:
            pass  # reported at the timeout tick

    def probe_round(self) -> None:
        """Probe every ordered RNIC pair with fresh random ports."""
        names = [r.name for r in self.host.rnics]
        for src in names:
            for dst in names:
                if src != dst:
                    self.probe_pair(src, dst)

    def sweep_ports(self) -> None:
        """Many 5-tuples per pair: the link-coverage mode of §7.4."""
        names = [r.name for r in self.host.rnics]
        for src in names:
            for dst in names:
                if src == dst:
                    continue
                for _ in range(self.ports_per_pair):
                    self.probe_pair(src, dst)

    # -- completion ----------------------------------------------------------

    @staticmethod
    def _on_sent(qp: QueuePair, pending: _Pending,
                 timestamp: Optional[int], at_ns: int) -> None:
        """Send completion of ``pending``'s probe: ② on the prober clock."""
        pending.t_send = timestamp

    def _on_recv(self, payload: dict, timestamp: int, src_ip: str,
                 src_gid: str, src_qpn: int, src_port: int) -> None:
        """Receive completion on the responder clock; ``payload`` is the
        delivered packet's, so only plain values are kept."""
        if payload.get("t") != "rail":
            return
        pending = self._pending.pop(payload["seq"], None)
        if pending is None:
            return
        if pending.timeout_handle is not None:
            pending.timeout_handle.cancel()
        raw = None
        if pending.t_send is not None:
            raw = timestamp - pending.t_send
            self._baselines.setdefault(
                (pending.src_rnic, pending.dst_rnic),
                PercentileTracker()).add(float(raw))
        self.results.append(OneWayResult(
            src_rnic=pending.src_rnic, dst_rnic=pending.dst_rnic,
            src_port=pending.src_port, issued_at_ns=pending.issued_at_ns,
            timeout=False, raw_delta_ns=raw))

    def _on_timeout(self, seq: int) -> None:
        pending = self._pending.pop(seq, None)
        if pending is None:
            return
        self.results.append(OneWayResult(
            src_rnic=pending.src_rnic, dst_rnic=pending.dst_rnic,
            src_port=pending.src_port, issued_at_ns=pending.issued_at_ns,
            timeout=True))

    # -- analysis ------------------------------------------------------------

    def timeout_rate(self) -> float:
        """Fraction of one-way probes lost."""
        if not self.results:
            return 0.0
        return sum(r.timeout for r in self.results) / len(self.results)

    def delay_change_ns(self, src_rnic: str, dst_rnic: str,
                        recent: int = 20) -> Optional[float]:
        """Recent one-way delay minus the pair's baseline median.

        The raw deltas carry an unknown constant clock offset, which the
        subtraction removes — only *changes* (congestion, PFC pressure)
        remain, exactly what §7.4's one-way RTT is for.
        """
        tracker = self._baselines.get((src_rnic, dst_rnic))
        if tracker is None or len(tracker) < recent + 5:
            return None
        samples = [r.raw_delta_ns for r in self.results
                   if not r.timeout and r.raw_delta_ns is not None
                   and (r.src_rnic, r.dst_rnic) == (src_rnic, dst_rnic)]
        recent_mean = sum(samples[-recent:]) / recent
        return recent_mean - tracker.p50()

    def covered_links(self) -> set[str]:
        """Directed fabric links crossed by this host's probe 5-tuples."""
        covered: set[str] = set()
        for result in self.results:
            src_rnic = self.host.rnic_by_name(result.src_rnic)
            dst_rnic = self.host.rnic_by_name(result.dst_rnic)
            ft = roce_five_tuple(src_rnic.ip, dst_rnic.ip, result.src_port)
            path = self.cluster.fabric.path_of(ft, result.src_rnic)
            covered.update(f"{a}->{b}" for a, b in zip(path, path[1:]))
        return covered
