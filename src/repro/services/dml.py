"""Distributed machine-learning workload (paper §2, Figures 1/5/9/10/11).

The DML job alternates *compute* and *communicate* phases, a few seconds per
cycle, and periodically pauses to checkpoint over TCP:

* Connections are real simulated **RC QPs** established through the verbs
  layer, so the host's eBPF tracer (and therefore R-Pingmesh Service
  Tracing) sees every 5-tuple the job uses.
* Gradient traffic is fluid (`repro.services.traffic`), pinned to each
  connection's ECMP path.
* **Barrel effect**: the communicate phase ends when the *slowest*
  connection finishes, so one degraded flow stretches every cycle and
  collapses the cluster-average training throughput (Figure 1).
* RDMA's loss sensitivity: a connection whose path drops packets loses
  go-back-N windows; throughput falls superlinearly with loss.  With
  default retransmission settings a severely flapping path *breaks* the
  connection and fails the task (the "error code 12" of §2.1); with the
  paper's mitigation (max retransmission count, long timeout) the task
  survives at degraded throughput.
* **Checkpoints** idle the RoCE network and pin host CPUs (TCP is CPU
  intensive) — the Figure 5 signature: RTT dips while processing delay
  rises.

Communication patterns: ring **AllReduce** (light congestion) and full-mesh
**All2All** (heavy incast congestion) — Figures 10/11.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.cluster import Cluster
from repro.host.rnic import CommInfo, QPType, QueuePair
from repro.net.addresses import (MAX_SRC_PORT, MIN_SRC_PORT,
                                 roce_five_tuple)
from repro.services.traffic import Flow, TrafficEngine
from repro.sim.stats import TimeSeries
from repro.sim.units import SECOND

# Loss -> throughput collapse: one lost packet costs a go-back-N window.
GO_BACK_N_WINDOW = 64
# Throughput floor while a path is flapping but the connection survives.
FLAPPING_RESIDUAL_FACTOR = 0.01
# Corruption heavier than this breaks untuned connections outright.
BREAKING_DROP_PROB = 0.20
# Communicate phases never stretch beyond this factor of nominal (beyond
# it the job is effectively stalled; keeps simulated time moving).
MAX_STRETCH = 120.0


class CommPattern(Enum):
    """Collective communication patterns (§7.3)."""

    ALLREDUCE = "allreduce"   # ring: each rank sends to its neighbour
    ALL2ALL = "all2all"       # full mesh: heavy incast


@dataclass
class DmlConfig:
    """Shape and timing of the training job."""

    pattern: CommPattern = CommPattern.ALLREDUCE
    data_gbits_per_cycle: float = 8.0      # per connection, per cycle
    compute_time_ns: int = 1 * SECOND
    per_flow_demand_gbps: float = 90.0
    checkpoint_every_cycles: int = 0       # 0 = never
    checkpoint_duration_ns: int = 4 * SECOND
    # CPU loads per phase (drive processing-delay measurements).
    compute_cpu_load: float = 0.45
    comm_cpu_load: float = 0.30
    checkpoint_cpu_load: float = 0.88
    # §7.1 #1 mitigation: max retransmission count + long timeouts.
    retransmission_tuned: bool = True
    # Service-team degradation threshold (fraction of baseline).
    degradation_threshold: float = 0.7


class DmlConnection:
    """One RC connection of the job (one direction of gradient flow)."""

    def __init__(self, src_rnic: str, dst_rnic: str, src_port: int):
        self.src_rnic = src_rnic
        self.dst_rnic = dst_rnic
        self.src_port = src_port
        self.src_qp: Optional[QueuePair] = None
        self.dst_qp: Optional[QueuePair] = None
        self.broken = False


class DmlJob:
    """A training job over a subset of the cluster's RNICs.

    Implements the Analyzer's :class:`~repro.core.analyzer.ServiceMonitor`
    protocol through :meth:`degraded`.
    """

    def __init__(self, cluster: Cluster, participants: list[str],
                 config: Optional[DmlConfig] = None, *,
                 traffic: Optional[TrafficEngine] = None):
        if len(participants) < 2:
            raise ValueError("a DML job needs at least two RNICs")
        self.cluster = cluster
        self.participants = list(participants)
        self.config = config or DmlConfig()
        self.traffic = traffic or TrafficEngine(cluster)
        self.rng = cluster.rngs.stream("dml")
        self._owner = cluster.holds.owner("dml")
        self.connections: list[DmlConnection] = []
        self.throughput = TimeSeries("training_throughput_gbps")
        self.checkpoint_windows: list[tuple[int, int]] = []
        self.cycles_completed = 0
        self.task_failed = False
        self.compute_speed_factor = 1.0
        self._compute_decay_per_cycle = 0.0
        self._running = False
        self._in_comm_phase = False
        self._baseline_throughput: Optional[float] = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Establish connections (visible to eBPF) and begin cycling."""
        if self._running:
            return
        self._running = True
        self._establish_connections()
        self._begin_compute()

    def stop(self) -> None:
        """Tear the job down: destroy QPs, clear traffic."""
        if not self._running:
            return
        self._running = False
        self.traffic.clear()
        for conn in self.connections:
            self._destroy_connection(conn)
        self.cluster.holds.release(self._owner)

    def _pairs(self) -> list[tuple[str, str]]:
        n = len(self.participants)
        if self.config.pattern == CommPattern.ALLREDUCE:
            return [(self.participants[i], self.participants[(i + 1) % n])
                    for i in range(n)]
        return [(a, b) for a in self.participants
                for b in self.participants if a != b]

    def _establish_connections(self) -> None:
        for src, dst in self._pairs():
            conn = DmlConnection(
                src, dst, self.rng.randint(MIN_SRC_PORT, MAX_SRC_PORT))
            self._connect(conn)
            self.connections.append(conn)

    def _connect(self, conn: DmlConnection) -> None:
        src_rnic = self.cluster.rnic(conn.src_rnic)
        dst_rnic = self.cluster.rnic(conn.dst_rnic)
        src_host = self.cluster.host_of_rnic(conn.src_rnic)
        dst_host = self.cluster.host_of_rnic(conn.dst_rnic)
        conn.src_qp = src_host.verbs.create_qp(src_rnic, QPType.RC)
        conn.dst_qp = dst_host.verbs.create_qp(dst_rnic, QPType.RC)
        src_host.verbs.connect_qp(
            src_rnic, conn.src_qp,
            CommInfo(ip=dst_rnic.ip, gid=dst_rnic.gid.value,
                     qpn=conn.dst_qp.qpn),
            conn.src_port)
        dst_host.verbs.connect_qp(
            dst_rnic, conn.dst_qp,
            CommInfo(ip=src_rnic.ip, gid=src_rnic.gid.value,
                     qpn=conn.src_qp.qpn),
            conn.src_port)

    def _destroy_connection(self, conn: DmlConnection) -> None:
        if conn.src_qp is not None:
            src_host = self.cluster.host_of_rnic(conn.src_rnic)
            src_host.verbs.destroy_qp(self.cluster.rnic(conn.src_rnic),
                                      conn.src_qp)
            conn.src_qp = None
        if conn.dst_qp is not None:
            dst_host = self.cluster.host_of_rnic(conn.dst_rnic)
            dst_host.verbs.destroy_qp(self.cluster.rnic(conn.dst_rnic),
                                      conn.dst_qp)
            conn.dst_qp = None

    def reroute_connection(self, conn: DmlConnection,
                           new_src_port: int) -> None:
        """§7.3 load-balancing guidance: modify_qp onto a new source port;
        Service Tracing picks up the new 5-tuple automatically."""
        conn.src_port = new_src_port
        src_host = self.cluster.host_of_rnic(conn.src_rnic)
        src_host.verbs.reroute_qp(self.cluster.rnic(conn.src_rnic),
                                  conn.src_qp, new_src_port)

    # -- Figure 9 hook ------------------------------------------------------------

    def set_compute_degradation(self, decay_per_cycle: float) -> None:
        """Training-code bug: compute speed decays a bit every cycle."""
        if not 0.0 <= decay_per_cycle < 1.0:
            raise ValueError("decay must be in [0, 1)")
        self._compute_decay_per_cycle = decay_per_cycle

    # -- the training cycle -----------------------------------------------------------

    def _set_participant_load(self, load: float) -> None:
        hosts = dict.fromkeys(self.cluster.host_name_of[name]
                              for name in self.participants)
        for host in hosts:
            self.cluster.holds.hold(self._owner, self.cluster.hosts[host],
                                    "cpu_load", load)

    def _begin_compute(self) -> None:
        if not self._running or self.task_failed:
            return
        self._in_comm_phase = False
        self.traffic.clear()
        self._set_participant_load(self.config.compute_cpu_load)
        duration = round(self.config.compute_time_ns
                         / max(self.compute_speed_factor, 1e-6))
        self._cycle_started_ns = self.cluster.sim.now
        self.cluster.sim.call_later(duration, self._begin_comm)

    def _begin_comm(self) -> None:
        if not self._running or self.task_failed:
            return
        self._in_comm_phase = True
        self._set_participant_load(self.config.comm_cpu_load)

        flows = []
        penalties = []
        for conn in self.connections:
            if conn.broken:
                continue
            verdict = self._path_health(conn)
            if verdict == "dead":
                # Permanent blackness (dead endpoint, misconfig, deadlock):
                # no retransmission budget survives it — the connection
                # breaks and the training task fails (Table 2 *).
                conn.broken = True
                self._fail_task()
                return
            if verdict == "flapping":
                # Transient blackness: with the §7.1 mitigation (max
                # retransmission count, long timeout) the connection limps
                # through at residual throughput; untuned, it breaks.
                if not self.config.retransmission_tuned:
                    conn.broken = True
                    self._fail_task()
                    return
                penalties.append(FLAPPING_RESIDUAL_FACTOR)
                continue                  # stalled: contributes no traffic
            penalty = verdict
            penalties.append(penalty)
            src_rnic = self.cluster.rnic(conn.src_rnic)
            dst_rnic = self.cluster.rnic(conn.dst_rnic)
            flows.append(Flow(
                five_tuple=roce_five_tuple(src_rnic.ip, dst_rnic.ip,
                                           conn.src_port),
                src_port_node=conn.src_rnic,
                demand_gbps=self.config.per_flow_demand_gbps))

        self.traffic.apply(flows)
        goodputs = [f.goodput_gbps for f in flows]
        effective = [g * p for g, p in zip(goodputs, penalties)] or [0.0]
        # Barrel effect: the slowest connection paces the whole cycle.
        slowest = max(min(effective),
                      self.config.per_flow_demand_gbps / MAX_STRETCH)
        comm_ns = round(self.config.data_gbits_per_cycle / slowest * SECOND)
        self.cluster.sim.call_later(comm_ns, self._end_comm)

    def _path_health(self, conn: DmlConnection):
        """The connection path's current health.

        Returns one of:

        * ``"dead"`` — permanently black (dead endpoint, missing routing
          or GID config, ACL deny, PFC deadlock, hard link-down): no retry
          budget survives; the connection breaks.
        * ``"flapping"`` — transiently black: up/down oscillation loses
          packets across the whole window, but retries during up-phases
          can succeed, so the §7.1 retransmission mitigation saves it.
        * a float throughput factor — lossy-but-alive path (go-back-N
          collapse under corruption).
        """
        now = self.cluster.sim.now
        src_rnic = self.cluster.rnic(conn.src_rnic)
        dst_rnic = self.cluster.rnic(conn.dst_rnic)
        for rnic in (src_rnic, dst_rnic):
            if not rnic.operational:
                return "flapping" if rnic.flapped_recently(now) else "dead"
        if not src_rnic.routing_configured or not src_rnic.gid_index_present:
            return "dead"
        if not dst_rnic.gid_index_present:
            return "dead"
        flapping = (src_rnic.flapped_recently(now)
                    or dst_rnic.flapped_recently(now))

        five_tuple = roce_five_tuple(src_rnic.ip, dst_rnic.ip, conn.src_port)
        path = self.cluster.fabric.path_of(five_tuple, conn.src_rnic)
        drop_prob = src_rnic.tx_corruption_prob + dst_rnic.rx_corruption_prob
        topo = self.cluster.topology
        for a, b in zip(path, path[1:]):
            link = topo.links[(a, b)]
            if not link.up:
                if link.pair.flapped_recently(now):
                    flapping = True
                else:
                    return "dead"
            if link.pfc_deadlocked:
                return "dead"
            if not topo.nodes[b].acl.permits(five_tuple) \
                    and topo.nodes[b].is_switch:
                return "dead"
            if link.pair.flapped_recently(now):
                flapping = True
            drop_prob += link.corruption_drop_prob
        drop_prob = min(drop_prob, 1.0)
        if flapping:
            return "flapping"
        if drop_prob >= BREAKING_DROP_PROB \
                and not self.config.retransmission_tuned:
            return "dead"
        # Go-back-N: every lost packet retransmits a window.
        return max(FLAPPING_RESIDUAL_FACTOR,
                   (1.0 - drop_prob) ** GO_BACK_N_WINDOW)

    def _end_comm(self) -> None:
        if not self._running or self.task_failed:
            return
        self._in_comm_phase = False
        now = self.cluster.sim.now
        cycle_ns = now - self._cycle_started_ns
        live = sum(1 for c in self.connections if not c.broken)
        total_gbits = self.config.data_gbits_per_cycle * live
        throughput = total_gbits / (cycle_ns / SECOND) if cycle_ns else 0.0
        self.throughput.record(now, throughput)
        if self._baseline_throughput is None and self.cycles_completed >= 2:
            self._baseline_throughput = throughput
        self.cycles_completed += 1
        self.compute_speed_factor *= (1.0 - self._compute_decay_per_cycle)

        self.traffic.clear()
        if (self.config.checkpoint_every_cycles
                and self.cycles_completed
                % self.config.checkpoint_every_cycles == 0):
            self._begin_checkpoint()
        else:
            self._begin_compute()

    def _begin_checkpoint(self) -> None:
        """TCP checkpoint upload: RoCE idle, CPUs pinned (Figure 5)."""
        now = self.cluster.sim.now
        self.checkpoint_windows.append(
            (now, now + self.config.checkpoint_duration_ns))
        self._set_participant_load(self.config.checkpoint_cpu_load)
        self.cluster.sim.call_later(self.config.checkpoint_duration_ns,
                                    self._begin_compute)

    def _fail_task(self) -> None:
        """A broken connection fails the whole training task (§2.1)."""
        self.task_failed = True
        self._running = False
        self.traffic.clear()
        self.throughput.record(self.cluster.sim.now, 0.0)
        self.cluster.holds.release(self._owner)

    # -- ServiceMonitor protocol (§4.3.4) ---------------------------------------------

    def current_throughput(self) -> Optional[float]:
        """Most recent cycle's training throughput (Gbit/s of gradients)."""
        if not self.throughput.values:
            return None
        return self.throughput.values[-1]

    def degraded(self) -> bool:
        """Whether the service metric breaches the team's threshold."""
        if self.task_failed:
            return True
        current = self.current_throughput()
        if current is None or self._baseline_throughput is None:
            return False
        return current < (self.config.degradation_threshold
                          * self._baseline_throughput)

    @property
    def in_comm_phase(self) -> bool:
        """Whether the job is currently in a communicate phase."""
        return self._in_comm_phase
