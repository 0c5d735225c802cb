"""Figure 2: Pingmesh's software TCP RTT tracks host CPU load.

The paper shows P99 software RTT in a production cluster fluctuating with
the hosts' average load — the motivating defect of software timestamping.
We sweep host load up and down and report the P99 software RTT per epoch,
alongside R-Pingmesh's hardware-timestamped network RTT over the same
timeline for contrast (which must stay flat).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.diagnosis.pingmesh import TcpPingmesh
from repro.experiments.common import deploy
from repro.sim.units import seconds


@dataclass
class LoadEpoch:
    """One load level and the RTTs measured during it."""

    load: float
    pingmesh_p99_us: float
    rpingmesh_rtt_p99_us: float


@dataclass
class PingmeshLoadResult:
    """Figure 2 reproduction."""

    epochs: list[LoadEpoch] = field(default_factory=list)

    @property
    def pingmesh_swing(self) -> float:
        """max/min of the baseline's P99 across load levels."""
        values = [e.pingmesh_p99_us for e in self.epochs]
        return max(values) / min(values)

    @property
    def rpingmesh_swing(self) -> float:
        """max/min of R-Pingmesh's network RTT P99 — should stay ~1."""
        values = [e.rpingmesh_rtt_p99_us for e in self.epochs]
        return max(values) / min(values)


def run(*, seed: int = 2,
        loads: tuple[float, ...] = (0.1, 0.5, 0.9, 0.5, 0.1),
        epoch_s: int = 25) -> PingmeshLoadResult:
    """Sweep host CPU load and measure both systems' P99."""
    cluster, system, *_ = deploy(seed=seed)
    pingmesh = TcpPingmesh(cluster)
    pingmesh.start()

    result = PingmeshLoadResult()
    sweep = cluster.holds.owner("fig02")
    for load in loads:
        for host in cluster.hosts.values():
            cluster.holds.hold(sweep, host, "cpu_load", load)
        mark = cluster.sim.now
        cluster.sim.run_for(seconds(epoch_s))
        report = system.analyzer.sla.latest()
        rtt_stats = report.cluster.rtt_percentiles()
        result.epochs.append(LoadEpoch(
            load=load,
            pingmesh_p99_us=pingmesh.rtt_percentile(99, since_ns=mark) / 1000,
            rpingmesh_rtt_p99_us=rtt_stats["p99"] / 1000))
    return result
