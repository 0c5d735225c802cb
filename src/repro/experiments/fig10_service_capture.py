"""Figure 10: Service Tracing captures periodic All2All congestion.

DML alternates compute (network idle) and All2All communication (heavy
congestion) every few seconds.  With 10 ms probing and per-round pinglist
shuffling, the probes sent by one RNIC sample every path at random phases,
so RTT samples during communication phases are visibly higher — the
figure's periodic sawtooth.

We bucket each service-tracing probe of one RNIC by whether it was issued
during a communicate phase, and compare the two RTT distributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.records import ProbeKind
from repro.experiments.common import deploy
from repro.services.dml import CommPattern, DmlConfig, DmlJob
from repro.sim.stats import PercentileTracker
from repro.sim.units import MILLISECOND, seconds


@dataclass
class ServiceCaptureResult:
    """Figure 10 reproduction."""

    rtt_samples: list[tuple[float, float]] = field(default_factory=list)
    comm_windows_s: list[tuple[float, float]] = field(default_factory=list)
    comm_rtt_p90_us: float = 0.0
    idle_rtt_p90_us: float = 0.0
    comm_phase_sampled: int = 0
    idle_phase_sampled: int = 0

    @property
    def congestion_contrast(self) -> float:
        """comm-phase P90 over idle-phase P90; >> 1 means captured."""
        return self.comm_rtt_p90_us / max(self.idle_rtt_p90_us, 1e-9)


def run(*, seed: int = 11, duration_s: int = 60) -> ServiceCaptureResult:
    """Run an All2All job and bucket one RNIC's service-tracing RTTs."""
    cluster, system, *_ = deploy(seed=seed)
    captured = []
    system.analyzer.add_upload_listener(
        lambda batch: captured.extend(batch.results))
    job = DmlJob(cluster, cluster.rnic_names()[:8],
                 DmlConfig(pattern=CommPattern.ALL2ALL,
                           compute_time_ns=800 * MILLISECOND,
                           data_gbits_per_cycle=8.0))
    cluster.sim.run_for(seconds(3))

    comm_windows: list[tuple[int, int]] = []
    _orig_begin = job._begin_comm
    _orig_end = job._end_comm
    state = {"start": None}

    def begin_comm():
        state["start"] = cluster.sim.now
        _orig_begin()

    def end_comm():
        if state["start"] is not None:
            comm_windows.append((state["start"], cluster.sim.now))
            state["start"] = None
        _orig_end()

    job._begin_comm = begin_comm
    job._end_comm = end_comm
    job.start()
    cluster.sim.run_for(seconds(duration_s))

    watched_rnic = job.participants[0]

    result = ServiceCaptureResult()
    result.comm_windows_s = [(a / 1e9, b / 1e9) for a, b in comm_windows]

    def in_comm_phase(t_ns: int) -> bool:
        return any(a <= t_ns < b for a, b in comm_windows)

    comm_rtts, idle_rtts = PercentileTracker(), PercentileTracker()
    for res in captured:
        if (res.kind != ProbeKind.SERVICE_TRACING
                or res.prober_rnic != watched_rnic
                or res.network_rtt_ns is None):
            continue
        result.rtt_samples.append(
            (res.issued_at_ns / 1e9, res.network_rtt_ns / 1000))
        if in_comm_phase(res.issued_at_ns):
            comm_rtts.add(float(res.network_rtt_ns))
        else:
            idle_rtts.add(float(res.network_rtt_ns))
    result.comm_phase_sampled = len(comm_rtts)
    result.idle_phase_sampled = len(idle_rtts)
    if len(comm_rtts):
        result.comm_rtt_p90_us = comm_rtts.percentile(90) / 1000
    if len(idle_rtts):
        result.idle_rtt_p90_us = idle_rtts.percentile(90) / 1000
    return result
