"""Operating parameters of R-Pingmesh.

Defaults reproduce §5 of the paper exactly:

* probe timeout 500 ms; probe/ACK payload 50 B;
* Agent uploads results every 5 s; pulls service-target comm info every 5 min;
* Controller refreshes pinglists every 5 min, rotates 20% of inter-ToR
  5-tuples every hour;
* ToR-mesh probing at 10 pps per RNIC; inter-ToR frequency sized so every
  link above the ToRs carries >10 probes/s per direction;
* Service Tracing probes every 10 ms;
* Analyzer period 20 s; an RNIC with >10% ToR-mesh timeouts is anomalous
  and quarantined for 1 minute; a host silent for >20 s is down.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.units import MILLISECOND, MINUTE, SECOND, HOUR, MICROSECOND


@dataclass
class RPingmeshConfig:
    """All tunables, paper defaults."""

    # Agent (§5)
    probe_timeout_ns: int = 500 * MILLISECOND
    probe_payload_bytes: int = 50
    upload_interval_ns: int = 5 * SECOND
    comm_info_refresh_ns: int = 5 * MINUTE
    tor_mesh_pps: float = 10.0
    service_probe_interval_ns: int = 10 * MILLISECOND
    trace_interval_ns: int = 10 * SECOND       # per-5-tuple traceroute cadence

    # Controller (§4.1, §5)
    pinglist_refresh_ns: int = 5 * MINUTE
    rotation_interval_ns: int = 1 * HOUR
    rotation_fraction: float = 0.20
    coverage_probability: float = 0.99         # P in Equation 1
    target_link_pps: float = 10.0              # per inter-ToR link direction

    # Analyzer (§5, §4.3)
    analysis_period_ns: int = 20 * SECOND
    host_down_silence_ns: int = 20 * SECOND
    rnic_timeout_threshold: float = 0.10       # ToR-mesh anomaly cut
    rnic_quarantine_ns: int = 1 * MINUTE
    min_anomalies_for_localization: int = 3
    # High-RTT / high-processing-delay anomaly cuts.  RoCE RTT is normally
    # tens of microseconds; congestion pushes tails far beyond.
    high_rtt_threshold_ns: int = 200 * MICROSECOND
    high_processing_delay_ns: int = 200 * MICROSECOND
    # Figure-6 false-positive filters (§6 "Localization accuracy"):
    cpu_fp_filter_enabled: bool = True
    # multi-RNIC rule: >= this many simultaneously-anomalous RNICs on one
    # host is implausible as independent hardware failure.
    cpu_fp_min_rnics: int = 2

    # Control plane / management network (§4.2.3).  The zero defaults make
    # the transport deliver inline with no RNG draws, reproducing direct
    # in-process calls bit-for-bit; raise them to exercise control-plane
    # degradation (slow registrations, lost uploads, stale pinglists).
    control_latency_ns: int = 0
    control_jitter_ns: int = 0
    control_loss_prob: float = 0.0
    # Agent upload path: ack expiry before a resend (doubling up to the
    # cap) and the bounded resend buffer of unacked 5-second batches.
    upload_ack_timeout_ns: int = 1 * SECOND
    upload_backoff_max_ns: int = 16 * SECOND
    upload_resend_buffer: int = 64
    # Analyzer ingest queue bound (batches per analysis window); arrivals
    # beyond it are dropped and accounted, not silently absorbed.  In the
    # sharded deployment the bound applies *per shard*.
    analyzer_ingest_capacity: int = 4096

    # Scale-out control plane (DESIGN.md §11).  ``shards`` > 1 deploys
    # per-pod ControllerShard/AnalyzerShard pairs under a RootController /
    # RootAnalyzer; 1 (default) keeps the single-pair wiring bit-for-bit
    # identical to the pre-sharding system.
    shards: int = 1
    # SLA percentile storage: False = exact PercentileTracker retention
    # (every sample kept per window); True = fixed-memory mergeable
    # QuantileSketch (1 % relative accuracy, the sketch's own default).
    sla_sketch: bool = False
    # Incremental pinglist maintenance: registry deltas patch only the
    # affected ToR-mesh entries and push only the affected agents, instead
    # of regenerating and re-pushing every pinglist.  Off by default (the
    # full-regeneration RNG draw sequence is golden-digest locked).
    incremental_pinglists: bool = False
    # How many analysed windows / SLA reports an AnalyzerShard retains
    # locally after shipping its summary to the RootAnalyzer.
    shard_window_retention: int = 8

    # Diagnosis backends (repro.diagnosis, DESIGN.md §14) deployed with
    # the system.  The default ("probe",) is the paper's pipeline viewed
    # through the backend protocol — pure observation, byte-identical to
    # a build without the subsystem.  Add "int" for in-band telemetry
    # (+ Analyzer fusion) or "pingmesh" for the TCP baseline (which
    # injects real probe traffic and so perturbs replay digests).
    backends: tuple = ("probe",)

    # Ablation switches (both True in the paper's design; turning them off
    # reproduces the failure modes §4.2.3/§4.3.2 argue against):
    # ToR-mesh anomalous-RNIC detection + quarantine before localisation.
    tor_mesh_rnic_filter_enabled: bool = True
    # Continuous path tracing (False = trace only when a probe fails,
    # observing post-failure rehashed/truncated paths).
    continuous_path_tracing: bool = True

    def tor_mesh_interval_ns(self) -> int:
        """Per-RNIC ToR-mesh probing interval."""
        return round(SECOND / self.tor_mesh_pps)

    def validate(self) -> None:
        """Sanity-check parameter combinations."""
        if self.probe_timeout_ns <= 0:
            raise ValueError("probe timeout must be positive")
        if not 0.0 < self.rnic_timeout_threshold < 1.0:
            raise ValueError("rnic timeout threshold must be in (0,1)")
        if not 0.0 < self.rotation_fraction <= 1.0:
            raise ValueError("rotation fraction must be in (0,1]")
        if self.analysis_period_ns < self.upload_interval_ns:
            raise ValueError("analysis period must cover >=1 upload interval")
        if self.control_latency_ns < 0 or self.control_jitter_ns < 0:
            raise ValueError("control latency/jitter must be non-negative")
        if not 0.0 <= self.control_loss_prob < 1.0:
            raise ValueError("control loss probability must be in [0,1)")
        if self.upload_ack_timeout_ns <= 0:
            raise ValueError("upload ack timeout must be positive")
        if self.upload_backoff_max_ns < self.upload_ack_timeout_ns:
            raise ValueError("upload backoff cap must cover one ack timeout")
        if self.upload_resend_buffer < 1:
            raise ValueError("upload resend buffer must hold >=1 batch")
        if self.analyzer_ingest_capacity < 1:
            raise ValueError("analyzer ingest capacity must be >=1")
        if self.shards < 1:
            raise ValueError("shards must be >=1")
        if self.shard_window_retention < 1:
            raise ValueError("shard window retention must be >=1")
        if len(set(self.backends)) != len(self.backends):
            raise ValueError(f"duplicate backends: {self.backends}")
        from repro.diagnosis.backend import available_backends
        known = set(available_backends())
        unknown = [b for b in self.backends if b not in known]
        if unknown:
            raise ValueError(
                f"unknown backends {unknown}; available: {sorted(known)}")
