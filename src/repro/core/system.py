"""End-to-end R-Pingmesh system wiring.

:class:`RPingmesh` builds the simulated TCP management network
(:class:`~repro.controlplane.transport.ManagementNetwork`), instantiates
the Controller, the Analyzer, and one Agent per host of a
:class:`~repro.cluster.Cluster`, binds each to its control-plane
endpoint, then starts them in the paper's order: Agents register first
(the Controller registry must know every QPN), the Controller builds and
pushes pinglists, and the Analyzer begins its 20-second loop.

With the default configuration the management network delivers inline —
zero latency, zero loss, no extra simulator events, no RNG draws — so
results are bit-for-bit identical to direct in-process calls.  Raising
``control_latency_ns`` / ``control_jitter_ns`` / ``control_loss_prob``
(or partitioning endpoints through ``system.network``) degrades only the
control plane, never the RoCE data plane being monitored.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.cluster import Cluster
from repro.controlplane.clients import ANALYZER_ENDPOINT, CONTROLLER_ENDPOINT
from repro.controlplane.transport import LinkProfile, ManagementNetwork
from repro.core.agent import Agent
from repro.core.analyzer import Analyzer, ServiceMonitor
from repro.core.config import RPingmeshConfig
from repro.core.controller import Controller
from repro.core.records import UploadDigest
from repro.core.sharding import (AnalyzerShard, ControllerShard, PodMap,
                                 RootAnalyzer, RootController,
                                 analyzer_shard_endpoint,
                                 controller_shard_endpoint)
from repro.diagnosis.backend import DiagnosisBackend, create_backend
from repro.obs import Observability


class RPingmesh:
    """The deployed system on one cluster.

    ``obs`` is the single observability knob (DESIGN.md §8): pass an
    :class:`~repro.obs.Observability` with tracing / metrics / profiling
    switched on to light up the corresponding layer.  The default is
    everything off, which costs one attribute check per hook site and
    leaves behaviour bit-for-bit identical.
    """

    def __init__(self, cluster: Cluster,
                 config: Optional[RPingmeshConfig] = None, *,
                 obs: Optional[Observability] = None):
        self.cluster = cluster
        self.config = config or RPingmeshConfig()
        self.config.validate()
        self.obs = obs if obs is not None else Observability()
        self.obs.install(cluster)
        self.network = ManagementNetwork(
            cluster.sim, cluster.rngs.stream("controlplane"),
            default_profile=LinkProfile(
                latency_ns=self.config.control_latency_ns,
                jitter_ns=self.config.control_jitter_ns,
                loss_prob=self.config.control_loss_prob))
        cluster.management = self.network
        self.pod_map: Optional[PodMap] = None
        # Per-pod AnalyzerShards under a RootAnalyzer; none when unsharded.
        self.analyzer_shards: list[AnalyzerShard] = []
        if self.config.shards > 1:
            # Two-tier deployment (DESIGN.md §11): per-pod shard pairs
            # under thin roots.  Each Agent talks to its pod's shards.
            self.pod_map = PodMap.build(cluster, self.config.shards)
            controller_shards = [
                ControllerShard(
                    cluster, self.config,
                    cluster.rngs.stream(controller_shard_endpoint(i)),
                    i, tors)
                for i, tors in enumerate(self.pod_map.shard_tors)]
            self.controller = RootController(controller_shards)
            self.analyzer_shards = [
                AnalyzerShard(cluster, shard, self.config, i)
                for i, shard in enumerate(controller_shards)]
            self.analyzer: Analyzer = RootAnalyzer(
                cluster, self.controller, self.config, self.analyzer_shards)
        else:
            self.controller = Controller(cluster, self.config,
                                         cluster.rngs.stream("controller"))
            self.analyzer = Analyzer(cluster, self.controller, self.config)
        self.controller.bind(self.network)
        self.analyzer.bind(self.network)
        self.agents: dict[str, Agent] = {}
        for host_name, host in sorted(cluster.hosts.items()):
            controller_endpoint, analyzer_endpoint = \
                self._endpoints_serving(host_name)
            self.agents[host_name] = Agent(
                host, cluster, self.network, self.config,
                cluster.rngs.stream(f"agent.{host_name}"),
                controller_endpoint=controller_endpoint,
                analyzer_endpoint=analyzer_endpoint)
        # What the replay digest pins about probe results (DESIGN.md §7).
        self.upload_digest = UploadDigest()
        self.analyzer.add_upload_listener(self.upload_digest)
        # Diagnosis backends (repro.diagnosis, DESIGN.md §14): build and
        # attach each configured backend.  The default ("probe",) attaches
        # a pure-observation adapter; "int" installs the fabric collector
        # and enables Analyzer fusion.
        self.backends: dict[str, DiagnosisBackend] = {}
        for name in self.config.backends:
            backend = create_backend(name)
            backend.attach(cluster, self)
            self.backends[name] = backend
        self._started = False
        if self.obs.metrics_enabled:
            self.obs.metrics.register_collector(self._collect_system)

    def _endpoints_serving(self, host_name: str) -> tuple[str, str]:
        """The (controller, analyzer) endpoint names a host's Agent uses."""
        if self.pod_map is None:
            return CONTROLLER_ENDPOINT, ANALYZER_ENDPOINT
        shard = self.pod_map.shard_of_host(self.cluster, host_name)
        return controller_shard_endpoint(shard), analyzer_shard_endpoint(shard)

    def start(self) -> None:
        """Bring the whole system up (idempotent).

        Backends start *before* the Analyzer: both tick every
        ``analysis_period_ns``, and the engine preserves schedule order
        at equal timestamps, so a backend's window close (e.g. the INT
        drain) always lands before the ``analyze()`` that fuses it.
        """
        if self._started:
            return
        self._started = True
        for agent in self.agents.values():
            agent.start()
        self.controller.start()
        for name in self.config.backends:
            self.backends[name].start()
        self.analyzer.start()

    def attach_service_monitor(self, monitor: ServiceMonitor) -> None:
        """Forward the service metric feed to the Analyzer."""
        self.analyzer.attach_service_monitor(monitor)

    def agent_for_rnic(self, rnic_name: str) -> Agent:
        """The Agent managing a given RNIC."""
        host = self.cluster.host_of_rnic(rnic_name)
        return self.agents[host.name]

    def control_plane_stats(self) -> dict[str, "object"]:
        """Per-endpoint control-plane counters (dashboard/CLI surface).

        With metrics on, the same numbers are exported as
        ``repro_controlplane_*{endpoint=...}`` series (see
        :meth:`metrics_snapshot`).
        """
        return {name: self.network.stats_for(name)
                for name in self.network.endpoints()}

    def metrics_snapshot(self) -> dict[str, "object"]:
        """Run collectors and return the flat, sorted metrics snapshot."""
        return self.obs.metrics.snapshot()

    def _collect_system(self) -> None:
        """Pull-style collector: Analyzer ingest + network-wide totals."""
        m = self.obs.metrics
        m.counter("repro_analyzer_ingest_accepted_total").value = \
            self.analyzer.ingest_accepted
        m.counter("repro_analyzer_ingest_dropped_total").value = \
            self.analyzer.ingest_dropped
        m.counter("repro_analyzer_ingest_duplicates_total").value = \
            self.analyzer.ingest_duplicates
        m.gauge("repro_analyzer_ingest_backlog").set(
            self.analyzer.ingest_backlog)
        # Sharded deployments additionally expose per-shard ingest health
        # (the bounded queue is per shard, so the sums above can hide one
        # hot pod saturating its own slice).
        for shard in self.analyzer_shards:
            label = str(shard.shard_index)
            m.counter("repro_analyzer_shard_ingest_accepted_total",
                      shard=label).value = shard.ingest_accepted
            m.counter("repro_analyzer_shard_ingest_dropped_total",
                      shard=label).value = shard.ingest_dropped
            m.counter("repro_analyzer_shard_ingest_duplicates_total",
                      shard=label).value = shard.ingest_duplicates
            m.gauge("repro_analyzer_shard_ingest_backlog",
                    shard=label).set(shard.ingest_backlog)
        m.gauge("repro_analyzer_windows_analyzed").set(
            len(self.analyzer.windows))
        m.gauge("repro_analyzer_problems_total").set(
            len(self.analyzer.problems))
        for category, count in sorted(
                self.analyzer.category_counts.items(),
                key=lambda kv: kv[0].value):
            m.counter("repro_analyzer_problems_by_category_total",
                      category=category.value).value = count
        m.counter("repro_controlplane_messages_sent_total").value = \
            self.network.messages_sent
        m.counter("repro_controlplane_messages_delivered_total").value = \
            self.network.messages_delivered
        m.counter("repro_controlplane_messages_dropped_total").value = \
            self.network.messages_dropped
        self.network.export_metrics(m)
        for name, backend in sorted(self.backends.items()):
            cost = backend.cost()
            m.gauge("repro_diagnosis_verdicts",
                    backend=name).set(len(backend.verdicts()))
            m.counter("repro_diagnosis_probe_packets_total",
                      backend=name).value = cost.probe_packets
            m.counter("repro_diagnosis_probe_bytes_total",
                      backend=name).value = cost.probe_bytes
            m.counter("repro_diagnosis_telemetry_bytes_total",
                      backend=name).value = cost.telemetry_bytes
            m.counter("repro_diagnosis_events_observed_total",
                      backend=name).value = cost.events_observed
        fusion = self.analyzer.fusion
        if self.analyzer.int_provider is not None:
            m.counter("repro_fusion_sharpened_total").value = fusion.sharpened
            m.counter("repro_fusion_annotated_total").value = fusion.annotated
            m.counter("repro_fusion_added_total").value = fusion.added
            m.counter("repro_fusion_ties_broken_total").value = \
                fusion.ties_broken

    def run(self, duration_ns: int) -> None:
        """Convenience: start (if needed) and advance simulated time."""
        self.start()
        self.cluster.sim.run_for(duration_ns)


def system_state(system: RPingmesh) -> dict[str, Any]:
    """A structural snapshot of one deployed run, digest-ready.

    Only *observable behaviour* is pinned: what every probe measured, what
    the fabric dropped and forwarded, every RNG stream's draw count (plus
    the registry state digest, which also pins generator positions), and
    the conclusions the run reached.  How many simulator events it took to
    get there is deliberately not part of it (DESIGN.md §7).
    """
    cluster = system.cluster
    sim = cluster.sim
    fabric = cluster.fabric
    return {
        "sim": {
            "now": sim.now,
            "seed": sim.seed,
        },
        "rng": {
            "draw_counts": cluster.rngs.draw_counts(),
            "digest": cluster.rngs.digest(),
        },
        "fabric": {
            "injected": fabric.packets_injected,
            "delivered": fabric.packets_delivered,
            "drops": [(d.time_ns, d.reason.value, d.link, d.node)
                      for d in fabric.drops],
            "forwarded": fabric.forwarded_by_link(),
        },
        "results": {
            "count": system.upload_digest.count,
            "digest": system.upload_digest.value,
        },
        "analyzer": {
            "windows": [
                {
                    "start": w.window_start_ns,
                    "end": w.window_end_ns,
                    "results": w.results_processed,
                    "down_hosts": sorted(w.down_hosts),
                    "anomalous_rnics": sorted(w.anomalous_rnics),
                    "cpu_noise_hosts": sorted(w.cpu_noise_hosts),
                    "problems": [
                        (p.category.name, p.locus, p.detected_at_ns)
                        for p in w.problems
                    ],
                }
                for w in system.analyzer.windows
            ],
        },
        "control_plane": {
            name: {
                "sent": stats.sent, "delivered": stats.delivered,
                "dropped": stats.dropped, "retries": stats.retries,
            }
            for name, stats in sorted(system.control_plane_stats().items())
        },
    }
