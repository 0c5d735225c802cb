"""``repro.obs`` — the unified observability layer.

Three substrates, one switchboard:

* :class:`~repro.obs.tracer.Tracer` — probe-lifecycle spans (one per
  ``probe_seq``) fed by the Agent, RNIC, Fabric, PFC engine, and Analyzer;
* :class:`~repro.obs.metrics.MetricsRegistry` — deterministic counters /
  gauges / fixed-bucket histograms with a Prometheus-style exporter;
* :class:`~repro.obs.profiler.SimProfiler` — opt-in sim-engine
  instrumentation attributing events and host wall time per callback site.

:class:`Observability` bundles the three behind the single ``obs=`` knob of
:class:`~repro.core.system.RPingmesh`.  Everything defaults **off**: a
default-constructed system records nothing, schedules nothing, draws
nothing, and is bit-for-bit identical to a build without this package.
With tracing/metrics/profiling on, the layer still only *reads* the
simulation — sim state, event order, and RNG draws are untouched, so
replay digests do not change (the DESIGN.md §8 contract).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Optional

from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               LATENCY_BUCKETS_NS)
from repro.obs.profiler import SimProfiler, SiteProfile, callback_site
from repro.obs.tracer import ProbeSpan, SpanEvent, Tracer

if TYPE_CHECKING:
    from repro.cluster import Cluster

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "LATENCY_BUCKETS_NS", "SimProfiler", "SiteProfile", "callback_site",
    "ProbeSpan", "SpanEvent", "Tracer", "Observability",
]


class Observability:
    """The ``obs=`` knob: tracing + metrics + profiling for one deployment.

    One instance belongs to one cluster/system pair — sharing across
    scenarios would leak state the way process-global counters do
    (detlint DET005).  All three sub-systems default off.
    """

    def __init__(self, *, tracing: bool = False, metrics: bool = False,
                 profiling: bool = False, max_spans: int = 200_000):
        self.tracing = tracing
        self.metrics_enabled = metrics
        self.profiling = profiling
        self.tracer = Tracer(enabled=tracing, max_spans=max_spans)
        self.metrics = MetricsRegistry()
        self.profiler: Optional[SimProfiler] = (
            SimProfiler() if profiling else None)
        self._installed = False

    @property
    def enabled(self) -> bool:
        """Whether any sub-system is on."""
        return self.tracing or self.metrics_enabled or self.profiling

    # -- wiring ---------------------------------------------------------------

    def install(self, cluster: "Cluster") -> None:
        """Attach to a cluster's substrate (idempotent).

        Sets the tracer on the Fabric and every RNIC (only when tracing is
        on, so the disabled fast path stays a single ``is None`` check),
        installs the profiler on the Simulator, and registers pull-style
        metric collectors for the Fabric and RNIC tallies.  Called by
        :class:`~repro.core.system.RPingmesh`; safe to call directly for
        bare-substrate experiments.
        """
        if self._installed:
            return
        self._installed = True
        cluster.obs = self
        if self.tracing:
            cluster.fabric.tracer = self.tracer
            for rnic in cluster.all_rnics():
                rnic.tracer = self.tracer
        if self.profiling and self.profiler is not None:
            cluster.sim.set_profiler(self.profiler)
        if self.metrics_enabled:
            self.metrics.register_collector(
                partial(self._collect_substrate, cluster))

    def _collect_substrate(self, cluster: "Cluster") -> None:
        """Copy Fabric/RNIC/engine tallies into canonical metric series."""
        fabric = cluster.fabric
        self.metrics.counter("repro_fabric_packets_injected_total") \
            .value = fabric.packets_injected
        self.metrics.counter("repro_fabric_packets_delivered_total") \
            .value = fabric.packets_delivered
        for reason, count in sorted(fabric.drop_counts.items()):
            self.metrics.counter("repro_fabric_drops_total",
                                 reason=reason).value = count
        self.metrics.counter("repro_traceroute_traces_total") \
            .value = cluster.traceroute.traces_issued
        self.metrics.counter(
            "repro_traceroute_rate_limited_total",
            help="path hops lost to switch-CPU traceroute rate limiting"
        ).value = cluster.traceroute.rate_limited_hops
        self.metrics.counter("repro_sim_events_processed_total") \
            .value = cluster.sim.events_processed
        self.metrics.gauge("repro_sim_now_ns").set(cluster.sim.now)
        self.metrics.gauge(
            "repro_fabric_packets_in_flight",
            help="packets injected and neither delivered nor dropped yet"
        ).set(fabric.packets_in_flight)
        self.metrics.counter(
            "repro_fabric_walker_demotions_total",
            help="in-flight packets whose lookahead a mid-flight fault, "
                 "load or route write took back for per-hop evaluation"
        ).value = fabric.walker_demotions
        self.metrics.counter(
            "repro_fabric_hops_evaluated_total",
            help="hops that left the fast path: not quiet when the packet "
                 "got there, so the rule chain ran at an event of their own"
        ).value = fabric.hops_evaluated
        rnics = cluster.all_rnics()
        self.metrics.gauge(
            "repro_host_steps_planned",
            help="RNIC sends run ahead of the clock and not due yet"
        ).set(sum(len(rnic.planned()) for rnic in rnics))
        self.metrics.counter(
            "repro_host_step_demotions_total",
            help="planned RNIC sends a write to what they read took back"
        ).value = sum(rnic.step_demotions for rnic in rnics)
        for rnic in rnics:
            self.metrics.counter("repro_rnic_tx_packets_total",
                                 rnic=rnic.name).value = rnic.tx_packets
            self.metrics.counter("repro_rnic_rx_packets_total",
                                 rnic=rnic.name).value = rnic.rx_packets
            self.metrics.counter("repro_rnic_tx_bytes_total",
                                 rnic=rnic.name).value = rnic.tx_bytes
            self.metrics.counter("repro_rnic_rx_bytes_total",
                                 rnic=rnic.name).value = rnic.rx_bytes
            for reason, count in sorted(rnic.local_drops.items()):
                self.metrics.counter("repro_rnic_local_drops_total",
                                     rnic=rnic.name,
                                     reason=reason).value = count
        if self.tracing:
            for key, value in self.tracer.summary().items():
                self.metrics.gauge(f"repro_obs_{key}").set(value)
