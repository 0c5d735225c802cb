"""Two-tier sharded control plane (DESIGN.md §11).

The paper's deployment spans tens of thousands of RNICs; one Controller /
Analyzer pair holding every probe result in RAM caps how far scenarios
scale.  This module splits both along the fabric's natural seam — the pod:

* :class:`ControllerShard` — a scoped :class:`~repro.core.controller.
  Controller` owning registration, CommInfo, and pinglist generation for
  the ToRs of one pod group, plus the inter-pod tuple slice sourced
  there.  Registrations replicate through the :class:`RootController` so
  every shard can resolve cross-pod targets.
* :class:`AnalyzerShard` — a scoped :class:`~repro.core.analyzer.
  Analyzer` ingesting its pod's uploads.  Each window it *gathers* its
  pod's :class:`~repro.core.analyzer.WindowEvidence`, ships it to the
  root as a :class:`ShardWindowSummary` — mergeable plain data (vote
  tallies, SLA counts, quantile-sketch states), never raw
  ``ProbeResult``s — concludes its own pod-local view from the same
  evidence, and trims that to ``shard_window_retention`` windows.
* :class:`RootAnalyzer` — an :class:`~repro.core.analyzer.Analyzer`
  that ingests summaries instead of uploads: once every shard has
  reported a window it *concludes* over their evidence with the base
  class's code, then broadcasts the fused cluster state (down hosts,
  quarantines) back to the shards, which apply it from the next window
  on (one-window lag).

Everything crosses the simulated management network as messages; with the
default inline transport the sharded system stays fully deterministic.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Optional

from repro.cluster import Cluster
from repro.controlplane.clients import ANALYZER_ENDPOINT, CONTROLLER_ENDPOINT
from repro.controlplane.endpoint import Endpoint
from repro.controlplane.transport import ManagementNetwork
from repro.core.analyzer import (Analyzer, ServiceMonitor, SideTally,
                                 WindowAnalysis, WindowEvidence)
from repro.core.config import RPingmeshConfig
from repro.core.controller import CommRegistry, Controller
from repro.core.records import Problem
from repro.core.sla import SlaReport, SlaWindow, as_sketch
from repro.diagnosis.inband import slice_links
from repro.host.rnic import CommInfo
from repro.sim.sketch import QuantileSketch


def controller_shard_endpoint(index: int) -> str:
    """Management-network endpoint name of one controller shard."""
    return f"controller.shard{index}"


def analyzer_shard_endpoint(index: int) -> str:
    """Management-network endpoint name of one analyzer shard."""
    return f"analyzer.shard{index}"


# -- pod partitioning ----------------------------------------------------------


def pod_of_tor(tor: str) -> str:
    """The pod group a ToR-tier switch belongs to.

    Clos switches are named ``pod{p}-tor{t}`` so the prefix is the pod;
    rail switches (``rail{r}``) have no pod tier and each forms its own
    group, which degrades gracefully to per-switch sharding.
    """
    return tor.split("-", 1)[0] if "-" in tor else tor


@dataclass(frozen=True, slots=True)
class PodMap:
    """Assignment of ToR switches to shards (pods never split)."""

    shard_tors: tuple[tuple[str, ...], ...]

    @classmethod
    def build(cls, cluster: Cluster, shard_count: int) -> "PodMap":
        """Group ToRs by pod, then deal pod groups round-robin.

        Requesting more shards than pods yields one shard per pod — a
        shard with no ToRs would be dead weight.
        """
        pods: dict[str, list[str]] = {}
        for tor in cluster.tors():  # sorted by Topology.switches
            pods.setdefault(pod_of_tor(tor), []).append(tor)
        groups = [tuple(pods[name]) for name in sorted(pods)]
        count = max(1, min(shard_count, len(groups)))
        assigned: list[list[str]] = [[] for _ in range(count)]
        for i, group in enumerate(groups):
            assigned[i % count].extend(group)
        return cls(tuple(tuple(tors) for tors in assigned))

    @property
    def shard_count(self) -> int:
        return len(self.shard_tors)

    def shard_of_tor(self, tor: str) -> int:
        """Which shard owns a ToR."""
        for index, tors in enumerate(self.shard_tors):
            if tor in tors:
                return index
        raise KeyError(f"no shard owns ToR {tor!r}")

    def shard_of_host(self, cluster: Cluster, host_name: str) -> int:
        """Which shard serves a host (by its first RNIC's ToR)."""
        host = cluster.hosts[host_name]
        return self.shard_of_tor(cluster.tor_of(host.rnics[0].name))


def _shard_sum(counter: str) -> property:
    """A root's read-only view of one counter: the sum over its shards."""
    read = attrgetter(counter)
    return property(lambda self: sum(map(read, self.shards)))


# -- the wire form --------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ScopeSlaSummary:
    """One scope's SLA numbers as mergeable plain data.

    Counts are exact integers (sums merge them); percentile distributions
    travel as :meth:`QuantileSketch.state` forms, whose bucket-wise merge
    is order-independent.
    """

    probes_total: int
    probes_ok: int
    timeouts_rnic: int
    timeouts_switch: int
    timeouts_non_network: int
    rtt_sketch: tuple[tuple[str, Any], ...]
    processing_sketch: tuple[tuple[str, Any], ...]

    @classmethod
    def of(cls, window: SlaWindow) -> "ScopeSlaSummary":
        return cls(
            window.probes_total, window.probes_ok, window.timeouts_rnic,
            window.timeouts_switch, window.timeouts_non_network,
            rtt_sketch=tuple(sorted(as_sketch(window.rtt).state().items())),
            processing_sketch=tuple(sorted(
                as_sketch(window.processing).state().items())))

    def fill(self, window: SlaWindow) -> None:
        """Write these numbers into a fresh SlaWindow."""
        window.probes_total = self.probes_total
        window.probes_ok = self.probes_ok
        window.timeouts_rnic = self.timeouts_rnic
        window.timeouts_switch = self.timeouts_switch
        window.timeouts_non_network = self.timeouts_non_network
        window.rtt = QuantileSketch.from_state(dict(self.rtt_sketch))
        window.processing = QuantileSketch.from_state(
            dict(self.processing_sketch))


@dataclass(frozen=True, slots=True)
class ShardWindowSummary:
    """One shard's :class:`WindowEvidence` as it crosses the network.

    This is the *only* thing shards ship upward — bounded plain data
    regardless of probe volume, unlike the raw ``ProbeResult`` stream.
    Made by :meth:`of` where the shard sends and turned back by
    :meth:`evidence` where the root fuses, and nowhere else.
    """

    shard: int
    window_start_ns: int
    window_end_ns: int
    results_processed: int
    down_hosts: tuple[str, ...]
    qpn_reset_timeouts: int
    anomalous_rnics: tuple[str, ...]
    cpu_noise_hosts: tuple[str, ...]
    quarantined: tuple[tuple[str, int], ...]   # rnic -> quarantined-until ns
    problems: tuple[Problem, ...]              # host-down + RNIC (copies)
    latency_problems: tuple[Problem, ...]      # (copies)
    # Per side (cluster, service): (sorted vote items, paths, anomalies),
    # ungated — the root applies the threshold to the summed count.
    tallies: tuple[tuple[tuple[tuple[str, int], ...], int, int], ...]
    service_members: tuple[str, ...]           # seen *this* window
    cluster_sla: ScopeSlaSummary
    service_sla: ScopeSlaSummary
    # This shard's pod-owned slice of the window's INT link evidence
    # (repro.diagnosis.inband.IntLinkEvidence records) — bounded by the
    # collector's top-K, disjoint across shards, merged at the root.
    int_links: tuple = ()

    @classmethod
    def of(cls, shard: int, evidence: WindowEvidence,
           quarantined: dict[str, int]) -> "ShardWindowSummary":
        assert evidence.sla is not None
        return cls(
            shard=shard,
            window_start_ns=evidence.window_start_ns,
            window_end_ns=evidence.window_end_ns,
            results_processed=evidence.results_processed,
            down_hosts=tuple(sorted(evidence.down_hosts)),
            qpn_reset_timeouts=evidence.qpn_reset_timeouts,
            anomalous_rnics=tuple(sorted(evidence.anomalous_rnics)),
            cpu_noise_hosts=tuple(sorted(evidence.cpu_noise_hosts)),
            quarantined=tuple(sorted(quarantined.items())),
            # Copies: both ends conclude (and so prioritise) the same
            # verdicts; aliased Problems would leak one's edits to the other.
            problems=tuple(dataclasses.replace(p)
                           for p in evidence.problems),
            latency_problems=tuple(dataclasses.replace(p)
                                   for p in evidence.latency_problems),
            tallies=tuple((tuple(sorted(t.votes.items())), t.paths,
                           t.anomalies) for t in evidence.tallies),
            service_members=evidence.service_members,
            cluster_sla=ScopeSlaSummary.of(evidence.sla.cluster),
            service_sla=ScopeSlaSummary.of(evidence.sla.service),
            int_links=evidence.int_links)

    def evidence(self) -> WindowEvidence:
        """The evidence this summary carries, ready to conclude over."""
        sla = SlaReport(self.window_start_ns, self.window_end_ns)
        self.cluster_sla.fill(sla.cluster)
        self.service_sla.fill(sla.service)
        cluster, service = (SideTally(Counter(dict(votes)), paths, anomalies)
                            for votes, paths, anomalies in self.tallies)
        return WindowEvidence(
            window_start_ns=self.window_start_ns,
            window_end_ns=self.window_end_ns,
            results_processed=self.results_processed,
            down_hosts=set(self.down_hosts),
            qpn_reset_timeouts=self.qpn_reset_timeouts,
            anomalous_rnics=set(self.anomalous_rnics),
            cpu_noise_hosts=set(self.cpu_noise_hosts),
            problems=list(self.problems),
            latency_problems=list(self.latency_problems),
            tallies=(cluster, service),
            sla=sla,
            service_members=self.service_members,
            int_links=self.int_links)


# -- controller tier -----------------------------------------------------------


class ControllerShard(Controller):
    """A Controller scoped to one pod group's ToRs.

    Owns its pod's registrations, ToR-mesh pinglists, and the inter-ToR
    tuples *sourced* in its pod (destinations range over the whole
    fabric, so inter-pod paths stay covered).  Registry writes replicate
    through the root so peer shards can resolve cross-pod targets.
    """

    def __init__(self, cluster: Cluster, config: RPingmeshConfig, rng,
                 shard_index: int, tors: tuple[str, ...]):
        super().__init__(cluster, config, rng,
                         endpoint_name=controller_shard_endpoint(shard_index),
                         scope=tors)
        self.shard_index = shard_index

    def bind(self, network: ManagementNetwork) -> Endpoint:
        endpoint = super().bind(network)
        endpoint.on("registry_delta", self._handle_registry_delta)
        return endpoint

    def register_host(self, host: str, agent_endpoint: str,
                      comm_infos: dict[str, CommInfo]) -> None:
        super().register_host(host, agent_endpoint, comm_infos)
        assert self.endpoint is not None
        self.endpoint.send(CONTROLLER_ENDPOINT, "replicate_registry", {
            "shard": self.shard_index, "comm_infos": dict(comm_infos)})

    def update_comm_info(self, rnic_name: str, info: CommInfo) -> None:
        super().update_comm_info(rnic_name, info)
        if self.endpoint is not None:
            self.endpoint.send(CONTROLLER_ENDPOINT, "replicate_registry", {
                "shard": self.shard_index, "comm_infos": {rnic_name: info}})

    def _handle_registry_delta(self, payload: dict) -> None:
        """Peer-pod registry entries relayed by the root.

        Merged without taking ownership (no agent endpoint here); a
        late-arriving cross-pod registration still refreshes this shard's
        pinglists so inter-pod tuples targeting the newcomer un-filter —
        the sharded analogue of the single controller's late-registration
        refresh.
        """
        comm_infos: dict[str, CommInfo] = payload["comm_infos"]
        fresh = []
        for rnic_name in sorted(comm_infos):
            if rnic_name not in self._registry:
                fresh.append(rnic_name)
            self._store(rnic_name, comm_infos[rnic_name])
        if self._started and fresh:
            if self.config.incremental_pinglists:
                self._push_delta(fresh)
            else:
                self.push_pinglists()


class RootController(CommRegistry):
    """The thin root of the controller tier.

    Holds the fused registry, relays registry deltas between shards, and
    answers ``resolve_ip`` on the legacy ``"controller"`` endpoint for
    anything not wired to a shard.  It generates no pinglists itself —
    that work is entirely sharded.
    """

    def __init__(self, shards: list[ControllerShard]):
        super().__init__()
        self.shards = shards
        self.endpoint: Optional[Endpoint] = None
        self._started = False

    # -- wiring -----------------------------------------------------------------

    def bind(self, network: ManagementNetwork) -> Endpoint:
        """Attach the root endpoint and bind every shard."""
        self.endpoint = (
            Endpoint(CONTROLLER_ENDPOINT, network)
            .on("replicate_registry", self._handle_replicate)
            .on("resolve_ip", self.resolve_ip))
        for shard in self.shards:
            shard.bind(network)
        return self.endpoint

    def start(self) -> None:
        """Start every shard's pinglist generation (root has no loop)."""
        if self._started:
            return
        self._started = True
        for shard in self.shards:
            shard.start()

    def _handle_replicate(self, payload: dict) -> None:
        comm_infos: dict[str, CommInfo] = payload["comm_infos"]
        for rnic_name in sorted(comm_infos):
            self._store(rnic_name, comm_infos[rnic_name])
        assert self.endpoint is not None
        for shard in self.shards:
            if shard.shard_index != payload["shard"]:
                self.endpoint.send(shard.endpoint_name, "registry_delta",
                                   {"comm_infos": comm_infos})

    def push_pinglists(self) -> None:
        """Force a full refresh on every shard."""
        for shard in self.shards:
            shard.push_pinglists()

    pinglist_pushes = _shard_sum("pinglist_pushes")
    delta_pushes = _shard_sum("delta_pushes")
    rotations = _shard_sum("rotations")


# -- analyzer tier -------------------------------------------------------------


class AnalyzerShard(Analyzer):
    """An Analyzer scoped to one pod group's uploads.

    Gathers with the unmodified classification pipeline on pod-local
    evidence, augmented by the root's fused cluster state (remote down
    hosts and quarantines, applied with a one-window lag), ships the
    evidence upward, and keeps a trimmed pod-local view of its own."""

    def __init__(self, cluster: Cluster, controller: Controller,
                 config: RPingmeshConfig, shard_index: int):
        super().__init__(cluster, controller, config,
                         endpoint_name=analyzer_shard_endpoint(shard_index))
        self.shard_index = shard_index
        self._remote_down: set[str] = set()
        self._pods = {pod_of_tor(tor) for tor in controller.owned_tors()}

    def bind(self, network: ManagementNetwork) -> Endpoint:
        endpoint = super().bind(network)
        endpoint.on("cluster_state", self._handle_cluster_state)
        return endpoint

    def _handle_cluster_state(self, payload: dict) -> None:
        """Root broadcast after each fused window: cross-pod evidence."""
        self._remote_down = set(payload["down_hosts"])
        for rnic, until in payload["quarantined"]:
            if self._quarantined_until.get(rnic, 0) < until:
                self._quarantined_until[rnic] = until

    def _down_hosts(self, now: int) -> set[str]:
        """Pod-local silence detection plus the root's fused verdicts.

        A shard only hears uploads from its own pod, so cross-pod down
        hosts (targets of this pod's inter-ToR probes) come from the
        root's previous fusion round."""
        down = super()._down_hosts(now)
        return down | {h for h in self._remote_down
                       if h not in self._last_upload_ns}

    def _int_links(self, window_end_ns: int) -> tuple:
        """The pod-owned slice: slices are disjoint across shards, so the
        root's merge sees every link's evidence exactly once."""
        return slice_links(super()._int_links(window_end_ns), self._pods,
                           include_unowned=self.shard_index == 0)

    def analyze(self) -> WindowAnalysis:
        evidence = self.gather()
        assert self.endpoint is not None
        self.endpoint.send(
            ANALYZER_ENDPOINT, "shard_summary",
            ShardWindowSummary.of(self.shard_index, evidence,
                                  self._quarantined_until))
        window = self.conclude([evidence])
        self._trim_retention()
        return window

    def _trim_retention(self) -> None:
        """Drop windows/reports already summarised to the root."""
        keep = self.config.shard_window_retention
        if len(self.windows) > keep:
            del self.windows[:-keep]
            cutoff = self.windows[0].window_start_ns
            self.problems = [p for p in self.problems
                             if p.window_start_ns >= cutoff]
        if len(self.sla.reports) > keep:
            del self.sla.reports[:-keep]


class RootAnalyzer(Analyzer):
    """The Analyzer of the whole cluster, fed by shard summaries.

    Everything downstream of the evidence — verdicts, SLA history,
    service-network membership, priorities, window listeners — is the
    base class's; this class only collects one summary per shard per
    window, hands their evidence to :meth:`Analyzer.conclude`, and tells
    the shards what the cluster as a whole now knows."""

    def __init__(self, cluster: Cluster, controller: RootController,
                 config: RPingmeshConfig, shards: list[AnalyzerShard]):
        super().__init__(cluster, controller, config)
        self.shards = shards
        # window_end_ns -> shard index -> summary, fused once complete.
        self._summaries: dict[int, dict[int, ShardWindowSummary]] = {}

    # -- wiring -----------------------------------------------------------------

    def bind(self, network: ManagementNetwork) -> Endpoint:
        """Attach the root endpoint and bind every shard."""
        self.endpoint = (
            Endpoint(self.endpoint_name, network)
            .on("shard_summary", self._receive_summary))
        for shard in self.shards:
            shard.bind(network)
        return self.endpoint

    def start(self) -> None:
        """Start every shard's analysis loop (fusion is arrival-driven)."""
        if self._started:
            return
        self._started = True
        for shard in self.shards:
            shard.start()

    def attach_service_monitor(self, monitor: ServiceMonitor) -> None:
        """Feed the degradation signal to the root and every shard."""
        super().attach_service_monitor(monitor)
        for shard in self.shards:
            shard.attach_service_monitor(monitor)

    def add_upload_listener(self, listener) -> None:
        """Tap the raw upload stream on every shard."""
        for shard in self.shards:
            shard.add_upload_listener(listener)

    def attach_int_evidence(self, provider) -> None:
        """Enable INT fusion: shards slice the evidence, the root fuses."""
        super().attach_int_evidence(provider)
        for shard in self.shards:
            shard.attach_int_evidence(provider)

    # -- summary collection --------------------------------------------------------

    def _receive_summary(self, summary: ShardWindowSummary) -> None:
        bucket = self._summaries.setdefault(summary.window_end_ns, {})
        bucket[summary.shard] = summary
        if len(bucket) == len(self.shards):
            # Straggler discipline: a complete window also flushes any
            # older partial ones (a dead/partitioned shard must not wedge
            # fusion forever).
            for end in sorted(self._summaries):
                if end <= summary.window_end_ns:
                    self._fuse(self._summaries.pop(end))

    def _fuse(self, summaries: dict[int, ShardWindowSummary]) -> None:
        """Conclude one window over its shards, then tell them about it."""
        ordered = [summaries[i] for i in sorted(summaries)]
        window = self.conclude([s.evidence() for s in ordered])
        quarantined: dict[str, int] = {}
        for s in ordered:
            for rnic, until in s.quarantined:
                if quarantined.get(rnic, 0) < until:
                    quarantined[rnic] = until
        payload = {
            "window_end_ns": window.window_end_ns,
            "down_hosts": tuple(sorted(window.down_hosts)),
            "quarantined": tuple(sorted(quarantined.items())),
        }
        assert self.endpoint is not None
        for shard in self.shards:
            self.endpoint.send(shard.endpoint_name, "cluster_state", payload)

    # -- per-shard sums ------------------------------------------------------------

    ingest_accepted = _shard_sum("ingest_accepted")
    ingest_dropped = _shard_sum("ingest_dropped")
    ingest_duplicates = _shard_sum("ingest_duplicates")
    ingest_backlog = _shard_sum("ingest_backlog")

    def memory_bytes(self) -> int:
        """Whole analyzer tier: fused state plus every shard's retention."""
        return super().memory_bytes() + sum(s.memory_bytes()
                                            for s in self.shards)
