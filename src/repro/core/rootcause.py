"""Automatic root-cause diagnosis (paper §7.5 "future work" #1).

R-Pingmesh detects and *locates* anomalies, but "inferring the root cause
of these anomalies requires our operators to further examine anomalous
counters and logs".  The paper proposes integrating probing results with
device counters and simple decision procedures; this module implements
that integration over the counters the simulated devices expose:

* per-port CRC error counters and up/down transition (flap) counters,
* switch PFC-watchdog/deadlock state and ACL rule tables,
* RNIC local drop counters (GID mismatch, routing failures, corruption),
* host CPU load and RNIC PCIe link speed.

Every hypothesis names the Table 2 row it corresponds to, its confidence,
and the evidence behind it — the "decision tree" the paper sketches, kept
deliberately explainable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster import Cluster
from repro.core.records import Problem, ProblemCategory

# PCIe below this fraction of nominal counts as downgraded.
PCIE_DEGRADED_FRACTION = 0.5
# CPU load above this is "overloaded" for diagnosis purposes.
CPU_OVERLOAD_LOAD = 0.75
# Flap transitions within the last few minutes that indicate flapping.
FLAP_COUNT_THRESHOLD = 4


@dataclass
class Hypothesis:
    """One candidate root cause with its evidence."""

    table2_row: int
    cause: str
    confidence: float            # 0..1, for ranking only
    evidence: str

    def __str__(self) -> str:
        return (f"#{self.table2_row} {self.cause} "
                f"(confidence {self.confidence:.0%}; {self.evidence})")


@dataclass
class Diagnosis:
    """Ranked hypotheses for one located problem."""

    problem: Problem
    hypotheses: list[Hypothesis] = field(default_factory=list)

    @property
    def best(self) -> Hypothesis | None:
        return self.hypotheses[0] if self.hypotheses else None

    def sort(self) -> None:
        self.hypotheses.sort(key=lambda h: -h.confidence)


class RootCauseAdvisor:
    """Reads device counters to explain located problems."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        # Nominal PCIe rate (what the RNICs ship with).
        self._nominal_pcie_gbps = 512.0

    def diagnose(self, problem: Problem) -> Diagnosis:
        """Produce ranked root-cause hypotheses for one problem."""
        diagnosis = Diagnosis(problem=problem)
        handler = {
            ProblemCategory.SWITCH_NETWORK_PROBLEM: self._diagnose_link,
            ProblemCategory.RNIC_PROBLEM: self._diagnose_rnic,
            ProblemCategory.HIGH_RTT: self._diagnose_high_rtt,
            ProblemCategory.HIGH_PROCESSING_DELAY: self._diagnose_host,
            ProblemCategory.HOST_DOWN: self._diagnose_host_down,
        }.get(problem.category)
        if handler is not None:
            handler(problem, diagnosis)
        if not diagnosis.hypotheses:
            diagnosis.hypotheses.append(Hypothesis(
                table2_row=0, cause="unknown — inspect device logs",
                confidence=0.1, evidence="no counter anomalies found"))
        diagnosis.sort()
        return diagnosis

    # -- switch-network problems -------------------------------------------------

    def _diagnose_link(self, problem: Problem,
                       diagnosis: Diagnosis) -> None:
        if "->" not in problem.locus:
            return
        a, b = problem.locus.split("->")
        try:
            link = self.cluster.topology.link(a, b)
        except KeyError:
            return
        pair = link.pair

        if pair.transition_count >= FLAP_COUNT_THRESHOLD:
            diagnosis.hypotheses.append(Hypothesis(
                table2_row=1, cause="switch port flapping",
                confidence=0.9,
                evidence=f"{pair.transition_count} up/down transitions "
                         f"on {pair.name}"))
        if link.crc_errors > 0:
            diagnosis.hypotheses.append(Hypothesis(
                table2_row=2,
                cause="packet corruption (damaged fiber / dusty optics)",
                confidence=0.85,
                evidence=f"{link.crc_errors} CRC errors on {link.name}"))
        if link.pfc_deadlocked:
            diagnosis.hypotheses.append(Hypothesis(
                table2_row=5, cause="PFC deadlock (watchdog not firing)",
                confidence=0.95,
                evidence=f"persistent mutual pause on {pair.name}"))
        if not link.pfc_headroom_ok:
            diagnosis.hypotheses.append(Hypothesis(
                table2_row=9,
                cause="PFC unconfigured or misconfigured headroom",
                confidence=0.8,
                evidence=f"lossy RoCE queue configured on {link.name}"))
        for node_name in (a, b):
            node = self.cluster.topology.nodes.get(node_name)
            if node is not None and node.is_switch \
                    and node.acl.rule_count > 0:
                diagnosis.hypotheses.append(Hypothesis(
                    table2_row=8, cause="switch ACL misconfiguration",
                    confidence=0.7,
                    evidence=f"{node.acl.rule_count} deny rules on "
                             f"{node_name}"))

    # -- RNIC problems -------------------------------------------------------------

    def _diagnose_rnic(self, problem: Problem,
                       diagnosis: Diagnosis) -> None:
        try:
            rnic = self.cluster.rnic(problem.locus)
        except KeyError:
            return
        drops = rnic.local_drops

        if not rnic.admin_up:
            diagnosis.hypotheses.append(Hypothesis(
                table2_row=3, cause="RNIC down", confidence=0.95,
                evidence="link state: down"))
        if rnic.flapped_recently(self.cluster.sim.now,
                                 window_ns=300_000_000_000):
            diagnosis.hypotheses.append(Hypothesis(
                table2_row=1,
                cause="RNIC flapping (check cable compatibility)",
                confidence=0.9, evidence="recent port state transitions"))
        if drops.get("routing_unconfigured", 0) > 0:
            diagnosis.hypotheses.append(Hypothesis(
                table2_row=6, cause="missing RoCE routing configuration",
                confidence=0.9,
                evidence=f"{drops['routing_unconfigured']} sends failed "
                         "to resolve a route"))
        if drops.get("gid_index_missing", 0) or drops.get("gid_mismatch", 0):
            count = (drops.get("gid_index_missing", 0)
                     + drops.get("gid_mismatch", 0))
            diagnosis.hypotheses.append(Hypothesis(
                table2_row=7, cause="RNIC GID index missing",
                confidence=0.85, evidence=f"{count} GID lookup failures"))
        corruption = (drops.get("tx_corruption", 0)
                      + drops.get("rx_corruption", 0))
        if corruption:
            diagnosis.hypotheses.append(Hypothesis(
                table2_row=2, cause="packet corruption at the RNIC/cable",
                confidence=0.8, evidence=f"{corruption} corrupted packets"))

    # -- latency problems -------------------------------------------------------------

    def _diagnose_high_rtt(self, problem: Problem,
                           diagnosis: Diagnosis) -> None:
        # RNIC locus: check PCIe (PFC-storm chain, rows 13/14).
        if "->" not in problem.locus:
            try:
                rnic = self.cluster.rnic(problem.locus)
            except KeyError:
                return
            if rnic.pcie_gbps < self._nominal_pcie_gbps \
                    * PCIE_DEGRADED_FRACTION:
                diagnosis.hypotheses.append(Hypothesis(
                    table2_row=13,
                    cause="PCIe downgrade or ACS/ATS misconfiguration "
                          "-> PFC storm",
                    confidence=0.9,
                    evidence=f"PCIe at {rnic.pcie_gbps:.0f} Gb/s vs "
                             f"{self._nominal_pcie_gbps:.0f} nominal"))
            return
        # Link locus: congestion (rows 10/11).
        a, b = problem.locus.split("->")
        try:
            link = self.cluster.topology.link(a, b)
        except KeyError:
            return
        if link.utilization() > 0.9 or link.queue_bytes > 0:
            diagnosis.hypotheses.append(Hypothesis(
                table2_row=10,
                cause="network congestion (hash imbalance or "
                      "inter-service interference)",
                confidence=0.8,
                evidence=f"utilization {link.utilization():.0%}, queue "
                         f"{link.queue_bytes / 1e6:.1f} MB"))

    def _diagnose_host(self, problem: Problem,
                       diagnosis: Diagnosis) -> None:
        host = self.cluster.hosts.get(problem.locus)
        if host is None:
            return
        if host.cpu.load >= CPU_OVERLOAD_LOAD:
            diagnosis.hypotheses.append(Hypothesis(
                table2_row=12, cause="CPU overload",
                confidence=0.9,
                evidence=f"host load {host.cpu.load:.0%}"))

    def _diagnose_host_down(self, problem: Problem,
                            diagnosis: Diagnosis) -> None:
        diagnosis.hypotheses.append(Hypothesis(
            table2_row=4, cause="accidental host down",
            confidence=0.9,
            evidence="Agent stopped uploading; all RNICs unreachable"))
