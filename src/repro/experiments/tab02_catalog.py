"""Table 2: the 14 problem root causes found by R-Pingmesh.

For every row of the paper's Table 2 we inject the corresponding fault into
a cluster running both R-Pingmesh and a DML service, and record:

* whether the Analyzer detected a problem within a few analysis periods,
* whether some new verdict names an injected component (``localized``),
* the problem category it assigned (timeout-type vs latency-type —
  failures produce timeouts, bottlenecks produce high RTT / processing
  delay, exactly the paper's §7.1 phenomenology),
* whether the service failed, which must match the paper's (*) markers
  when the service's retransmission settings are left untuned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro.cluster import Cluster
from repro.experiments.common import default_cluster_params, deploy
from repro.fleet.spec import FaultEvent, schedule_campaign
from repro.fleet.worker import (FAILURE_CATEGORIES, LATENCY_CATEGORIES,
                                locus_matches)
from repro.services.dml import CommPattern, DmlConfig, DmlJob
from repro.sim.units import MILLISECOND, seconds


@dataclass
class CatalogRow:
    """One Table 2 row's outcome."""

    row: int
    root_cause: str
    expect_service_failure: bool
    expect_signal: str            # "timeout" or "latency"
    detected: bool = False
    localized: bool = False
    categories: set = field(default_factory=set)
    service_failed: bool = False
    detection_latency_s: Optional[float] = None

    @property
    def signal_matches(self) -> bool:
        # Failures signal by timeout verdicts, bottlenecks by latency ones.
        wanted = (FAILURE_CATEGORIES if self.expect_signal == "timeout"
                  else LATENCY_CATEGORIES)
        return not self.categories.isdisjoint(wanted)

    @property
    def service_failure_matches(self) -> bool:
        return self.service_failed == self.expect_service_failure


def _catalog(cluster: Cluster, service_rnics: list[str]
             ) -> list[tuple[int, str, bool, str, tuple[FaultEvent, ...]]]:
    """(row, name, service_fails, signal, campaign) for all 14; every
    event opens now and is never cleared."""
    svc = service_rnics
    svc_host = cluster.host_of_rnic(svc[1]).name
    fault = partial(FaultEvent.make, start_s=cluster.sim.now / 1e9)
    return [
        (1, "RNIC or switch port flapping", False, "timeout",
         (fault("switch_port_flapping", "pod0-tor0", "pod0-agg0"),)),
        (2, "packet corruption drops", False, "timeout",
         (fault("link_corruption", "pod0-tor1", "pod0-agg0",
                drop_prob=0.5),)),
        (3, "accident RNIC down (*)", True, "timeout",
         (fault("rnic_down", svc[1]),)),
        (4, "accident host down (*)", True, "timeout",
         (fault("host_down", svc_host),)),
        (5, "PFC deadlock (*)", True, "timeout",
         (fault("pfc_deadlock", "pod0-tor0", "pod0-agg1"),)),
        (6, "missing RNIC routing config (*)", True, "timeout",
         (fault("rnic_routing_misconfig", svc[2]),)),
        (7, "RNIC GID index missing (*)", True, "timeout",
         (fault("rnic_gid_index_missing", svc[3]),)),
        (8, "switch ACL misconfiguration (*)", True, "timeout",
         (fault("switch_acl_error", "pod0-agg0",
                src_ip=cluster.rnic(svc[0]).ip),)),
        # Row 9 needs congestion to manifest: the misconfig plus an
        # overload on the same cable.
        (9, "PFC unconfigured / bad headroom", False, "timeout",
         (fault("pfc_headroom_misconfig", "pod0-tor0", "pod0-agg0"),
          fault("link_overload", "pod0-tor0", "pod0-agg0",
                extra_gbps=700.0))),
        (10, "uneven load balance congestion", False, "latency",
         (fault("link_overload", "pod0-tor0", "pod0-agg0",
                extra_gbps=500.0, table2_row=10),)),
        (11, "inter-service interference", False, "latency",
         (fault("link_overload", "pod0-agg0", "spine0",
                extra_gbps=500.0, table2_row=11),)),
        (12, "CPU overload", False, "latency",
         (fault("cpu_overload", svc_host, load=0.85),)),
        (13, "PCIe downgrade -> PFC storm", False, "latency",
         (fault("pcie_downgrade", svc[1]),)),
        (14, "wrong ACS/ATS config -> PFC storm", False, "latency",
         (fault("rnic_acs_misconfig", svc[0]),)),
    ]


def run_row(row: int, *, seed: int = 16, fault_s: int = 50,
            retransmission_tuned: bool = True) -> CatalogRow:
    """Inject one Table 2 row's fault and score the system's response."""
    cluster, system, faults, _ = deploy(
        seed=seed + row, params=default_cluster_params(hosts_per_tor=3))
    service_rnics = cluster.rnic_names()[:6]
    job = DmlJob(cluster, service_rnics,
                 DmlConfig(pattern=CommPattern.ALL2ALL,
                           compute_time_ns=300 * MILLISECOND,
                           data_gbits_per_cycle=3.0,
                           retransmission_tuned=retransmission_tuned))
    system.attach_service_monitor(job)
    cluster.sim.run_for(seconds(3))
    job.start()
    cluster.sim.run_for(seconds(30))

    entries = _catalog(cluster, service_rnics)
    row_num, name, fails, signal, campaign = entries[row - 1]
    assert row_num == row
    outcome = CatalogRow(row=row, root_cause=name,
                         expect_service_failure=fails, expect_signal=signal)

    problems_before = len(system.analyzer.problems)
    injected_at = cluster.sim.now
    scheduled = schedule_campaign(faults, cluster, campaign)
    cluster.sim.run_for(seconds(fault_s))

    new_problems = system.analyzer.problems[problems_before:]
    if new_problems:
        outcome.detected = True
        outcome.localized = any(
            locus_matches(fault.ground_truth, problem.locus)
            for fault, _ in scheduled for problem in new_problems)
        outcome.categories = {p.category for p in new_problems}
        first = min(p.detected_at_ns for p in new_problems)
        outcome.detection_latency_s = (first - injected_at) / 1e9
    outcome.service_failed = job.task_failed
    return outcome


def run_all(*, seed: int = 16, fault_s: int = 50) -> list[CatalogRow]:
    """Run all 14 rows (independent clusters; ~10 min of simulated time)."""
    return [run_row(row, seed=seed, fault_s=fault_s)
            for row in range(1, 15)]
