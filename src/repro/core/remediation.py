"""Automated mitigation of located problems (paper §7.5 directions 2-3).

The paper lists three future-work directions for minimising the impact of
hardware failures; this module implements the two that operate at the
network/service layer:

* **Port isolation** — when a switch port drops packets anomalously,
  decide whether to isolate it *based on impact* (§7.5 #2): isolating a
  port removes capacity and briefly perturbs routing, so it is worth doing
  only for a P0/P1 problem, or for a persistent P2.  Isolation here means
  marking the cable ``routed_around`` so ECMP stops offering it (the
  simulated analogue of shutting the port).
* **RNIC isolation in the service** (§7.5 #3) — when an RNIC goes down or
  drops packets during training, remove its connections from the job
  without restarting the task, so the barrel effect stops being paced by
  the dead flow.

Both actions are reversible and logged, so operators can audit what the
automation did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster import Cluster
from repro.core.records import Priority, Problem, ProblemCategory
from repro.services.dml import DmlJob


@dataclass
class RemediationAction:
    """One action the remediator took (or declined)."""

    time_ns: int
    kind: str                  # isolate_link | isolate_rnic | declined
    target: str
    reason: str


@dataclass
class RemediationPolicy:
    """When isolation is worth its cost (§7.5 #2: 'based on the impact')."""

    # Always isolate service-affecting (P0/P1) switch problems.
    isolate_service_affecting: bool = True
    # Isolate a P2 problem only after it persists this many windows.
    p2_persistence_windows: int = 3
    # Never isolate below this evidence count (transient blips).
    min_evidence: int = 5


class Remediator:
    """Consumes Analyzer problems and applies isolations."""

    def __init__(self, cluster: Cluster,
                 policy: Optional[RemediationPolicy] = None):
        self.cluster = cluster
        self.policy = policy or RemediationPolicy()
        self.actions: list[RemediationAction] = []
        self._p2_sightings: dict[str, int] = {}
        self._isolated_links: set[str] = set()
        self._owner = cluster.holds.owner("remediator")

    # -- switch-port isolation (§7.5 #2) ------------------------------------

    def consider(self, problem: Problem) -> Optional[RemediationAction]:
        """Decide on one located problem; apply isolation if warranted."""
        if problem.category != ProblemCategory.SWITCH_NETWORK_PROBLEM:
            return None
        if "->" not in problem.locus:
            return self._decline(problem, "unlocalized problem")
        if problem.evidence_count < self.policy.min_evidence:
            return self._decline(problem, "insufficient evidence")
        if problem.locus in self._isolated_links:
            return None  # already handled

        if problem.priority in (Priority.P0, Priority.P1):
            if self.policy.isolate_service_affecting:
                return self._isolate_link(problem,
                                          "service-affecting drop source")
            return self._decline(problem, "policy: no auto-isolation")

        # P2: isolate only when persistent — fixing it costs a routing
        # perturbation but prevents future service placements on a bad
        # link (the paper's 'anomalous device should be isolated or
        # repaired to prevent service performance degradation').
        sightings = self._p2_sightings.get(problem.locus, 0) + 1
        self._p2_sightings[problem.locus] = sightings
        if sightings >= self.policy.p2_persistence_windows:
            return self._isolate_link(problem,
                                      f"persistent for {sightings} windows")
        return self._decline(problem,
                             f"P2 seen {sightings}x, waiting for "
                             f"{self.policy.p2_persistence_windows}")

    def _isolate_link(self, problem: Problem,
                      reason: str) -> RemediationAction:
        a, b = problem.locus.split("->")
        self.cluster.holds.hold(self._owner,
                                self.cluster.topology.link_pair(a, b),
                                "routed_around", True)
        self.cluster.topology.invalidate_routes()
        self._isolated_links.add(problem.locus)
        self._isolated_links.add(f"{b}->{a}")
        action = RemediationAction(
            time_ns=self.cluster.sim.now, kind="isolate_link",
            target=problem.locus, reason=reason)
        self.actions.append(action)
        return action

    def _decline(self, problem: Problem, reason: str) -> RemediationAction:
        action = RemediationAction(
            time_ns=self.cluster.sim.now, kind="declined",
            target=problem.locus, reason=reason)
        self.actions.append(action)
        return action

    def deisolate(self, locus: str) -> None:
        """Operator repaired the device: give the link back to ECMP (unless
        a fault still holds it routed around)."""
        if "->" not in locus:
            raise ValueError(f"not a link locus: {locus}")
        a, b = locus.split("->")
        self.cluster.holds.release(self._owner,
                                   self.cluster.topology.link_pair(a, b))
        self.cluster.topology.invalidate_routes()
        self._isolated_links.discard(locus)
        self._isolated_links.discard(f"{b}->{a}")

    @property
    def isolated_links(self) -> set[str]:
        """Currently isolated directed-link names."""
        return set(self._isolated_links)

    # -- in-service RNIC isolation (§7.5 #3) -----------------------------------

    def isolate_rnic_in_job(self, job: DmlJob,
                            rnic_name: str) -> RemediationAction:
        """Drop a bad RNIC's connections from a running job, no restart.

        The job loses that rank's bandwidth contribution but its remaining
        connections stop being paced by the dead flow — training continues
        instead of failing.
        """
        removed = 0
        for conn in job.connections:
            if rnic_name in (conn.src_rnic, conn.dst_rnic) \
                    and not conn.broken:
                conn.broken = True
                removed += 1
        action = RemediationAction(
            time_ns=self.cluster.sim.now, kind="isolate_rnic",
            target=rnic_name,
            reason=f"removed {removed} connections from the job")
        self.actions.append(action)
        return action
