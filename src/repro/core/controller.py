"""R-Pingmesh Controller (paper §4.1).

Three responsibilities:

1. **Registry** — store the latest communication info (GID/QPN) for every
   managed RNIC.  QPNs change whenever an Agent (re)starts, so Agents
   re-register on start and pull fresh info periodically; the Analyzer
   compares probe QPNs against this registry to spot QPN-reset noise.
2. **Pinglists** — a ToR-mesh pinglist (all RNICs under the same ToR) and
   an inter-ToR pinglist per RNIC.  Inter-ToR 5-tuple counts come from
   Equation 1 so that all parallel paths between ToRs are covered with
   probability ``P``; 20% of the 5-tuples rotate every hour to catch
   problems only certain 5-tuples trigger.
3. **Service-tracing lookups** — Agents resolve a service peer's IP to its
   probe-QP comm info before probing the service path.

All three run over the management network (§4.2.3): the Controller binds
the ``"controller"`` endpoint, Agents register and resolve through RPCs,
and pinglists are pushed as one-way messages — which may be delayed or
lost under a degraded control plane, leaving Agents probing from their
cached (stale) pinglists.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster import Cluster
from repro.controlplane.clients import CONTROLLER_ENDPOINT
from repro.controlplane.endpoint import Endpoint
from repro.controlplane.transport import ManagementNetwork
from repro.core.config import RPingmeshConfig
from repro.core.coverage import required_tuples
from repro.core.records import PinglistEntry, ProbeKind
from repro.host.rnic import CommInfo
from repro.net.addresses import MAX_SRC_PORT, MIN_SRC_PORT
from repro.net.clos import ClosFabricPlan
from repro.net.rail import RailFabricPlan
from repro.sim.rng import RngStream
from repro.sim.units import SECOND


class CommRegistry:
    """Latest probe-QP comm info of every known RNIC, by name and by IP.

    The read surface the Analyzer, service tracing and the tests use.  A
    Controller, each :class:`~repro.core.sharding.ControllerShard` and the
    :class:`~repro.core.sharding.RootController` all *are* one (the
    shards' and the root's hold replicas), so it is written once here.
    """

    def __init__(self) -> None:
        self._registry: dict[str, CommInfo] = {}      # rnic name -> comm info
        self._by_ip: dict[str, str] = {}              # ip -> rnic name

    def _store(self, rnic_name: str, info: CommInfo) -> None:
        self._registry[rnic_name] = info
        self._by_ip[info.ip] = rnic_name

    def _forget(self, rnic_name: str) -> None:
        info = self._registry.pop(rnic_name, None)
        if info is not None:
            self._by_ip.pop(info.ip, None)

    def comm_info(self, rnic_name: str) -> CommInfo:
        """Latest registered comm info for an RNIC."""
        try:
            return self._registry[rnic_name]
        except KeyError:
            raise KeyError(f"RNIC not registered: {rnic_name}") from None

    def current_qpn(self, rnic_name: str) -> Optional[int]:
        """The registry's QPN for an RNIC (None if unregistered)."""
        info = self._registry.get(rnic_name)
        return info.qpn if info else None

    def current_qpns(self) -> dict[str, int]:
        """Every registered RNIC's QPN as one snapshot (rnic name -> QPN),
        for a reader that asks about many RNICs at one instant."""
        return {name: info.qpn for name, info in self._registry.items()}

    def resolve_ip(self, ip: str) -> Optional[tuple[str, CommInfo]]:
        """Service-tracing lookup: peer IP -> (rnic name, comm info)."""
        rnic_name = self._by_ip.get(ip)
        if rnic_name is None:
            return None
        return rnic_name, self._registry[rnic_name]

    def registered_rnics(self) -> list[str]:
        """All registered RNIC names, sorted."""
        return sorted(self._registry)


class Controller(CommRegistry):
    """Central registry + pinglist generator.

    ``scope`` restricts pinglist *ownership* to a subset of ToR switches —
    the per-pod slice a :class:`~repro.core.sharding.ControllerShard`
    serves.  A scoped controller generates tuples only for its own ToRs
    (remote picks still range over the whole fabric, so inter-pod paths
    are covered by the owning shard of each source ToR) but keeps a full
    replicated registry for cross-pod target resolution.  ``scope=None``
    (default) owns everything: the original single-controller behaviour,
    draw-for-draw.
    """

    def __init__(self, cluster: Cluster, config: RPingmeshConfig,
                 rng: RngStream, *,
                 endpoint_name: str = CONTROLLER_ENDPOINT,
                 scope: Optional[Sequence[str]] = None):
        super().__init__()
        self.cluster = cluster
        self.config = config
        self.rng = rng
        self.endpoint_name = endpoint_name
        self._scope_tors = sorted(scope) if scope is not None else None
        self._agent_endpoints: dict[str, str] = {}    # host -> endpoint name
        self._host_rnics: dict[str, list[str]] = {}   # host -> rnic names
        self.endpoint: Optional[Endpoint] = None
        # Persistent inter-ToR tuple choices: (src_rnic, dst_rnic, src_port).
        self._inter_tor_tuples: list[tuple[str, str, int]] = []
        self._started = False
        self.pinglist_pushes = 0
        self.delta_pushes = 0
        self.rotations = 0

    # -- management-network wiring ------------------------------------------------

    def bind(self, network: ManagementNetwork) -> Endpoint:
        """Attach the Controller's endpoint and its RPC handlers."""
        self.endpoint = (
            Endpoint(self.endpoint_name, network)
            .on("register", self._handle_register)
            .on("update_comm_info", self._handle_update_comm_info)
            .on("resolve_ip", self.resolve_ip))
        return self.endpoint

    def owned_tors(self) -> list[str]:
        """The ToR switches whose pinglists this controller generates."""
        if self._scope_tors is not None:
            return list(self._scope_tors)
        return self.cluster.tors()

    def _handle_update_comm_info(self, payload) -> None:
        self.update_comm_info(*payload)

    def _handle_register(self, payload: dict) -> dict:
        self.register_host(payload["host"], payload["endpoint"],
                           payload["comm_infos"])
        return {"ok": True}

    # -- registry --------------------------------------------------------------

    def register_host(self, host: str, agent_endpoint: str,
                      comm_infos: dict[str, CommInfo]) -> None:
        """An Agent reports the probe-QP comm info of all its RNICs."""
        self._agent_endpoints[host] = agent_endpoint
        self._host_rnics[host] = list(comm_infos)
        for rnic_name, info in comm_infos.items():
            self._store(rnic_name, info)
        if self._started:
            # Late registration (slow management network): refresh so the
            # newcomer gets pinglists — and appears in its ToR peers' —
            # without waiting for the 5-minute cycle.  Incrementally when
            # enabled (only the affected agents), else everyone.
            if self.config.incremental_pinglists:
                self._push_delta(sorted(comm_infos))
            else:
                self.push_pinglists()

    def remove_host(self, host: str) -> None:
        """Topology delta: a host left (decommission/failure domain drain).

        Drops its RNICs from the registry so peers stop targeting them at
        the next push; with incremental pinglists the affected agents are
        re-pushed immediately.
        """
        rnics = self._host_rnics.pop(host, [])
        self._agent_endpoints.pop(host, None)
        for rnic_name in rnics:
            self._forget(rnic_name)
        if self._started and rnics:
            if self.config.incremental_pinglists:
                self._push_delta(sorted(rnics))
            else:
                self.push_pinglists()

    def update_comm_info(self, rnic_name: str, info: CommInfo) -> None:
        """Refresh one RNIC's comm info (Agent restart path)."""
        self._store(rnic_name, info)

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        """Generate initial pinglists and start refresh/rotation cycles."""
        if self._started:
            return
        self._started = True
        self._generate_inter_tor_tuples()
        self.push_pinglists()
        sim = self.cluster.sim
        sim.every(self.config.pinglist_refresh_ns, self.push_pinglists)
        sim.every(self.config.rotation_interval_ns, self.rotate_tuples)

    # -- pinglist construction ------------------------------------------------------

    def parallel_paths(self) -> int:
        """N for Equation 1: equal-cost paths between ToR-tier switches."""
        plan = self.cluster.plan
        if isinstance(plan, ClosFabricPlan):
            return plan.parallel_paths_between_tors()
        if isinstance(plan, RailFabricPlan):
            return plan.parallel_paths_cross_rail()
        raise TypeError(f"unknown plan type: {type(plan).__name__}")

    def tuples_per_tor(self) -> int:
        """k from Equation 1 at the configured coverage probability."""
        return required_tuples(self.parallel_paths(),
                               self.config.coverage_probability)

    def _random_port(self) -> int:
        return self.rng.randint(MIN_SRC_PORT, MAX_SRC_PORT)

    def _generate_inter_tor_tuples(self) -> None:
        """Choose k cross-ToR (src, dst, port) triples per *owned* ToR.

        Remote picks range over the whole fabric: a scoped shard owns the
        tuples sourced in its pod, including the inter-pod slice.
        """
        k = self.tuples_per_tor()
        tuples: list[tuple[str, str, int]] = []
        tors = self.cluster.tors()
        for tor in self.owned_tors():
            local = self.cluster.rnics_under_tor(tor)
            remote = [r for other in tors if other != tor
                      for r in self.cluster.rnics_under_tor(other)]
            if not local or not remote:
                continue
            for _ in range(k):
                tuples.append((self.rng.choice(local),
                               self.rng.choice(remote),
                               self._random_port()))
        self._inter_tor_tuples = tuples

    def rotate_tuples(self) -> None:
        """Replace ``rotation_fraction`` of inter-ToR tuples (hourly, §5).

        Rotation re-rolls both the destination and the source port, so
        5-tuple-specific problems (silent drops) eventually get triggered.
        """
        if not self._inter_tor_tuples:
            return
        self.rotations += 1
        n = max(1, round(len(self._inter_tor_tuples)
                         * self.config.rotation_fraction))
        indices = self.rng.sample(range(len(self._inter_tor_tuples)), n)
        tors = self.cluster.tors()
        for i in indices:
            src, _dst, _port = self._inter_tor_tuples[i]
            src_tor = self.cluster.tor_of(src)
            remote = [r for other in tors if other != src_tor
                      for r in self.cluster.rnics_under_tor(other)]
            if not remote:
                continue
            self._inter_tor_tuples[i] = (src, self.rng.choice(remote),
                                         self._random_port())
        self.push_pinglists()

    def _tor_mesh_entries(self, rnic_name: str) -> list[PinglistEntry]:
        tor = self.cluster.tor_of(rnic_name)
        entries = []
        for peer in self.cluster.rnics_under_tor(tor):
            if peer == rnic_name or peer not in self._registry:
                continue
            entries.append(PinglistEntry(
                kind=ProbeKind.TOR_MESH, target_rnic=peer,
                target=self._registry[peer], src_port=self._random_port()))
        return entries

    def _inter_tor_entries(self) -> dict[str, list[PinglistEntry]]:
        by_src: dict[str, list[PinglistEntry]] = {}
        for src, dst, port in self._inter_tor_tuples:
            if dst not in self._registry:
                continue
            by_src.setdefault(src, []).append(PinglistEntry(
                kind=ProbeKind.INTER_TOR, target_rnic=dst,
                target=self._registry[dst], src_port=port))
        return by_src

    def inter_tor_interval_ns(self, entry_count: int) -> int:
        """Per-RNIC inter-ToR probing interval.

        Sized so each link above the ToRs sees >= ``target_link_pps`` per
        direction: with k tuples spread over N parallel paths, a given
        fabric link expects ~k/N of the tuples, so each tuple must fire at
        ``target_link_pps * N / k`` pps.  An Agent round-robins its entries,
        so its thread interval is ``1 / (rate_per_tuple * entries)``.
        """
        if entry_count <= 0:
            return self.config.pinglist_refresh_ns  # idle placeholder
        n = self.parallel_paths()
        k = max(1, self.tuples_per_tor())
        rate_per_tuple = self.config.target_link_pps * n / k
        interval = SECOND / (rate_per_tuple * entry_count)
        return max(1_000, round(interval))

    def push_pinglists(self) -> None:
        """Build fresh pinglists from the registry and push to every Agent.

        This is the 5-minute refresh of §5; it is also what eventually
        replaces outdated QPNs after an Agent restart.  Pushes are one-way
        messages: on a degraded management network they may be delayed or
        lost, and the Agent simply keeps probing from its cached pinglists.
        """
        assert self.endpoint is not None, "Controller not bound to a network"
        self.pinglist_pushes += 1
        inter = self._inter_tor_entries()
        for host, agent_endpoint in self._agent_endpoints.items():
            self._push_host(host, agent_endpoint, inter)

    def _push_host(self, host: str, agent_endpoint: str,
                   inter: dict[str, list[PinglistEntry]]) -> None:
        """Send fresh pinglists for every RNIC of one host."""
        for rnic_name in self._host_rnics[host]:
            tor_entries = self._tor_mesh_entries(rnic_name)
            inter_entries = inter.get(rnic_name, [])
            self.endpoint.send(agent_endpoint, "set_pinglists", {
                "rnic": rnic_name,
                "tor_mesh": tor_entries,
                "inter_tor": inter_entries,
                "tor_mesh_interval_ns":
                    self.config.tor_mesh_interval_ns(),
                "inter_tor_interval_ns": self.inter_tor_interval_ns(
                    len(inter_entries)),
            })

    # -- incremental maintenance (DESIGN.md §11) -----------------------------------

    def _push_delta(self, changed_rnics: list[str]) -> None:
        """Patch pinglists after a registry delta, pushing only the agents
        whose lists actually changed.

        A registration/removal of ``changed_rnics`` affects exactly:

        * agents with an RNIC under a changed RNIC's ToR (their ToR-mesh
          gained/lost those peers — and the newcomer itself needs its
          initial lists);
        * agents sourcing an inter-ToR tuple whose destination is a
          changed RNIC (the entry was filtered while unregistered, or
          must be filtered now).

        Tuple *choices* never change here: ``_generate_inter_tor_tuples``
        draws from the topology, not the registry, so a registry delta
        only re-filters existing tuples.  That is what makes the patched
        result provably identical (ports aside) to a full regeneration.
        """
        assert self.endpoint is not None, "Controller not bound to a network"
        changed = set(changed_rnics)
        changed_tors = {self.cluster.tor_of(r) for r in changed_rnics}
        affected_hosts: set[str] = set()
        for host, rnics in self._host_rnics.items():
            if any(self.cluster.tor_of(r) in changed_tors for r in rnics):
                affected_hosts.add(host)
        for src, dst, _port in self._inter_tor_tuples:
            if dst in changed:
                owner = self.cluster.host_of_rnic(src).name
                if owner in self._host_rnics:
                    affected_hosts.add(owner)
        if not affected_hosts:
            return
        self.delta_pushes += 1
        inter = self._inter_tor_entries()
        for host in sorted(affected_hosts):
            self._push_host(host, self._agent_endpoints[host], inter)
