"""Sharded control plane: pod partitioning, replication, fusion parity."""

import pytest

from repro.cluster import Cluster
from repro.core.config import RPingmeshConfig
from repro.core.records import ProblemCategory
from repro.core.sharding import PodMap, pod_of_tor
from repro.core.system import RPingmesh
from repro.core.tracker import ProblemTracker
from repro.net.clos import ClosParams
from repro.net.faults import HostDown, LinkCorruption
from repro.services.dml import CommPattern, DmlConfig, DmlJob
from repro.sim.units import seconds

POD4 = ClosParams(pods=4, tors_per_pod=2, aggs_per_pod=2, spines=2,
                  hosts_per_tor=2)


def deploy(*, seed=11, shards=4, sla_sketch=True, **config_kwargs):
    cluster = Cluster.clos(POD4, seed=seed)
    config = RPingmeshConfig(shards=shards, sla_sketch=sla_sketch,
                             **config_kwargs)
    system = RPingmesh(cluster, config)
    system.start()
    return cluster, system


def normalize_link(locus: str) -> frozenset:
    """Direction-insensitive link identity (a->b == b->a)."""
    return frozenset(locus.split("->"))


class TestPodMap:
    def test_groups_whole_pods(self, small_clos):
        pod_map = PodMap.build(small_clos, 2)
        assert pod_map.shard_count == 2
        for tors in pod_map.shard_tors:
            assert len({pod_of_tor(t) for t in tors}) == 1

    def test_every_tor_owned_exactly_once(self, small_clos):
        pod_map = PodMap.build(small_clos, 2)
        owned = [t for tors in pod_map.shard_tors for t in tors]
        assert sorted(owned) == sorted(small_clos.tors())
        for tor in small_clos.tors():
            assert tor in pod_map.shard_tors[pod_map.shard_of_tor(tor)]

    def test_clamps_to_pod_count(self, small_clos):
        # small_clos has 2 pods; asking for 8 shards must not create
        # empty ones.
        pod_map = PodMap.build(small_clos, 8)
        assert pod_map.shard_count == 2
        assert all(pod_map.shard_tors)

    def test_single_pod_single_shard(self, tiny_clos):
        pod_map = PodMap.build(tiny_clos, 4)
        assert pod_map.shard_count == 1
        assert pod_map.shard_tors[0] == tuple(tiny_clos.tors())

    def test_round_robin_spreads_pods(self):
        cluster = Cluster.clos(POD4, seed=0)
        pod_map = PodMap.build(cluster, 2)
        # 4 pods over 2 shards: 2 pod groups each.
        pods_per_shard = [{pod_of_tor(t) for t in tors}
                          for tors in pod_map.shard_tors]
        assert [len(p) for p in pods_per_shard] == [2, 2]

    def test_shard_of_host_follows_tor(self):
        cluster = Cluster.clos(POD4, seed=0)
        pod_map = PodMap.build(cluster, 4)
        for host_name, host in cluster.hosts.items():
            tor = cluster.tor_of(host.rnics[0].name)
            assert (pod_map.shard_of_host(cluster, host_name)
                    == pod_map.shard_of_tor(tor))

    def test_unknown_tor_raises(self, small_clos):
        pod_map = PodMap.build(small_clos, 2)
        with pytest.raises(KeyError):
            pod_map.shard_of_tor("nonexistent-tor")


class TestRegistryReplication:
    def test_every_shard_resolves_every_rnic(self):
        cluster, system = deploy()
        all_rnics = sorted(r.name for h in cluster.hosts.values()
                           for r in h.rnics)
        assert system.controller.registered_rnics() == all_rnics
        for shard in system.controller.shards:
            for rnic in all_rnics:
                assert shard.comm_info(rnic) is not None

    def test_root_resolve_ip(self):
        cluster, system = deploy()
        host = cluster.hosts["host0"]
        info = system.controller.comm_info(host.rnics[0].name)
        resolved = system.controller.resolve_ip(info.ip)
        assert resolved is not None
        assert resolved[0] == host.rnics[0].name

    def test_inter_pod_coverage(self):
        """Each pod's pinglists must reach beyond its own pod — the
        inter-ToR slice targets the whole fabric."""
        cluster, system = deploy()
        system.run(seconds(25))
        window = system.analyzer.windows[-1]
        # Probes processed across shards cover the full cluster volume.
        assert window.results_processed > 0
        report = system.analyzer.sla.latest()
        assert report.cluster.probes_total > 0


class TestShardedFaultParity:
    """The headline property: a sharded deployment reaches the same
    verdict as the unsharded one for a fault inside one pod."""

    @pytest.fixture(scope="class")
    def verdicts(self):
        out = {}
        for label, shards in (("unsharded", 1), ("sharded", 4)):
            cluster, system = deploy(shards=shards,
                                     sla_sketch=(shards > 1))
            cluster.sim.run_for(seconds(10))
            LinkCorruption(cluster, "pod1-tor0", "pod1-agg0",
                           drop_prob=0.5).inject()
            cluster.sim.run_for(seconds(45))
            out[label] = system
        return out

    def test_both_localize_the_faulted_link(self, verdicts):
        guilty = normalize_link("pod1-tor0->pod1-agg0")
        for label, system in verdicts.items():
            suspects = {p.locus for p in system.analyzer.problems
                        if p.category
                        == ProblemCategory.SWITCH_NETWORK_PROBLEM}
            assert any(normalize_link(s) == guilty for s in suspects), \
                f"{label}: faulted link missing from {suspects}"

    def test_no_cross_pod_false_positives(self, verdicts):
        """Neither deployment implicates switches of *other* pods.

        Verdict loci may name pod1 devices, spines, or hosts under the
        faulted ToR (the blast radius); pod0/pod2/pod3 gear must not
        appear."""
        other_pods = ("pod0", "pod2", "pod3")
        for label, system in verdicts.items():
            for p in system.analyzer.problems:
                if p.category != ProblemCategory.SWITCH_NETWORK_PROBLEM:
                    continue
                nodes = p.locus.split("->")
                assert not any(n.startswith(other_pods) for n in nodes), \
                    f"{label}: spurious suspect {p.locus}"

    def test_fused_sla_covers_whole_cluster(self, verdicts):
        sharded = verdicts["sharded"].analyzer.sla.latest()
        unsharded = verdicts["unsharded"].analyzer.sla.latest()
        # Same topology, same workload schedule shape: fused totals land
        # in the same ballpark as the single Analyzer's (different RNG
        # streams mean they are distinct simulations, not byte-equal).
        assert sharded.cluster.probes_total > 0
        ratio = (sharded.cluster.probes_total
                 / unsharded.cluster.probes_total)
        assert 0.5 < ratio < 2.0
        assert sharded.cluster.rtt_percentiles()["p50"] > 0

    def test_fusion_ran_every_window(self, verdicts):
        root = verdicts["sharded"].analyzer
        ends = [w.window_end_ns for w in root.windows]
        assert ends == [seconds(20), seconds(40)]
        # No wedged partial windows left behind.
        assert not root._summaries


class TestRootAnalyzerSurface:
    def test_ingest_counters_sum_over_shards(self):
        cluster, system = deploy()
        root = system.analyzer
        taken = []
        root.shards[2].add_upload_listener(taken.append)
        system.run(seconds(25))
        assert root.ingest_accepted == sum(s.ingest_accepted
                                           for s in root.shards)
        assert root.ingest_accepted > 0
        assert root.ingest_dropped == sum(s.ingest_dropped
                                          for s in root.shards)
        assert root.shards[2].receive_upload(taken[-1])     # a resend
        assert root.ingest_duplicates == 1
        assert root.ingest_backlog == sum(s.ingest_backlog
                                          for s in root.shards)

    def test_per_shard_metrics_exported(self):
        from repro.obs import Observability
        cluster = Cluster.clos(POD4, seed=11)
        system = RPingmesh(cluster,
                           RPingmeshConfig(shards=4, sla_sketch=True),
                           obs=Observability(metrics=True))
        system.run(seconds(25))
        snap = system.metrics_snapshot()
        for i in range(4):
            key = ('repro_analyzer_shard_ingest_accepted_total'
                   f'{{shard="{i}"}}')
            assert snap[key] > 0
            assert snap['repro_analyzer_shard_ingest_duplicates_total'
                        f'{{shard="{i}"}}'] == 0
        assert snap["repro_analyzer_ingest_duplicates_total"] == 0
        assert snap["repro_analyzer_ingest_accepted_total"] == sum(
            snap[f'repro_analyzer_shard_ingest_accepted_total'
                 f'{{shard="{i}"}}'] for i in range(4))

    def test_dashboard_renders_shard_lines(self):
        from repro.core.dashboard import render_control_plane
        cluster, system = deploy()
        system.run(seconds(25))
        text = render_control_plane(system)
        for i in range(4):
            assert f"shard{i}:" in text

    def test_memory_accounting_includes_shards(self):
        cluster, system = deploy()
        system.run(seconds(25))
        root = system.analyzer
        assert root.memory_bytes() > sum(s.memory_bytes()
                                         for s in root.shards)


class TestShardRetention:
    def test_windows_trimmed_to_retention(self):
        cluster, system = deploy(shard_window_retention=1)
        system.run(seconds(85))  # 4 analysis windows
        root = system.analyzer
        assert len(root.windows) >= 4
        for shard in root.shards:
            assert len(shard.windows) <= 1
            assert len(shard.sla.reports) <= 1

    def test_root_keeps_complete_history(self):
        cluster, system = deploy(shard_window_retention=1)
        system.run(seconds(85))
        ends = [w.window_end_ns for w in system.analyzer.windows]
        assert ends == sorted(ends)
        assert len(set(ends)) == len(ends)


class TestHostDownFusion:
    def test_host_down_single_fused_problem_per_window(self):
        cluster, system = deploy()
        cluster.sim.run_for(seconds(10))
        HostDown(cluster, "host0").inject()
        cluster.sim.run_for(seconds(60))
        root = system.analyzer
        down = [p for p in root.problems
                if p.category == ProblemCategory.HOST_DOWN
                and p.locus == "host0"]
        assert down
        # Cross-pod broadcast makes several pods see host0 as down, but
        # fusion merges them: at most one verdict per analysis window.
        by_window = {}
        for p in down:
            by_window.setdefault(p.window_start_ns, []).append(p)
        assert all(len(v) == 1 for v in by_window.values())

    def test_remote_down_propagates_to_other_shards(self):
        cluster, system = deploy()
        cluster.sim.run_for(seconds(10))
        HostDown(cluster, "host0").inject()
        cluster.sim.run_for(seconds(60))
        # After a fused window names host0, every *other* shard learns it
        # through the cluster_state broadcast.
        home = system.pod_map.shard_of_host(cluster, "host0")
        others = [s for s in system.analyzer.shards
                  if s.shard_index != home]
        assert any("host0" in s._remote_down for s in others)


class TestOneVerdictStage:
    """The root concludes with the single Analyzer's code, so what that
    code does after the merge cannot differ between deployments."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_service_membership_expires(self, shards):
        cluster, system = deploy(shards=shards, sla_sketch=False)
        members = [f"host{i}-rnic0" for i in (0, 1, 4, 5)]  # pods 0 and 1
        job = DmlJob(cluster, members,
                     DmlConfig(pattern=CommPattern.ALL2ALL))
        job.start()
        cluster.sim.run_for(seconds(45))
        assert all(system.analyzer.in_service_network(m) for m in members)
        job.stop()
        # > 3 analysis periods after the last service-tracing probe.
        cluster.sim.run_for(seconds(100))
        assert not any(system.analyzer.in_service_network(m)
                       for m in members)

    def test_problem_tracker_follows_fused_windows(self):
        cluster, system = deploy(shards=2)
        tracker = ProblemTracker()
        tracker.attach(system.analyzer)
        cluster.sim.run_for(seconds(10))
        LinkCorruption(cluster, "pod1-tor0", "pod1-agg0",
                       drop_prob=0.5).inject()
        cluster.sim.run_for(seconds(55))
        fused = {p.key() for p in system.analyzer.problems
                 if p.category in ProblemTracker.TICKETED}
        assert fused
        assert {(t.category.value, t.locus)
                for t in tracker.tickets} == fused
        assert sum(t.windows_seen for t in tracker.tickets) == sum(
            1 for p in system.analyzer.problems
            if p.category in ProblemTracker.TICKETED)


class TestDefaultPathUnchanged:
    def test_single_shard_uses_plain_wiring(self, small_clos):
        system = RPingmesh(small_clos)
        assert system.pod_map is None
        assert not hasattr(system.analyzer, "shards")
        assert not hasattr(system.controller, "shards")
