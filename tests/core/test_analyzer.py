"""Analyzer classification-pipeline tests (§4.3).

These drive the Analyzer with synthetic uploads so each classification rule
is exercised in isolation, without multi-minute simulations.
"""


from repro.controlplane.clients import ANALYZER_ENDPOINT, UploadChannel
from repro.controlplane.endpoint import Endpoint
from repro.controlplane.transport import ManagementNetwork
from repro.core.analyzer import Analyzer
from repro.core.config import RPingmeshConfig
from repro.core.controller import Controller
from repro.core.records import (AgentUpload, Priority, ProbeKind,
                                ProbeResult, ProblemCategory)
from repro.net.addresses import roce_five_tuple
from repro.net.traceroute import PathRecord
from repro.sim.rng import RngStream
from repro.sim.units import seconds

_seq = iter(range(1, 1_000_000))


def make_analyzer(cluster, **config_overrides):
    config = RPingmeshConfig(**config_overrides)
    controller = Controller(cluster, config, RngStream(0, "ctl"))
    # Register comm info manually (no agents in these unit tests).
    for name in cluster.rnic_names():
        rnic = cluster.rnic(name)
        from repro.host.rnic import CommInfo
        controller._registry[name] = CommInfo(rnic.ip, rnic.gid.value, 100)
        controller._by_ip[rnic.ip] = name
    return Analyzer(cluster, controller, config), controller


def probe_result(cluster, prober, target, *, timeout=False,
                 kind=ProbeKind.TOR_MESH, qpn=100, rtt=None,
                 responder_proc=5_000, prober_proc=5_000, path=None,
                 issued_at=1):
    prober_rnic = cluster.rnic(prober)
    target_rnic = cluster.rnic(target)
    ft = roce_five_tuple(prober_rnic.ip, target_rnic.ip, 7000)
    return ProbeResult(
        kind=kind, seq=next(_seq), prober_rnic=prober,
        prober_host=cluster.host_of_rnic(prober).name,
        target_rnic=target, target_ip=target_rnic.ip, target_qpn=qpn,
        five_tuple=ft, issued_at_ns=issued_at, completed_at_ns=issued_at,
        timeout=timeout,
        network_rtt_ns=None if timeout else (rtt or 6_000),
        prober_processing_ns=None if timeout else prober_proc,
        responder_processing_ns=None if timeout else responder_proc,
        probe_path=path)


def upload(analyzer, cluster, host, results, at_ns=None):
    analyzer.receive_upload(AgentUpload(
        host=host, uploaded_at_ns=at_ns or cluster.sim.now,
        results=results))


class TestHostDownDetection:
    def test_silent_host_is_down(self, small_clos):
        analyzer, _ = make_analyzer(small_clos)
        # host0 uploaded at t=0, then went silent.
        upload(analyzer, small_clos, "host0", [], at_ns=0)
        upload(analyzer, small_clos, "host1", [], at_ns=0)
        small_clos.sim.run_until(seconds(40))
        upload(analyzer, small_clos, "host1",
               [probe_result(small_clos, "host1-rnic0", "host0-rnic0",
                             timeout=True, issued_at=seconds(39))],
               at_ns=seconds(40))
        window = analyzer.analyze()
        assert "host0" in window.down_hosts
        problems = window.problem_categories()
        assert problems[ProblemCategory.HOST_DOWN] == 1
        # No RNIC or switch problem emitted for host-down timeouts.
        assert ProblemCategory.SWITCH_NETWORK_PROBLEM not in problems

    def test_uploading_host_not_down(self, small_clos):
        analyzer, _ = make_analyzer(small_clos)
        small_clos.sim.run_until(seconds(20))
        upload(analyzer, small_clos, "host0", [])
        window = analyzer.analyze()
        assert "host0" not in window.down_hosts


class _LosesOneAck(ManagementNetwork):
    """A management network that drops exactly one envelope: the first
    the Analyzer sends, i.e. its ack of the first upload."""

    lost = 0

    def send(self, env):
        if env.src == ANALYZER_ENDPOINT and not self.lost:
            self.lost += 1
            return False
        return super().send(env)


class TestDuplicateUploads:
    """The upload channel resends on ack timeout, so a lost *ack* brings a
    batch the Analyzer already took a second time."""

    def test_a_lost_ack_does_not_ingest_the_batch_twice(self, small_clos):
        analyzer, _ = make_analyzer(small_clos)
        net = _LosesOneAck(small_clos.sim, RngStream(0, "controlplane"))
        analyzer.bind(net)
        channel = UploadChannel(Endpoint("agent.host0", net), analyzer.config)
        channel.submit(AgentUpload("host0", small_clos.sim.now, [
            probe_result(small_clos, "host0-rnic0", "host1-rnic0")
            for _ in range(4)]))
        small_clos.sim.run_until(seconds(20))
        # The resend was acked, so the channel is done with the batch...
        assert (net.lost, channel.retries, channel.acked,
                channel.backlog) == (1, 1, 1, 0)
        # ...and the window holds its four results once.
        window = analyzer.analyze()
        assert window.results_processed == 4
        assert analyzer.sla.latest().cluster.probes_total == 4
        assert (analyzer.ingest_accepted, analyzer.ingest_duplicates) == (1, 1)

    def test_a_late_retry_cannot_run_the_silence_clock_backwards(
            self, small_clos):
        analyzer, _ = make_analyzer(small_clos)
        upload(analyzer, small_clos, "host0", [], at_ns=seconds(30))
        upload(analyzer, small_clos, "host0", [], at_ns=seconds(5))
        small_clos.sim.run_until(seconds(45))
        assert "host0" not in analyzer.analyze().down_hosts

    def test_the_memory_is_the_resend_buffer(self, small_clos):
        """A channel can only resend what its buffer still holds, so that
        many timestamps per host are all the Analyzer keeps."""
        analyzer, _ = make_analyzer(small_clos, upload_resend_buffer=2)
        for at_ns in (1, 2, 3, 3, 2):
            upload(analyzer, small_clos, "host0", [], at_ns=at_ns)
        upload(analyzer, small_clos, "host1", [], at_ns=3)  # another host
        assert (analyzer.ingest_accepted, analyzer.ingest_duplicates) == (4, 2)
        upload(analyzer, small_clos, "host0", [], at_ns=1)  # forgotten
        assert analyzer.ingest_accepted == 5


class TestQpnResetNoise:
    def test_stale_qpn_timeout_is_noise(self, small_clos):
        analyzer, controller = make_analyzer(small_clos)
        small_clos.sim.run_until(seconds(20))
        result = probe_result(small_clos, "host0-rnic0", "host1-rnic0",
                              timeout=True, qpn=999,  # registry says 100
                              issued_at=seconds(19))
        upload(analyzer, small_clos, "host0", [result])
        upload(analyzer, small_clos, "host1", [])
        window = analyzer.analyze()
        assert window.qpn_reset_timeouts == 1
        assert window.problems == []

    def test_current_qpn_timeout_is_not_noise(self, small_clos):
        analyzer, _ = make_analyzer(small_clos)
        small_clos.sim.run_until(seconds(20))
        results = [probe_result(small_clos, "host0-rnic0", "host1-rnic0",
                                timeout=True, qpn=100,
                                issued_at=seconds(19))
                   for _ in range(5)]
        upload(analyzer, small_clos, "host0", results)
        upload(analyzer, small_clos, "host1", [])
        window = analyzer.analyze()
        assert window.qpn_reset_timeouts == 0


class TestAnomalousRnicDetection:
    def _tor_mesh_storm(self, cluster, bad_rnic, *, timeout_rate=1.0):
        """ToR-mesh probes among ToR peers; probes involving bad fail."""
        tor = cluster.tor_of(bad_rnic)
        peers = cluster.rnics_under_tor(tor)
        results = []
        for prober in peers:
            for target in peers:
                if prober == target:
                    continue
                involved = bad_rnic in (prober, target)
                for i in range(10):
                    results.append(probe_result(
                        cluster, prober, target,
                        timeout=involved and (i < 10 * timeout_rate),
                        issued_at=seconds(19)))
        return results

    def test_bad_target_detected(self, small_clos):
        analyzer, _ = make_analyzer(small_clos)
        small_clos.sim.run_until(seconds(20))
        results = self._tor_mesh_storm(small_clos, "host1-rnic0")
        upload(analyzer, small_clos, "host0", results)
        window = analyzer.analyze()
        assert window.anomalous_rnics == {"host1-rnic0"}
        cats = window.problem_categories()
        assert cats[ProblemCategory.RNIC_PROBLEM] == 1
        assert cats.get(ProblemCategory.SWITCH_NETWORK_PROBLEM, 0) == 0

    def test_below_threshold_not_detected(self, small_clos):
        analyzer, _ = make_analyzer(small_clos)
        small_clos.sim.run_until(seconds(20))
        results = self._tor_mesh_storm(small_clos, "host1-rnic0",
                                       timeout_rate=0.05)
        upload(analyzer, small_clos, "host0", results)
        window = analyzer.analyze()
        assert window.anomalous_rnics == set()

    def test_iterative_filtering_protects_neighbours(self, small_clos):
        """A broken prober fails 100% of its outgoing probes; its healthy
        targets must NOT be flagged."""
        analyzer, _ = make_analyzer(small_clos)
        small_clos.sim.run_until(seconds(20))
        results = self._tor_mesh_storm(small_clos, "host0-rnic0")
        upload(analyzer, small_clos, "host0", results)
        window = analyzer.analyze()
        assert window.anomalous_rnics == {"host0-rnic0"}

    def test_quarantine_attributes_future_timeouts(self, small_clos):
        analyzer, _ = make_analyzer(small_clos)
        small_clos.sim.run_until(seconds(20))
        upload(analyzer, small_clos, "host0",
               self._tor_mesh_storm(small_clos, "host1-rnic0"))
        analyzer.analyze()
        # Next window: an inter-ToR timeout involving the quarantined RNIC
        # must be attributed to the RNIC, not the switch network.
        small_clos.sim.run_until(seconds(40))
        late = [probe_result(small_clos, "host6-rnic0", "host1-rnic0",
                             timeout=True, kind=ProbeKind.INTER_TOR,
                             issued_at=seconds(39))
                for _ in range(5)]
        upload(analyzer, small_clos, "host6", late)
        analyzer.analyze()
        report = analyzer.sla.latest()
        assert report.cluster.timeouts_rnic == 5
        assert report.cluster.timeouts_switch == 0


class TestCpuFalsePositiveFilter:
    def _multi_rnic_storm(self, cluster, host_name):
        """All RNICs of one host time out simultaneously (Fig 6 right)."""
        rnics = [r.name for r in cluster.hosts[host_name].rnics]
        results = []
        for bad in rnics:
            tor = cluster.tor_of(bad)
            for prober in cluster.rnics_under_tor(tor):
                if prober == bad:
                    continue
                for _ in range(10):
                    results.append(probe_result(
                        cluster, prober, bad, timeout=True,
                        issued_at=seconds(19)))
        # plus healthy probes so rates are meaningful
        for rnic in cluster.rnic_names():
            if rnic in rnics:
                continue
            tor = cluster.tor_of(rnic)
            for peer in cluster.rnics_under_tor(tor):
                if peer == rnic or peer in rnics:
                    continue
                results.append(probe_result(cluster, peer, rnic,
                                            issued_at=seconds(19)))
        return results

    def test_filter_suppresses_multi_rnic_fp(self, multi_rnic_clos):
        analyzer, _ = make_analyzer(multi_rnic_clos)
        multi_rnic_clos.sim.run_until(seconds(20))
        upload(analyzer, multi_rnic_clos, "host0",
               self._multi_rnic_storm(multi_rnic_clos, "host0"))
        window = analyzer.analyze()
        assert window.anomalous_rnics == set()
        assert "host0" in window.cpu_noise_hosts

    def test_filter_disabled_reports_rnic_problems(self, multi_rnic_clos):
        """Without the §6 filter these are the paper's 30 false positives."""
        analyzer, _ = make_analyzer(multi_rnic_clos,
                                    cpu_fp_filter_enabled=False)
        multi_rnic_clos.sim.run_until(seconds(20))
        upload(analyzer, multi_rnic_clos, "host0",
               self._multi_rnic_storm(multi_rnic_clos, "host0"))
        window = analyzer.analyze()
        assert len(window.anomalous_rnics) == 2

    def test_high_processing_delay_corroboration(self, small_clos):
        """Single-RNIC host: the processing-delay rule catches the FP."""
        analyzer, _ = make_analyzer(small_clos)
        small_clos.sim.run_until(seconds(20))
        results = []
        tor = small_clos.tor_of("host0-rnic0")
        peers = [r for r in small_clos.rnics_under_tor(tor)
                 if r != "host0-rnic0"]
        for prober in peers:
            for i in range(10):
                # Half time out, half succeed with huge responder delay.
                if i % 2 == 0:
                    results.append(probe_result(
                        small_clos, prober, "host0-rnic0", timeout=True,
                        issued_at=seconds(19)))
                else:
                    results.append(probe_result(
                        small_clos, prober, "host0-rnic0",
                        responder_proc=5_000_000, issued_at=seconds(19)))
        upload(analyzer, small_clos, "host0", results)
        window = analyzer.analyze()
        assert window.anomalous_rnics == set()
        assert "host0" in window.cpu_noise_hosts


class TestSwitchLocalization:
    def _path(self, hops):
        return PathRecord(five_tuple=roce_five_tuple("1.1.1.1", "2.2.2.2",
                                                     7000),
                          traced_at_ns=0, hops=tuple(hops), reached=True)

    def test_common_link_localized(self, small_clos):
        analyzer, _ = make_analyzer(small_clos)
        small_clos.sim.run_until(seconds(20))
        bad_link_path = self._path(
            ["host0-rnic0", "pod0-tor0", "pod0-agg0", "pod0-tor1",
             "host3-rnic0"])
        results = []
        for _ in range(6):
            r = probe_result(small_clos, "host0-rnic0", "host3-rnic0",
                             timeout=True, kind=ProbeKind.INTER_TOR,
                             issued_at=seconds(19))
            r.probe_path = bad_link_path
            results.append(r)
        upload(analyzer, small_clos, "host0", results)
        window = analyzer.analyze()
        assert window.cluster_localization is not None
        cats = window.problem_categories()
        assert cats[ProblemCategory.SWITCH_NETWORK_PROBLEM] >= 1

    def test_below_min_anomalies_no_localization(self, small_clos):
        analyzer, _ = make_analyzer(small_clos,
                                    min_anomalies_for_localization=5)
        small_clos.sim.run_until(seconds(20))
        results = [probe_result(small_clos, "host0-rnic0", "host3-rnic0",
                                timeout=True, kind=ProbeKind.INTER_TOR,
                                issued_at=seconds(19))
                   for _ in range(3)]
        upload(analyzer, small_clos, "host0", results)
        window = analyzer.analyze()
        assert window.cluster_localization is None

    def test_service_and_cluster_analyzed_separately(self, small_clos):
        analyzer, _ = make_analyzer(small_clos)
        small_clos.sim.run_until(seconds(20))
        service = [probe_result(small_clos, "host0-rnic0", "host3-rnic0",
                                timeout=True, kind=ProbeKind.SERVICE_TRACING,
                                issued_at=seconds(19))
                   for _ in range(5)]
        upload(analyzer, small_clos, "host0", service)
        window = analyzer.analyze()
        assert window.service_localization is not None
        assert window.cluster_localization is None


class TestPriorities:
    def test_service_tracing_problem_is_p0_when_degraded(self, small_clos):
        analyzer, _ = make_analyzer(small_clos)

        class DegradedMonitor:
            def degraded(self):
                return True

        analyzer.attach_service_monitor(DegradedMonitor())
        small_clos.sim.run_until(seconds(20))
        results = [probe_result(small_clos, "host0-rnic0", "host3-rnic0",
                                timeout=True, kind=ProbeKind.SERVICE_TRACING,
                                issued_at=seconds(19))
                   for _ in range(5)]
        upload(analyzer, small_clos, "host0", results)
        window = analyzer.analyze()
        assert window.problems
        assert all(p.priority == Priority.P0 for p in window.problems)

    def test_service_problem_p1_when_not_degraded(self, small_clos):
        analyzer, _ = make_analyzer(small_clos)

        class HealthyMonitor:
            def degraded(self):
                return False

        analyzer.attach_service_monitor(HealthyMonitor())
        small_clos.sim.run_until(seconds(20))
        results = [probe_result(small_clos, "host0-rnic0", "host3-rnic0",
                                timeout=True, kind=ProbeKind.SERVICE_TRACING,
                                issued_at=seconds(19))
                   for _ in range(5)]
        upload(analyzer, small_clos, "host0", results)
        window = analyzer.analyze()
        assert all(p.priority == Priority.P1 for p in window.problems)

    def test_cluster_problem_outside_service_is_p2(self, small_clos):
        analyzer, _ = make_analyzer(small_clos)
        small_clos.sim.run_until(seconds(20))
        results = [probe_result(small_clos, "host0-rnic0", "host3-rnic0",
                                timeout=True, kind=ProbeKind.INTER_TOR,
                                issued_at=seconds(19))
                   for _ in range(5)]
        upload(analyzer, small_clos, "host0", results)
        window = analyzer.analyze()
        assert window.problems
        assert all(p.priority == Priority.P2 for p in window.problems)
        assert analyzer.network_innocent()

    def test_cluster_problem_inside_service_network(self, small_clos):
        """Cluster Monitoring finding on a service-network device: P0/P1."""
        analyzer, _ = make_analyzer(small_clos)
        small_clos.sim.run_until(seconds(20))
        service_path = PathRecord(
            five_tuple=roce_five_tuple("1.1.1.1", "2.2.2.2", 7000),
            traced_at_ns=0,
            hops=("host0-rnic0", "pod0-tor0", "pod0-agg0", "pod0-tor1",
                  "host3-rnic0"),
            reached=True)
        ok = probe_result(small_clos, "host0-rnic0", "host3-rnic0",
                          kind=ProbeKind.SERVICE_TRACING,
                          issued_at=seconds(19))
        ok.probe_path = service_path
        cluster_timeouts = []
        for _ in range(5):
            r = probe_result(small_clos, "host6-rnic0", "host3-rnic0",
                             timeout=True, kind=ProbeKind.INTER_TOR,
                             issued_at=seconds(19))
            r.probe_path = service_path  # dies on the same service link
            cluster_timeouts.append(r)
        upload(analyzer, small_clos, "host0", [ok] + cluster_timeouts)
        window = analyzer.analyze()
        switch_problems = [p for p in window.problems
                           if p.category
                           == ProblemCategory.SWITCH_NETWORK_PROBLEM]
        assert switch_problems
        assert all(p.priority == Priority.P1 for p in switch_problems)
        assert not analyzer.network_innocent()


class TestSlaAggregation:
    def test_counts_by_scope(self, small_clos):
        analyzer, _ = make_analyzer(small_clos)
        small_clos.sim.run_until(seconds(20))
        results = [
            probe_result(small_clos, "host0-rnic0", "host1-rnic0",
                         issued_at=seconds(19)),
            probe_result(small_clos, "host0-rnic0", "host1-rnic0",
                         kind=ProbeKind.SERVICE_TRACING,
                         issued_at=seconds(19)),
        ]
        upload(analyzer, small_clos, "host0", results)
        analyzer.analyze()
        report = analyzer.sla.latest()
        assert report.cluster.probes_total == 1
        assert report.service.probes_total == 1

    def test_non_network_timeouts_separated(self, small_clos):
        analyzer, _ = make_analyzer(small_clos)
        small_clos.sim.run_until(seconds(20))
        result = probe_result(small_clos, "host0-rnic0", "host1-rnic0",
                              timeout=True, qpn=999, issued_at=seconds(19))
        upload(analyzer, small_clos, "host0", [result])
        upload(analyzer, small_clos, "host1", [])
        analyzer.analyze()
        report = analyzer.sla.latest()
        assert report.cluster.timeouts_non_network == 1
        assert report.cluster.drop_rate == 0.0
