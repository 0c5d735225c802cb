"""Service tracing end-to-end: eBPF events -> pinglists -> probes (§4.2.2)."""

import pytest

from repro.core.records import ProbeKind
from repro.core.system import RPingmesh
from repro.services.dml import CommPattern, DmlConfig, DmlJob
from repro.sim.units import MILLISECOND, seconds


@pytest.fixture
def system_with_job(small_clos):
    system = RPingmesh(small_clos)
    system.start()
    small_clos.sim.run_for(seconds(2))
    job = DmlJob(small_clos, small_clos.rnic_names()[:6],
                 DmlConfig(pattern=CommPattern.ALLREDUCE,
                           compute_time_ns=300 * MILLISECOND,
                           data_gbits_per_cycle=2.0))
    system.attach_service_monitor(job)
    return system, job


class TestPinglistLifecycle:
    def test_entries_appear_on_connect(self, small_clos, system_with_job):
        system, job = system_with_job
        assert not any(a.has_service_entries()
                       for a in system.agents.values())
        job.start()
        participant_agents = {system.agent_for_rnic(p)
                              for p in job.participants}
        assert all(a.has_service_entries() for a in participant_agents)

    def test_entries_match_service_five_tuples(self, small_clos,
                                               system_with_job):
        system, job = system_with_job
        job.start()
        for conn in job.connections:
            agent = system.agent_for_rnic(conn.src_rnic)
            entries = agent.pinglist(conn.src_rnic,
                                     ProbeKind.SERVICE_TRACING)
            ports = {e.src_port for e in entries}
            assert conn.src_port in ports

    def test_entries_removed_on_destroy(self, small_clos, system_with_job):
        system, job = system_with_job
        job.start()
        small_clos.sim.run_for(seconds(2))
        job.stop()
        assert not any(a.has_service_entries()
                       for a in system.agents.values())

    def test_reroute_updates_entry_port(self, small_clos, system_with_job):
        system, job = system_with_job
        job.start()
        conn = job.connections[0]
        job.reroute_connection(conn, 44_444)
        agent = system.agent_for_rnic(conn.src_rnic)
        entries = agent.pinglist(conn.src_rnic, ProbeKind.SERVICE_TRACING)
        assert 44_444 in {e.src_port for e in entries}

    def test_non_participant_agents_stay_idle(self, small_clos,
                                              system_with_job):
        system, job = system_with_job
        job.start()
        outsiders = [a for name, a in system.agents.items()
                     if not any(p.startswith(name + "-")
                                for p in job.participants)]
        assert outsiders
        assert not any(a.has_service_entries() for a in outsiders)


class TestParking:
    """The service-tracing task runs only while its RNIC has a traced
    connection (§4.2.2): park -> resolve -> destroy -> park."""

    def test_park_resolve_destroy_park(self, small_clos, system_with_job):
        system, job = system_with_job
        agent = system.agent_for_rnic(job.participants[0])
        state = agent.states[job.participants[0]]
        service_task = state.tasks[2]
        cluster_rate = agent.probe_rate_pps()
        service_rate = 1e9 / system.config.service_probe_interval_ns

        # Parked: no entries, no pending tick, no service share of the rate.
        assert service_task.stopped and service_task.runs == 0
        assert not agent.has_service_entries()
        small_clos.sim.run_for(seconds(1))
        assert service_task.runs == 0

        # The first resolved connection arms it.
        job.start()
        assert agent.has_service_entries()
        assert not service_task.stopped
        assert agent.probe_rate_pps() == pytest.approx(
            cluster_rate + service_rate)
        small_clos.sim.run_for(seconds(1))
        ticks = service_task.runs
        assert 70 < ticks < 110          # 10 ms + up to 2.5 ms jitter

        # The last destroyed connection parks it again.
        job.stop()
        assert not agent.has_service_entries()
        assert service_task.stopped
        assert agent.probe_rate_pps() == pytest.approx(cluster_rate)
        small_clos.sim.run_for(seconds(1))
        assert service_task.runs == ticks

        # ... and a new job arms it once more.
        again = DmlJob(small_clos, job.participants,
                       DmlConfig(pattern=CommPattern.ALLREDUCE,
                                 compute_time_ns=300 * MILLISECOND,
                                 data_gbits_per_cycle=2.0))
        again.start()
        assert agent.has_service_entries() and not service_task.stopped
        small_clos.sim.run_for(seconds(1))
        assert service_task.runs > ticks

    def test_one_rnic_parks_independently_of_its_host_mate(
            self, multi_rnic_clos):
        system = RPingmesh(multi_rnic_clos)
        system.start()
        multi_rnic_clos.sim.run_for(seconds(1))
        names = multi_rnic_clos.rnic_names()
        job = DmlJob(multi_rnic_clos, [names[0], names[2]],
                     DmlConfig(pattern=CommPattern.ALLREDUCE,
                               compute_time_ns=300 * MILLISECOND,
                               data_gbits_per_cycle=2.0))
        job.start()
        agent = system.agent_for_rnic(names[0])
        assert agent.has_service_entries()
        assert not agent.states[names[0]].tasks[2].stopped
        assert agent.states[names[1]].tasks[2].stopped


class TestServiceProbing:
    def test_service_probes_flow_after_start(self, small_clos,
                                             system_with_job):
        system, job = system_with_job
        captured = []
        system.analyzer.add_upload_listener(
            lambda b: captured.extend(
                r for r in b.results
                if r.kind == ProbeKind.SERVICE_TRACING))
        job.start()
        small_clos.sim.run_for(seconds(15))
        assert len(captured) > 100

    def test_service_probes_use_service_ports(self, small_clos,
                                              system_with_job):
        system, job = system_with_job
        captured = []
        system.analyzer.add_upload_listener(
            lambda b: captured.extend(
                r for r in b.results
                if r.kind == ProbeKind.SERVICE_TRACING))
        job.start()
        small_clos.sim.run_for(seconds(10))
        service_ports = {c.src_port for c in job.connections}
        assert captured
        assert {r.five_tuple.src_port for r in captured} <= service_ports

    def test_probing_pauses_when_connections_close(self, small_clos,
                                                   system_with_job):
        system, job = system_with_job
        job.start()
        small_clos.sim.run_for(seconds(5))
        job.stop()
        captured = []
        system.analyzer.add_upload_listener(
            lambda b: captured.extend(
                r for r in b.results
                if r.kind == ProbeKind.SERVICE_TRACING
                and r.issued_at_ns > small_clos.sim.now))
        small_clos.sim.run_for(seconds(10))
        assert captured == []

    def test_probes_ride_same_ecmp_path_as_service(self, small_clos,
                                                   system_with_job):
        """The whole point of echoing the service 5-tuple: identical
        ECMP path for probe and service flow."""
        system, job = system_with_job
        job.start()
        conn = job.connections[0]
        src = small_clos.rnic(conn.src_rnic)
        dst = small_clos.rnic(conn.dst_rnic)
        from repro.net.addresses import roce_five_tuple
        service_ft = roce_five_tuple(src.ip, dst.ip, conn.src_port)
        probe_path = small_clos.fabric.path_of(service_ft, conn.src_rnic)
        # Any probe with the same 5-tuple takes exactly this path.
        assert probe_path[0] == conn.src_rnic
        assert probe_path[-1] == conn.dst_rnic
