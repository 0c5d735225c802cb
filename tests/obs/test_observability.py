"""Integration contract of the ``obs=`` knob (DESIGN.md §8).

The heavyweight acceptance tests of this package: span lifecycle
completeness over a faulty run, metric snapshot determinism across
same-seed runs, and replay-digest equality with observability on vs off
(profiling included) — the layer observes the simulation but never
perturbs it.
"""

import pytest

from repro.analysis.runtime import (default_scenario, replay_digest,
                                    structural_digest)
from repro.cluster import Cluster
from repro.core.config import RPingmeshConfig
from repro.core.system import RPingmesh
from repro.net.addresses import roce_five_tuple
from repro.net.clos import ClosParams
from repro.net.faults import RnicDown
from repro.net.packet import RoCEPacket
from repro.obs import Observability
from repro.sim.units import SECOND

SEED = 3
DURATION_NS = 25 * SECOND       # one analysis window + verdict annotations


@pytest.fixture(scope="module")
def full_obs_run():
    """The reference scenario with every observability layer on."""
    obs = Observability(tracing=True, metrics=True, profiling=True)
    state = default_scenario(SEED, duration_ns=DURATION_NS, obs=obs)
    return obs, state


class TestDefaultOff:
    def test_default_system_has_everything_off(self, tiny_clos):
        system = RPingmesh(tiny_clos)
        assert not system.obs.enabled
        assert tiny_clos.fabric.tracer is None
        assert all(r.tracer is None for r in tiny_clos.all_rnics())
        assert tiny_clos.sim.profiler is None

    def test_install_wires_tracer_and_profiler(self, tiny_clos):
        obs = Observability(tracing=True, profiling=True)
        RPingmesh(tiny_clos, obs=obs)
        assert tiny_clos.fabric.tracer is obs.tracer
        assert all(r.tracer is obs.tracer for r in tiny_clos.all_rnics())
        assert tiny_clos.sim.profiler is obs.profiler


class TestSpanLifecycle:
    def test_every_finished_probe_closed_exactly_once(self, full_obs_run):
        obs, _ = full_obs_run
        spans = obs.tracer.all_spans()
        assert spans and not obs.tracer.spans_evicted
        closed = [s for s in spans if s.closed]
        assert all(s.close_count == 1 for s in closed)
        assert all(s.close_count == 0 for s in spans if not s.closed)
        # A span may legitimately still be open only if its probe had not
        # yet timed out when the run stopped.
        timeout_ns = RPingmeshConfig().probe_timeout_ns
        for span in spans:
            if not span.closed:
                assert span.opened_at_ns > DURATION_NS - timeout_ns

    def test_both_result_paths_are_exercised(self, full_obs_run):
        obs, _ = full_obs_run
        statuses = {s.status for s in obs.tracer.closed_spans()}
        assert statuses == {"ok", "timeout"}   # the corrupting link bites

    def test_closed_spans_carry_the_full_trail(self, full_obs_run):
        obs, _ = full_obs_run
        for span in obs.tracer.closed_spans():
            assert len(span.events_named("agent.send")) == 1
            assert len(span.events_named("agent.result")) == 1
            if span.status == "ok":
                # A completed exchange traced every Figure-4 CQE mark.
                marks = {e.fields.get("mark")
                         for e in span.events
                         if e.name in ("cqe.send", "cqe.recv")}
                assert {"t2", "t3", "t4", "t5"} <= marks
                assert span.events_named("agent.done")
            else:
                # A fabric timeout shows the drop (or the lost leg never
                # reaching delivery) on the span itself.
                assert span.events_named("fabric.hop")

    def test_analyzer_verdicts_annotate_closed_spans(self, full_obs_run):
        obs, _ = full_obs_run
        verdicts = [e for s in obs.tracer.closed_spans()
                    for e in s.events_named("analyzer.verdict")]
        assert verdicts
        values = {e.fields["verdict"] for e in verdicts}
        assert "ok" in values
        assert "switch_network_problem" in values
        localized = [e for e in verdicts if "suspect" in e.fields]
        assert localized and all(e.fields["votes"] > 0 for e in localized)

    def test_local_send_error_path_closes_via_timeout(self, tiny_clos):
        obs = Observability(tracing=True)
        system = RPingmesh(tiny_clos, obs=obs)
        system.start()
        tiny_clos.sim.run_for(2 * SECOND)
        RnicDown(tiny_clos, "host0-rnic0").inject()
        tiny_clos.sim.run_for(3 * SECOND)
        timeout_ns = system.config.probe_timeout_ns
        local_errors = [s for s in obs.tracer.all_spans()
                        if s.events_named("agent.local_send_error")
                        and s.opened_at_ns + timeout_ns <= tiny_clos.sim.now]
        assert local_errors
        for span in local_errors:
            assert span.closed and span.status == "timeout"
            assert span.close_count == 1


class TestWalkerSeries:
    def test_in_flight_gauge_and_demotion_counter(self, tiny_clos):
        """The rare path is visible: how many packets are mid-walk, and how
        often a mid-flight write took lookahead back."""
        obs = Observability(metrics=True)
        obs.install(tiny_clos)
        fabric = tiny_clos.fabric
        a, b = tiny_clos.rnic("host0-rnic0"), tiny_clos.rnic("host2-rnic0")
        five_tuple = roce_five_tuple(a.ip, b.ip, 5000)
        fabric.attach_receiver(b.name, lambda packet, record: None)
        fabric.inject(RoCEPacket(five_tuple=five_tuple, size_bytes=108),
                      a.name)
        snap = obs.metrics.snapshot()
        assert snap["repro_fabric_packets_in_flight"] == 1
        assert snap["repro_fabric_walker_demotions_total"] == 0
        assert snap["repro_fabric_hops_evaluated_total"] == 0
        tiny_clos.sim.run_for(700)
        path = fabric.path_of(five_tuple, a.name)
        tiny_clos.topology.link(path[-2], path[-1]).corruption_drop_prob = 1.0
        tiny_clos.sim.run_for(SECOND)
        snap = obs.metrics.snapshot()
        assert snap["repro_fabric_packets_in_flight"] == 0
        assert snap["repro_fabric_walker_demotions_total"] == 1
        # The one hop that left the fast path: the corrupting last one.
        assert snap["repro_fabric_hops_evaluated_total"] == 1
        assert snap['repro_fabric_drops_total{reason="corruption"}'] == 1

    def test_host_steps_planned_gauge_and_demotion_counter(self, tiny_clos):
        """The host half of the same story: send steps run ahead of the
        clock, and how often a write took one back."""
        obs = Observability(metrics=True)
        system = RPingmesh(tiny_clos, obs=obs)
        system.start()
        sim = tiny_clos.sim
        rnic = tiny_clos.rnic("host0-rnic0")
        sim.run_until(2 * SECOND)
        while not rnic.planned():       # stop right after a probe post
            sim.run_until(sim.now + 500)
        snap = obs.metrics.snapshot()
        planned = snap["repro_host_steps_planned"]
        assert planned >= len(rnic.planned()) >= 1
        assert snap["repro_host_step_demotions_total"] == 0
        sent = rnic.tx_packets
        for other in tiny_clos.all_rnics():
            other.flap_down = True
        snap = obs.metrics.snapshot()
        assert snap["repro_host_step_demotions_total"] == planned
        assert snap["repro_host_steps_planned"] == 0
        sim.run_for(10_000)
        # The re-queued steps ran against the written state: nothing left.
        assert rnic.tx_packets == sent
        series = obs.metrics.render_prometheus()
        assert "# HELP repro_host_steps_planned " in series
        assert "# HELP repro_host_step_demotions_total " in series

    def test_tracer_on_means_no_host_lookahead(self, tiny_clos):
        """As for the fabric: with the tracer installed every departure is
        its own event, so ``cqe.send`` carries the true departure time."""
        obs = Observability(tracing=True)
        system = RPingmesh(tiny_clos, obs=obs)
        system.start()
        tiny_clos.sim.run_for(3 * SECOND)
        rnics = {rnic.name: rnic for rnic in tiny_clos.all_rnics()}
        assert not any(rnic.settled or rnic.planned()
                       or rnic.step_demotions for rnic in rnics.values())
        sends = [event for span in obs.tracer.all_spans()
                 for event in span.events_named("cqe.send")]
        assert len(sends) > 100
        for event in sends:
            clock = rnics[event.fields["rnic"]].clock
            assert clock.read(event.time_ns) \
                == event.fields["rnic_timestamp_ns"]


class TestMetricsDeterminism:
    @staticmethod
    def _metrics_run():
        obs = Observability(metrics=True)
        default_scenario(SEED, duration_ns=21 * SECOND, obs=obs)
        return obs

    def test_same_seed_runs_snapshot_identically(self):
        first, second = self._metrics_run(), self._metrics_run()
        assert first.metrics.snapshot() == second.metrics.snapshot()
        assert first.metrics.render_prometheus() == \
            second.metrics.render_prometheus()

    def test_snapshot_carries_every_absorbed_surface(self, full_obs_run):
        obs, state = full_obs_run
        snap = obs.metrics.snapshot()
        # EndpointStats (control plane), Analyzer ingest, fabric, RNIC,
        # engine, agent histogram: one series family each.
        for family in ("repro_controlplane_sent_total{",
                       "repro_analyzer_ingest_accepted_total",
                       "repro_fabric_packets_delivered_total",
                       "repro_rnic_tx_packets_total{",
                       "repro_sim_events_processed_total",
                       "repro_agent_network_rtt_ns_count",
                       "repro_obs_spans_opened"):
            assert any(k.startswith(family) for k in snap), family
        assert snap["repro_fabric_packets_injected_total"] == \
            state["fabric"]["injected"]
        assert snap["repro_sim_events_processed_total"] > 0
        assert snap["repro_agent_network_rtt_ns_count"] > 0
        drops = [v for k, v in snap.items()
                 if k.startswith("repro_fabric_drops_total")]
        assert drops and sum(drops) > 0


class TestEndpointStatsFacade:
    """EndpointStats are plain ints; one pull collector exports them."""

    def test_attributes_and_registry_agree(self, full_obs_run):
        obs, state = full_obs_run
        snap = obs.metrics.snapshot()
        for name, counters in state["control_plane"].items():
            for fld in ("sent", "delivered", "retries"):
                series = (f'repro_controlplane_{fld}_total'
                          f'{{endpoint="{name}"}}')
                assert snap[series] == counters[fld]
        assert 'repro_controlplane_latency_ns_total{endpoint="analyzer"}' \
            in snap
        assert ("# HELP repro_controlplane_retries_total "
                "client resends (upload channel)"
                ) in obs.metrics.render_prometheus()

    def test_as_dict_keeps_the_legacy_keys(self):
        from repro.controlplane.transport import ManagementNetwork
        from repro.obs.metrics import MetricsRegistry
        from repro.sim.engine import Simulator
        from repro.sim.rng import RngRegistry
        net = ManagementNetwork(Simulator(seed=0),
                                RngRegistry(0).stream("controlplane"))
        stats = net.attach("a", lambda e: None)
        stats.sent += 2
        stats.retries += 1
        shape = stats.as_dict()
        assert shape["sent"] == 2 and shape["retries"] == 1
        assert set(shape) == {
            "sent", "delivered", "received", "dropped_loss",
            "dropped_partition", "dropped_unroutable", "retries",
            "request_timeouts", "latency_total_ns", "dropped"}
        with pytest.raises(AttributeError):
            stats.not_a_field = 1
        # Nothing reaches a registry until the collector is asked to.
        registry = MetricsRegistry()
        net.export_metrics(registry)
        stats.sent += 1
        assert registry.snapshot()[
            'repro_controlplane_sent_total{endpoint="a"}'] == 2
        net.export_metrics(registry)
        assert registry.snapshot()[
            'repro_controlplane_sent_total{endpoint="a"}'] == 3


class TestDigestNeutrality:
    def test_profiling_on_vs_off_replay_digest_identical(self):
        # replay_digest runs the scenario twice; the first pass runs bare,
        # the second under the profiler — identical digests prove wall
        # time never leaks into sim state.
        configs = iter([None, Observability(profiling=True)])

        def scenario(seed):
            return default_scenario(seed, duration_ns=21 * SECOND,
                                    obs=next(configs))

        report = replay_digest(scenario, SEED)
        assert report.identical, report.mismatched_keys

    def test_everything_on_matches_everything_off(self, full_obs_run):
        _, traced_state = full_obs_run
        plain_state = default_scenario(SEED, duration_ns=DURATION_NS)
        assert structural_digest(plain_state) == \
            structural_digest(traced_state)


class TestPfcHooks:
    def test_observe_emits_fabric_events_and_gauges(self, tiny_clos):
        from repro.net.pfc import PauseState, PfcPropagationEngine
        obs = Observability(tracing=True, metrics=True)
        obs.install(tiny_clos)
        engine = PfcPropagationEngine(tiny_clos)
        states = [PauseState(link_name="pod0-tor0->host0-rnic0",
                             duty=0.25, source="host0-rnic0")]
        engine._observe(states, was_storming=False)
        names = [e.name for e in obs.tracer.fabric_events]
        assert names == ["pfc.storm_onset", "pfc.pause"]
        assert obs.metrics.gauge("repro_pfc_paused_links").value == 1
        engine._observe([], was_storming=True)
        assert obs.tracer.fabric_events[-1].name == "pfc.storm_decay"
