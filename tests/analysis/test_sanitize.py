"""PoolSan runtime sanitizer: neutrality, true positives, accounting.

The two contracts under test (DESIGN.md §12):

* **Digest neutrality** — ``sanitize=True`` only observes: every golden
  scenario's sanitized digest must equal the *pinned* plain digest, so a
  sanitized CI run exercises exactly the bytes production runs produce.
* **Detection** — deliberately injected use-after-release writes, double
  releases, and leaks must each surface as an actionable SANxxx finding
  anchored at a real ``file:line`` site.
"""

import pytest

from repro.analysis import (PoolSanitizer, PoolSanitizerError,
                            sanitize_check, structural_digest)
from repro.analysis.runtime import (GOLDEN_SCENARIOS, SCENARIOS,
                                    run_scenario)
from repro.cluster import Cluster
from repro.net.addresses import roce_five_tuple
from repro.net.clos import ClosParams
from repro.net.packet import PacketPool, RoCEOpcode
from repro.sim.engine import Simulator
from repro.sim.units import SECOND
from tests.sim.test_golden_digests import GOLDEN_DIGESTS, SEED7_DIGESTS

SEED = 7
FT = roce_five_tuple("10.0.0.1", "10.0.0.2", 4242)


def make_sanitizer(**kwargs) -> PoolSanitizer:
    sanitizer = PoolSanitizer(**kwargs)
    sanitizer.bind_sim(Simulator(seed=0))
    return sanitizer


def acquire(pool: PacketPool):
    return pool.acquire_roce(FT, 64, RoCEOpcode.UD_SEND, 1, 2,
                             "gid-a", "gid-b", {"probe": 1})


class TestDigestNeutrality:
    """sanitize=True must not perturb a single byte of system state."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_sanitized_golden_digest_matches_pinned_table(self, name):
        sink: list = []
        state = GOLDEN_SCENARIOS[name](SEED, sanitize=True,
                                       poolsan_out=sink)
        assert structural_digest(state) == GOLDEN_DIGESTS[(name, SEED)]
        (sanitizer,) = sink
        assert sanitizer.report() == []

    def test_sharded_scenario_on_off_equality(self):
        plain = structural_digest(run_scenario("sharded", SEED))
        sink: list = []
        sanitized = structural_digest(
            run_scenario("sharded", SEED, sanitize=True, poolsan_out=sink))
        assert sanitized == plain
        (sanitizer,) = sink
        assert sanitizer.report() == []

    def test_sanitize_check_harness_is_green(self):
        reports = sanitize_check(SEED)
        assert [r.scenario for r in reports] \
            == list(SCENARIOS)
        assert all(r.ok for r in reports), \
            [(r.scenario, r.findings) for r in reports]
        pinned = {name: digest for (name, seed), digest
                  in GOLDEN_DIGESTS.items() if seed == SEED} | SEED7_DIGESTS
        assert {r.scenario: r.digest_plain for r in reports} == pinned


class TestUseAfterRelease:
    def test_stale_write_is_caught_on_reacquire(self):
        sanitizer = make_sanitizer()
        pool = PacketPool(limit=4, sanitizer=sanitizer)
        packet = acquire(pool)
        pool.release(packet)
        packet.sent_at_ns = 123_456   # stale reference writes a timestamp
        reused = acquire(pool)
        assert reused is packet
        (finding,) = sanitizer.findings()
        assert finding.code == "SAN001"
        assert "sent_at_ns" in finding.message
        # Anchored at the release site in THIS file, so the report points
        # at where the object's lifetime actually ended.
        assert "test_sanitize.py" in finding.path
        assert finding.line > 0

    def test_clean_reuse_has_no_findings(self):
        sanitizer = make_sanitizer()
        pool = PacketPool(limit=4, sanitizer=sanitizer)
        packet = acquire(pool)
        pool.release(packet)
        assert acquire(pool) is packet
        assert sanitizer.findings() == []
        assert sanitizer.poison_writes == 0


class TestDoubleRelease:
    def test_double_release_raises_with_both_sites(self):
        sanitizer = make_sanitizer()
        pool = PacketPool(limit=4, sanitizer=sanitizer)
        packet = acquire(pool)
        pool.release(packet)
        with pytest.raises(PoolSanitizerError) as excinfo:
            pool.release(packet)
        assert "double release" in str(excinfo.value)
        assert "already released at" in str(excinfo.value)
        assert sanitizer.double_releases == 1
        (finding,) = sanitizer.findings()
        assert finding.code == "SAN002"

    def test_foreign_packet_release_still_passes_silently(self):
        # A never-pooled packet handed to release() is legitimate: the
        # fabric releases every delivered packet, pooled or not.
        sanitizer = make_sanitizer()
        pool = PacketPool(limit=4, sanitizer=sanitizer)
        from repro.net.packet import RoCEPacket
        foreign = RoCEPacket(five_tuple=FT, size_bytes=64,
                             opcode=RoCEOpcode.UD_SEND, src_qpn=1,
                             dst_qpn=2, src_gid="a", dst_gid="b",
                             payload={})
        pool.release(foreign)   # no raise, no finding
        assert sanitizer.findings() == []


class TestLeaks:
    def test_retained_packet_is_reported_with_acquire_site(self):
        cluster = Cluster.clos(ClosParams(pods=1, tors_per_pod=1,
                                          aggs_per_pod=1, spines=1,
                                          hosts_per_tor=1),
                               seed=0, sanitize=True)
        pool = cluster.fabric.packet_pool
        packet = acquire(pool)
        cluster.sim.run_for(2 * SECOND)   # age it past leak_age_ns
        (finding,) = cluster.sanitizer.leaks()
        assert finding.code == "SAN003"
        assert "leaked pooled packet" in finding.message
        # The acquire site names the caller that took the loan.
        assert "test_sanitize.py" in finding.message
        assert finding.path.endswith("test_sanitize.py")
        # Releasing clears the leak.
        pool.release(packet)
        assert cluster.sanitizer.leaks() == []

    def test_in_flight_objects_are_not_leaks(self):
        sanitizer = make_sanitizer(leak_age_ns=SECOND)
        pool = PacketPool(limit=4, sanitizer=sanitizer)
        acquire(pool)   # young (t=0, now=0): presumed in flight
        assert sanitizer.leaks() == []

    def test_event_accounting_is_exact_after_a_run(self):
        sink: list = []
        GOLDEN_SCENARIOS["quiet"](SEED, sanitize=True, poolsan_out=sink)
        (sanitizer,) = sink
        summary = sanitizer.summary()
        for kind, stats in summary.items():
            assert stats["acquired"] == stats["released"] + stats["live"], \
                (kind, stats)
        # Events reconcile exactly against the calendar queue, so any
        # escape from the recycle path is a finding, not a statistic.
        assert [f for f in sanitizer.leaks()
                if "event accounting" in f.message] == []

    def test_event_accounting_survives_queue_compaction(self):
        """Cancelled events the calendar queue sweeps out in a compaction
        are retired like popped ones, not dropped behind PoolSan's back."""
        sanitizer = PoolSanitizer()
        sim = Simulator(seed=0, sanitizer=sanitizer)
        handles = [sim.call_later(1_000 + n, int) for n in range(200)]
        for handle in handles[:150]:
            handle.cancel()             # > 64 and > live: compacts
        assert sim.queue_depth < 200
        assert sanitizer.leaks() == []
        sim.run_all()
        assert sim.events_processed == 50
        assert sanitizer.report() == []

    def test_transits_reconcile_with_the_in_flight_table(self):
        """Live ``_Transit`` records that carry a packet are exactly the
        fabric's in-flight table — also mid-flight, and across a demotion
        (which leaves a packet-less tombstone behind for its event)."""
        cluster = Cluster.clos(ClosParams(pods=1, tors_per_pod=2,
                                          aggs_per_pod=1, spines=1,
                                          hosts_per_tor=1),
                               seed=0, sanitize=True)
        fabric, sanitizer = cluster.fabric, cluster.sanitizer
        a, b = cluster.all_rnics()
        five_tuple = roce_five_tuple(a.ip, b.ip, 4242)
        fabric.attach_receiver(b.name, lambda packet, record: None)

        def transit_findings():
            return [f for f in sanitizer.leaks() if "transit" in f.message]

        fabric.inject(fabric.packet_pool.acquire_roce(
            five_tuple, 64, RoCEOpcode.UD_SEND, 1, 2, "g", "g", {}), a.name)
        assert fabric.packets_in_flight == 1
        assert transit_findings() == []
        cluster.sim.run_for(700)           # between the first two hops
        path = fabric.path_of(five_tuple, a.name)
        cluster.topology.link(path[2], path[3]).pause_delay_ns = 50
        assert fabric.walker_demotions == 1
        assert sanitizer.live_counts()["transit"] == 2   # + the tombstone
        assert transit_findings() == []
        # A packet walking without an in-flight entry is a finding.
        (packet_id, transit), = fabric._in_flight.items()
        del fabric._in_flight[packet_id]
        (finding,) = transit_findings()
        assert finding.code == "SAN003"
        assert "1 live _Transit" in finding.message
        fabric._in_flight[packet_id] = transit
        cluster.sim.run_for(SECOND)
        assert fabric.packets_delivered == 1
        assert sanitizer.live_counts()["transit"] == 0
        assert sanitizer.report() == []

    def test_packets_lost_inside_the_nic_are_released(self):
        """Local TX drops used to leak their pooled packet: nothing keeps
        it (no DropRecord), so the departure step has to hand it back."""
        from repro.core.system import RPingmesh
        cluster = Cluster.clos(ClosParams(pods=1, tors_per_pod=2,
                                          aggs_per_pod=2, spines=1,
                                          hosts_per_tor=2),
                               seed=SEED, sanitize=True)
        system = RPingmesh(cluster)
        system.start()
        sim, sanitizer = cluster.sim, cluster.sanitizer
        corrupting, dying = cluster.all_rnics()[:2]
        sim.run_for(2 * SECOND)
        corrupting.tx_corruption_prob = 0.5
        # A NIC that goes down between post and departure, over and over:
        # down 500 ns after every probe tick's post_send, up 1 us later.
        post_send = dying.post_send

        def post_then_die(*args, **kwargs):
            wr_id = post_send(*args, **kwargs)
            sim.call_later(500, lambda: setattr(dying, "admin_up", False))
            sim.call_later(1_500, lambda: setattr(dying, "admin_up", True))
            return wr_id

        dying.post_send = post_then_die
        sim.run_for(8 * SECOND)
        assert corrupting.local_drops["tx_corruption"] > 100
        assert dying.local_drops["rnic_down"] > 100
        assert [f for f in sanitizer.report() if "packet" in f.message] == []
        stats = sanitizer.summary()["packet"]
        assert stats["acquired"] == stats["released"] + stats["live"]
        assert stats["live"] - stats["retained"] <= cluster.fabric.packets_in_flight


class TestMetricsExport:
    def test_poolsan_series_in_snapshot(self):
        from repro.core.system import RPingmesh
        from repro.obs import Observability
        from repro.sim.units import seconds
        cluster = Cluster.clos(ClosParams(pods=1, tors_per_pod=2,
                                          aggs_per_pod=1, spines=1,
                                          hosts_per_tor=1),
                               seed=3, sanitize=True)
        obs = Observability(metrics=True)
        system = RPingmesh(cluster, obs=obs)
        system.start()
        cluster.sim.run_for(seconds(5))
        snap = obs.metrics.snapshot()
        pool_series = {k: v for k, v in snap.items()
                       if k.startswith("repro_poolsan_")}
        acquired = {k: v for k, v in pool_series.items()
                    if k.startswith("repro_poolsan_acquired_total")}
        assert len(acquired) == 3   # packet, event, transit
        assert any(v > 0 for v in acquired.values())
        # acquired == released + live, straight off the snapshot.
        for kind in ("packet", "event", "transit"):
            label = f'{{pool="{kind}"}}'
            assert (pool_series[f"repro_poolsan_acquired_total{label}"]
                    == pool_series[f"repro_poolsan_released_total{label}"]
                    + pool_series[f"repro_poolsan_live{label}"])
        assert pool_series["repro_poolsan_double_releases_total"] == 0
