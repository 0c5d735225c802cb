"""DML job internals: pairing, pacing caps, baseline, health verdicts."""

import pytest

from repro.net.faults import RnicCorruption, RnicDown
from repro.services.dml import (BREAKING_DROP_PROB, CommPattern, DmlConfig,
                                DmlJob, FLAPPING_RESIDUAL_FACTOR,
                                MAX_STRETCH)
from repro.sim.units import MILLISECOND, seconds


def job_on(cluster, n=4, **config):
    defaults = dict(compute_time_ns=200 * MILLISECOND,
                    data_gbits_per_cycle=2.0)
    defaults.update(config)
    return DmlJob(cluster, cluster.rnic_names()[:n], DmlConfig(**defaults))


class TestPairs:
    def test_ring_pairs(self, tiny_clos):
        job = job_on(tiny_clos, n=4)
        pairs = job._pairs()
        assert len(pairs) == 4
        sources = [a for a, _ in pairs]
        assert sorted(sources) == sorted(job.participants)

    def test_all2all_pairs(self, tiny_clos):
        job = job_on(tiny_clos, n=4, pattern=CommPattern.ALL2ALL)
        pairs = job._pairs()
        assert len(pairs) == 12
        assert len(set(pairs)) == 12


class TestHealthVerdicts:
    def test_healthy_path_full_factor(self, tiny_clos):
        job = job_on(tiny_clos)
        job.start()
        verdict = job._path_health(job.connections[0])
        assert verdict == pytest.approx(1.0)

    def test_corruption_gives_go_back_n_factor(self, tiny_clos):
        job = job_on(tiny_clos)
        job.start()
        conn = job.connections[0]
        RnicCorruption(tiny_clos, conn.src_rnic, drop_prob=0.01).inject()
        verdict = job._path_health(conn)
        assert isinstance(verdict, float)
        # tx 0.01 + rx... source corruption sets both tx and rx on src;
        # the path health sums src.tx + dst.rx = 0.01.
        assert verdict == pytest.approx((1 - 0.01) ** 64, rel=0.05)

    def test_dead_endpoint_verdict(self, tiny_clos):
        job = job_on(tiny_clos)
        job.start()
        conn = job.connections[0]
        RnicDown(tiny_clos, conn.dst_rnic).inject()
        assert job._path_health(conn) == "dead"

    def test_deadlocked_path_verdict(self, tiny_clos):
        job = job_on(tiny_clos, n=4)
        job.start()
        # Deadlock every fabric cable so any cross-ToR path hits one.
        for link in list(tiny_clos.topology.switch_links()):
            link.pfc_deadlocked = True
        cross = next(c for c in job.connections
                     if tiny_clos.tor_of(c.src_rnic)
                     != tiny_clos.tor_of(c.dst_rnic))
        assert job._path_health(cross) == "dead"

    def test_heavy_corruption_breaks_untuned(self, tiny_clos):
        job = job_on(tiny_clos, retransmission_tuned=False)
        job.start()
        conn = job.connections[0]
        RnicCorruption(tiny_clos, conn.src_rnic,
                       drop_prob=BREAKING_DROP_PROB).inject()
        assert job._path_health(conn) == "dead"

    def test_heavy_corruption_survives_tuned(self, tiny_clos):
        job = job_on(tiny_clos, retransmission_tuned=True)
        job.start()
        conn = job.connections[0]
        RnicCorruption(tiny_clos, conn.src_rnic,
                       drop_prob=BREAKING_DROP_PROB).inject()
        verdict = job._path_health(conn)
        assert verdict == pytest.approx(FLAPPING_RESIDUAL_FACTOR)


class TestPacing:
    def test_max_stretch_bounds_cycle_time(self, tiny_clos):
        """Even a fully stalled flow cannot stretch the cycle beyond
        MAX_STRETCH x nominal, so simulated time keeps moving."""
        job = job_on(tiny_clos, retransmission_tuned=True,
                     per_flow_demand_gbps=90.0, data_gbits_per_cycle=2.0)
        job.start()
        conn = job.connections[0]
        # A deadlock on ALL fabric links turns cross connections "dead"
        # -> task fails; instead stall via flapping-residual: corrupt.
        RnicCorruption(tiny_clos, conn.src_rnic, drop_prob=0.99).inject()
        tiny_clos.sim.run_for(seconds(30))
        assert not job.task_failed
        assert job.cycles_completed >= 1
        # nominal comm = 2/90 s; ceiling = 2/(90/MAX_STRETCH) = 2.67 s.
        max_cycle_s = 0.2 + 2.0 / (90.0 / MAX_STRETCH) + 0.5
        gaps = [(b - a) / 1e9 for a, b in
                zip(job.throughput.times, job.throughput.times[1:])]
        assert all(g <= max_cycle_s for g in gaps)


class TestThroughputAccounting:
    def test_baseline_set_after_early_cycles(self, tiny_clos):
        job = job_on(tiny_clos)
        job.start()
        tiny_clos.sim.run_for(seconds(5))
        assert job._baseline_throughput is not None
        assert not job.degraded()

    def test_broken_connections_reduce_total(self, tiny_clos):
        job = job_on(tiny_clos, pattern=CommPattern.ALL2ALL)
        job.start()
        tiny_clos.sim.run_for(seconds(3))
        before = job.current_throughput()
        for conn in job.connections[:6]:
            conn.broken = True
        tiny_clos.sim.run_for(seconds(5))
        assert job.current_throughput() < before
