"""``Analyzer.gather`` reads each upload batch once (DESIGN.md §11).

The fold's whole point is the pass count, so it is pinned exactly: a
batch's ``results`` is iterated once per window (once more when tracing
asks for a verdict per probe), each result is asked whether it timed out
once — the question every step of the multi-pass pipeline opened with —
and a path record spells its link names once, however many timeouts,
sides and windows vote on it.
"""

import dataclasses

import pytest

from repro.core.records import AgentUpload, ProbeKind, ProbeResult
from repro.net.addresses import roce_five_tuple
from repro.net.traceroute import PathRecord
from repro.obs.tracer import Tracer
from repro.sim.units import MICROSECOND, seconds
from tests.core.test_analyzer import make_analyzer, probe_result


class CountingList(list):
    """A results list that counts how often it is walked."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


class WatchedResult(ProbeResult):
    """A probe result that counts how often ``timeout`` is read."""

    __slots__ = ("timeout_reads",)

    @classmethod
    def of(cls, result):
        watched = cls(**{f.name: getattr(result, f.name)
                         for f in dataclasses.fields(result)})
        watched.timeout_reads = 0
        return watched

    @property
    def timeout(self):
        self.timeout_reads += 1
        return ProbeResult.timeout.__get__(self)

    @timeout.setter
    def timeout(self, value):
        ProbeResult.timeout.__set__(self, value)


class CountingPath(PathRecord):
    """A path record that counts how often its links are enumerated."""

    enumerations = 0

    def known_links(self):
        type(self).enumerations += 1
        return super().known_links()


def busy_window(cluster):
    """Three batches holding every kind of result the later steps read:
    timeouts on both sides sharing one traced path, high RTTs, slow
    hosts, a stale QPN."""
    CountingPath.enumerations = 0
    path = CountingPath(
        five_tuple=roce_five_tuple("1.1.1.1", "2.2.2.2", 7000),
        traced_at_ns=0, hops=("host0-rnic0", "pod0-tor0", None, "pod0-tor1",
                              "host3-rnic0"), reached=True)
    at = seconds(19)
    batches = []
    for host, peer in (("host0", "host3"), ("host1", "host4"),
                       ("host2", "host5")):
        prober, target = f"{host}-rnic0", f"{peer}-rnic0"
        results = []
        for kind in (ProbeKind.INTER_TOR, ProbeKind.SERVICE_TRACING):
            results += [probe_result(cluster, prober, target, kind=kind,
                                     timeout=True, path=path, issued_at=at)
                        for _ in range(4)]
            results += [probe_result(cluster, prober, target, kind=kind,
                                     rtt=300 * MICROSECOND, path=path,
                                     prober_proc=400 * MICROSECOND)
                        for _ in range(4)]
        results.append(probe_result(cluster, prober, target, timeout=True,
                                    qpn=999, issued_at=at))
        results += [probe_result(cluster, prober, target) for _ in range(6)]
        batches.append(AgentUpload(host, seconds(20), CountingList(
            map(WatchedResult.of, results))))
    return batches, path


@pytest.mark.parametrize("tracing, walks", [(False, 1), (True, 2)])
def test_each_batch_and_each_result_is_read_once(small_clos, tracing, walks):
    analyzer, _ = make_analyzer(small_clos)
    analyzer.tracer = Tracer(enabled=tracing)
    small_clos.sim.run_until(seconds(20))
    batches, _ = busy_window(small_clos)
    for batch in batches:
        analyzer.receive_upload(batch)
    assert [b.results.walks for b in batches] == [0, 0, 0]
    evidence = analyzer.gather()
    assert [b.results.walks for b in batches] == [walks] * 3
    assert {r.timeout_reads for b in batches for r in b.results} == {1}
    # ...and the window was a busy one: every later step had work.
    assert evidence.qpn_reset_timeouts == 3
    assert [t.anomalies for t in evidence.tallies] == [12, 12]
    assert {p.category.value for p in evidence.latency_problems} == {
        "high_rtt", "high_processing_delay"}
    assert "pod0-tor0" in evidence.service_members
    assert len(evidence.verdicts) == (
        evidence.results_processed if tracing else 0)


def test_a_path_spells_its_links_once(small_clos):
    analyzer, _ = make_analyzer(small_clos)
    batches, path = busy_window(small_clos)
    for window in (1, 2):
        small_clos.sim.run_until(seconds(20 * window))
        for batch in batches:
            analyzer.receive_upload(AgentUpload(
                batch.host, small_clos.sim.now, batch.results))
        analysis = analyzer.analyze()
        # 12 timeouts a side, each voting its path: 12 votes per link.
        assert analysis.cluster_localization.votes == {
            "host0-rnic0->pod0-tor0": 12, "pod0-tor1->host3-rnic0": 12}
        assert analysis.service_localization.paths_considered == 12
    assert path.link_names == ("host0-rnic0->pod0-tor0",
                               "pod0-tor1->host3-rnic0")
    assert CountingPath.enumerations == 1
