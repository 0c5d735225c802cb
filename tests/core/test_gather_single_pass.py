"""The Analyzer reads each result once, when it arrives (DESIGN.md §11).

The fold's whole point is the pass count and what it keeps, so both are
pinned exactly.  A batch's ``results`` is iterated once, inside
``receive_upload``, tracing or not; each result is asked whether it
timed out once — the question every step of the multi-pass pipeline
opened with — and a timeout's QPN is read then too, to key its flow.
At close each *flow* is looked at once more, through its first member,
where steps 1-2 read its QPN: QPN reads at close count flows, not
timeouts.  A path record spells its link names once, however many
timeouts, sides and windows vote on it.  And what the fold keeps is
O(flows): a successful result that is not high-RTT, and a timeout that
is not its flow's first member, is let go as soon as its batch has been
folded.
"""

import dataclasses
import gc
import weakref
from collections import Counter

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
    """A probe result that counts how often ``timeout`` and
    ``target_qpn`` are read."""

    __slots__ = ("timeout_reads", "qpn_reads")

    @classmethod
    def of(cls, result):
        watched = cls(**{f.name: getattr(result, f.name)
                         for f in dataclasses.fields(result)})
        watched.timeout_reads = watched.qpn_reads = 0
        return watched

    @property
    def timeout(self):
        self.timeout_reads += 1
        return ProbeResult.timeout.__get__(self)

    @timeout.setter
    def timeout(self, value):
        ProbeResult.timeout.__set__(self, value)

    @property
    def target_qpn(self):
        self.qpn_reads += 1
        return ProbeResult.target_qpn.__get__(self)

    @target_qpn.setter
    def target_qpn(self, value):
        ProbeResult.target_qpn.__set__(self, value)


class WeakResult(ProbeResult):
    """A probe result a test can hold a weak reference to."""

    __slots__ = ("__weakref__",)

    @classmethod
    def of(cls, result):
        return cls(**{f.name: getattr(result, f.name)
                      for f in dataclasses.fields(result)})


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


def flow_key(r):
    """What makes two timeouts one flow (``WindowFold.add``)."""
    return (r.kind, r.prober_rnic, r.target_rnic, r.target_qpn,
            r.probe_path and r.probe_path.hops, r.ack_path and r.ack_path.hops)


@pytest.mark.parametrize("tracing", [False, True])
def test_results_read_at_arrival_and_flows_once_more(small_clos, tracing):
    analyzer, _ = make_analyzer(small_clos)
    analyzer.tracer = Tracer(enabled=tracing)
    small_clos.sim.run_until(seconds(20))
    batches, _ = busy_window(small_clos)
    results = [r for b in batches for r in list.__iter__(b.results)]
    for batch in batches:
        analyzer.receive_upload(batch)
    assert [b.results.walks for b in batches] == [1, 1, 1]
    assert {r.timeout_reads for r in results} == {1}
    # 27 timeouts had their QPN read to key their flows; 42 successes not.
    assert Counter(r.qpn_reads for r in results) == {1: 27, 0: 42}
    flows = list(analyzer._fold.flows.values())
    evidence = analyzer.gather()
    assert [b.results.walks for b in batches] == [1, 1, 1]
    assert {r.timeout_reads for r in results} == {1}
    # Each flow's first member is read at close, and nothing else is.
    reads = [r.qpn_reads for r in results]
    firsts = [r for r, n in zip(results, reads) if n == 2]
    assert len(firsts) == len(flows)
    assert all(r is flow.first for r, flow in zip(firsts, flows))
    assert {(r.timeout, n) for r, n in zip(results, reads)} == {
        (True, 2), (True, 1), (False, 0)}
    # Three flows a host: inter-ToR and service timeouts on the traced
    # path, and the stale-QPN one.
    assert len(flows) == len({flow_key(r) for r in results
                              if r.timeout}) == 9
    # ...and the window was a busy one: every later step had work.
    assert evidence.qpn_reset_timeouts == 3
    assert [t.anomalies for t in evidence.tallies] == [12, 12]
    assert {p.category.value for p in evidence.latency_problems} == {
        "high_rtt", "high_processing_delay"}
    assert "pod0-tor0" in evidence.service_members
    assert len(evidence.verdicts) == (
        evidence.results_processed if tracing else 0)


def test_the_fold_keeps_flow_representatives_until_close(small_clos):
    """Weak references to every uploaded result: a successful one that is
    not high-RTT, cluster or service side, and a timeout that is not the
    first of its flow, are gone once ``receive_upload`` returns; a flow's
    first member (and high-RTT results) live until ``analyze()``, and
    nothing lives after it."""
    analyzer, _ = make_analyzer(small_clos)
    small_clos.sim.run_until(seconds(20))
    batches, path = busy_window(small_clos)
    refs = {"first": [], "member": [], "high_rtt": [], "ok": []}
    sides = set()
    flows = set()
    for batch in batches:
        served = probe_result(small_clos, f"{batch.host}-rnic0", "host3-rnic0",
                              kind=ProbeKind.SERVICE_TRACING, path=path)
        results = [WeakResult.of(r) for r in [*batch.results, served]]
        for r in results:
            if r.timeout:
                kind = "member" if flow_key(r) in flows else "first"
                flows.add(flow_key(r))
            else:
                kind = ("high_rtt" if r.network_rtt_ns
                        > analyzer.config.high_rtt_threshold_ns else "ok")
            refs[kind].append(weakref.ref(r))
            sides.add((kind, r.kind))
        analyzer.receive_upload(AgentUpload(batch.host, batch.uploaded_at_ns,
                                            results))
        del results, r
    gc.collect()
    assert {kind for kind, _ in sides} == set(refs)
    assert {("ok", ProbeKind.TOR_MESH),
            ("ok", ProbeKind.SERVICE_TRACING),
            ("member", ProbeKind.INTER_TOR),
            ("member", ProbeKind.SERVICE_TRACING)} <= sides
    assert all(ref() is None for ref in refs["ok"] + refs["member"])
    assert all(ref() is not None
               for ref in refs["first"] + refs["high_rtt"])
    analyzer.analyze()
    gc.collect()
    assert all(ref() is None for kind in refs for ref in refs[kind])


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
