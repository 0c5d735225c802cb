"""Ablation: INT vs traceroute-based congestion localisation (§7.4).

Paper: "INT allows R-Pingmesh to obtain queuing information on switch
ports, which can help locate bottlenecks more accurately when R-Pingmesh
detects network congestion" — and traceroute is rate-limited by switch
CPUs while INT is not.

We congest one fabric link under a deployed R-Pingmesh and localise the
congestion two ways: the RTT vote over traced paths (the deployed
default) versus the INT backend, whose ``IntCollector`` reads per-hop
queue state off the probe packets themselves.  INT must name the exact
directed link; the RTT vote lands on a hop that shares a switch with it.
We also show the traceroute rate limiter degrading trace completeness
where ERSPAN (ASIC mirroring, the transport INT rides) stays complete.
"""

from conftest import print_comparison, run_once

from repro.cluster import Cluster
from repro.diagnosis.bakeoff import case_by_label, int_verdict_loci, run_case
from repro.experiments.common import default_cluster_params
from repro.net.addresses import roce_five_tuple
from repro.net.telemetry import ErspanTracer
from repro.net.traceroute import TracerouteService


def run_int_vs_vote(seed: int = 23):
    # The bake-off's pure-latency ToR uplink case: 500 Gb/s of extra load
    # on pod0-tor0->pod0-agg0 from 8 s to 30 s of a 45 s run.
    case = case_by_label("link_overload_tor_agg")
    vote_loci = sorted({d.verdict_locus
                        for d in run_case(case, "probe", seed).detections
                        if d.verdict_locus})
    int_loci = int_verdict_loci(run_case(case, "fused", seed))

    # Traceroute completeness under rate limiting vs ERSPAN.
    cluster = Cluster.clos(default_cluster_params(), seed=seed)
    src = "host0-rnic0"
    src_ip = cluster.rnic(src).ip
    dst_ip = cluster.rnic("host6-rnic0").ip
    flows = [roce_five_tuple(src_ip, dst_ip, port)
             for port in range(7000, 7032)]
    traceroute = TracerouteService(cluster.fabric)
    erspan = ErspanTracer(cluster.fabric)
    return {
        "guilty": case.hot_link,
        "int_loci": int_loci,
        "vote_loci": vote_loci,
        "traceroute_complete": sum(traceroute.trace(ft, src).complete
                                   for ft in flows),
        "erspan_complete": sum(erspan.trace(ft, src).complete
                               for ft in flows),
        "flows": len(flows),
    }


def test_ablation_int_congestion_localization(benchmark):
    result = run_once(benchmark, run_int_vs_vote)
    print_comparison("Ablation: INT vs traceroute (§7.4)", [
        ("INT congestion locus", "exact directed link",
         f"{'/'.join(result['int_loci'])} (truth {result['guilty']})"),
        ("RTT-vote congestion locus", "less accurate",
         "/".join(result["vote_loci"])),
        ("traceroute completeness (burst)", "rate-limited",
         f"{result['traceroute_complete']}/{result['flows']} complete"),
        ("ERSPAN/INT completeness (burst)", "no CPU rate limit",
         f"{result['erspan_complete']}/{result['flows']} complete"),
    ])
    guilty_switches = set(result["guilty"].split("->"))
    assert result["int_loci"] == [result["guilty"]]
    assert result["vote_loci"] and result["guilty"] not in result["vote_loci"]
    assert all(guilty_switches & set(locus.split("->"))
               for locus in result["vote_loci"])
    assert result["erspan_complete"] == result["flows"]
    # A burst of traces exhausts the switches' traceroute token buckets.
    assert result["traceroute_complete"] < result["flows"]


def test_rate_limited_hops_exported_as_metric():
    """The drained token buckets show up in the metrics registry.

    The limiter silently replaced hops with ``None`` for a long time
    without any counter; operators sizing trace cadence need the loss
    visible as ``repro_traceroute_rate_limited_total``.
    """
    from repro.obs import Observability

    cluster = Cluster.clos(default_cluster_params(), seed=23)
    obs = Observability(metrics=True)
    obs.install(cluster)
    src_ip = cluster.rnic("host0-rnic0").ip
    dst_ip = cluster.rnic("host6-rnic0").ip
    for port in range(7000, 7064):
        cluster.traceroute.trace(roce_five_tuple(src_ip, dst_ip, port),
                                 "host0-rnic0")
    snap = obs.metrics.snapshot()
    assert snap["repro_traceroute_traces_total"] == 64
    assert snap["repro_traceroute_rate_limited_total"] > 0
    assert snap["repro_traceroute_rate_limited_total"] == \
        cluster.traceroute.rate_limited_hops
