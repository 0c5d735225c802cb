"""Isolating microbenchmarks: one layer each, nothing else running.

Run in a subprocess of their own (``python bench/micro.py --seed N``) so a
whole world's heap does not sit under them.  Each has a stated input size,
is repeated ``REPEATS`` times on fresh state, and reports the median; the
last line of standard output is one JSON object of per-layer metric values.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.cluster import Cluster                      # noqa: E402
from repro.core.localization import localize           # noqa: E402
from repro.core.system import RPingmesh                # noqa: E402
from repro.host.rnic import CommInfo, QPType           # noqa: E402
from repro.net.addresses import roce_five_tuple        # noqa: E402
from repro.net.packet import RoCEOpcode, probe_packet_size  # noqa: E402
from repro.net.traceroute import PathRecord            # noqa: E402
from repro.sim.engine import Simulator                 # noqa: E402
from repro.sim.sketch import QuantileSketch            # noqa: E402
from repro.sim.stats import PercentileTracker          # noqa: E402
from workloads import LARGE                            # noqa: E402

REPEATS = 5

NOOP_EVENTS = 200_000
FORWARD_PACKETS = 20_000
POST_SENDS = 20_000
LOCALIZE_PATHS = 2_000
STORE_ADDS = 200_000


def _median_of(run, repeats: int) -> float:
    return statistics.median(run() for _ in range(repeats))


NOOP_CHAINS = 64


def noop_event_ns(scale: float):
    """Schedule + pop + run of one no-op event: the engine's ceiling.

    64 self-rescheduling chains keep the queue as shallow, and the event
    pool as warm, as a running world does; scheduling the whole batch up
    front would instead time a 200k-deep heap and cold allocations.
    """
    count = max(NOOP_CHAINS, round(NOOP_EVENTS * scale))

    def run() -> float:
        sim = Simulator(seed=0)
        left = count

        def link() -> None:
            nonlocal left
            left -= 1
            if left >= NOOP_CHAINS:
                sim.schedule(1_000, link)

        for offset in range(NOOP_CHAINS):
            sim.schedule(offset, link)
        start = time.perf_counter()
        sim.run_all()
        elapsed = time.perf_counter() - start
        if sim.events_processed != count:
            raise RuntimeError(f"{sim.events_processed} events, not {count}")
        return elapsed * 1e9 / count
    return run


def _cross_pod_pair(cluster: Cluster) -> tuple[str, str]:
    names = cluster.rnic_names()
    return names[0], names[-1]


def forward_ns_per_hop(scale: float):
    """Cross-pod RoCE packets through Fabric.inject to a null receiver."""
    count = max(1, round(FORWARD_PACKETS * scale))

    def run() -> float:
        cluster = Cluster.clos(LARGE, seed=0)
        src_name, dst_name = _cross_pod_pair(cluster)
        src, dst = cluster.rnic(src_name), cluster.rnic(dst_name)
        fabric = cluster.fabric
        fabric.attach_receiver(dst_name, lambda packet, record: None)
        five_tuple = roce_five_tuple(src.ip, dst.ip, 50_000)
        hops = len(fabric.path_of(five_tuple, src_name)) - 1
        size = probe_packet_size()
        start = time.perf_counter()
        for _ in range(count):
            packet = fabric.packet_pool.acquire_roce(
                five_tuple, size, RoCEOpcode.UD_SEND, 1, 1,
                src.gid.value, dst.gid.value, {})
            fabric.inject(packet, src_name)
        cluster.sim.run_all()
        elapsed = time.perf_counter() - start
        if fabric.packets_delivered != count:
            raise RuntimeError(f"{fabric.packets_delivered} of {count} "
                               f"packets delivered")
        return elapsed * 1e9 / (count * hops)
    return run


POST_SEND_BATCH = 200


def post_send_ns(scale: float):
    """UD post_send calls on a bare cluster.

    Posted in batches of 200 with an untimed drain after each, so the call
    is timed against a queue as shallow as a running world's; the peer sits
    under the same ToR to keep those drains short.
    """
    count = max(POST_SEND_BATCH, round(POST_SENDS * scale))

    def run() -> float:
        cluster = Cluster.clos(LARGE, seed=0)
        src_name = cluster.rnic_names()[0]
        dst_name = next(name for name in cluster.rnics_under_tor(
            cluster.tor_of(src_name)) if name != src_name)
        src, dst = cluster.rnic(src_name), cluster.rnic(dst_name)
        qp = cluster.host_of_rnic(src_name).verbs.create_qp(src, QPType.UD)
        peer = cluster.host_of_rnic(dst_name).verbs.create_qp(dst, QPType.UD)
        target = CommInfo(ip=dst.ip, gid=dst.gid.value, qpn=peer.qpn)
        payload = {"t": "bench"}
        elapsed = 0.0
        for _ in range(count // POST_SEND_BATCH):
            start = time.perf_counter()
            for _ in range(POST_SEND_BATCH):
                src.post_send(qp, target, src_port=50_000, payload=payload,
                              payload_bytes=50)
            elapsed += time.perf_counter() - start
            cluster.sim.run_all()
        return elapsed * 1e9 / (count // POST_SEND_BATCH * POST_SEND_BATCH)
    return run


def build_pinglists_ms(scale: float):
    """Controller.push_pinglists over the registered 64-RNIC cluster."""
    cluster = Cluster.clos(LARGE, seed=0)
    system = RPingmesh(cluster)
    system.start()

    def run() -> float:
        start = time.perf_counter()
        system.controller.push_pinglists()
        return (time.perf_counter() - start) * 1e3
    return run


def localize_us_per_path(scale: float, seed: int):
    """Algorithm 1 voting over synthetic traced paths of the LARGE fabric."""
    count = max(2, round(LOCALIZE_PATHS * scale))
    cluster = Cluster.clos(LARGE, seed=0)
    rng = random.Random(seed)
    names = cluster.rnic_names()
    paths = []
    while len(paths) < count:
        src_name, dst_name = rng.sample(names, 2)
        five_tuple = roce_five_tuple(cluster.rnic(src_name).ip,
                                     cluster.rnic(dst_name).ip,
                                     rng.randint(49_152, 65_535))
        hops = cluster.fabric.path_of(five_tuple, src_name)
        paths.append(PathRecord(five_tuple, 0, tuple(hops), True))
    half = count // 2

    def run() -> float:
        start = time.perf_counter()
        localize(paths[:half], paths[half:])
        return (time.perf_counter() - start) * 1e6 / count
    return run


def _latencies(count: int, seed: int) -> list[float]:
    rng = random.Random(seed)
    return [rng.lognormvariate(10.0, 0.6) for _ in range(count)]


def store_add_ns(store_type, scale: float, seed: int):
    """One SLA-store add (QuantileSketch or PercentileTracker)."""
    values = _latencies(max(1, round(STORE_ADDS * scale)), seed)

    def run() -> float:
        store = store_type()
        add = store.add
        start = time.perf_counter()
        for value in values:
            add(value)
        return (time.perf_counter() - start) * 1e9 / len(values)
    return run


def sketch_merge_us(scale: float, seed: int):
    """Merging one 100k-sample sketch into another."""
    values = _latencies(max(2, round(STORE_ADDS * scale)), seed)
    half = len(values) // 2
    left, right = QuantileSketch(), QuantileSketch()
    left.extend(values[:half])
    right.extend(values[half:])
    left_state = left.state()

    def run() -> float:
        target = QuantileSketch.from_state(left_state)
        start = time.perf_counter()
        target.merge(right)
        return (time.perf_counter() - start) * 1e6
    return run


def run_all(seed: int, scale: float = 1.0,
            repeats: int = REPEATS) -> dict[str, float]:
    """Every microbenchmark, by per-layer metric name."""
    benches = {
        "sim.noop_event_ns": noop_event_ns(scale),
        "net.forward_ns_per_hop": forward_ns_per_hop(scale),
        "host.post_send_ns": post_send_ns(scale),
        "controller.build_pinglists_ms": build_pinglists_ms(scale),
        "analyzer.localize_us_per_path": localize_us_per_path(scale, seed),
        "sim.sketch_add_ns": store_add_ns(QuantileSketch, scale, seed),
        "sim.tracker_add_ns": store_add_ns(PercentileTracker, scale, seed),
        "sim.sketch_merge_us": sketch_merge_us(scale, seed),
    }
    return {name: _median_of(run, repeats) for name, run in benches.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every input size (selftest uses 0.05)")
    args = parser.parse_args(argv)
    print(json.dumps(run_all(args.seed, args.scale)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
