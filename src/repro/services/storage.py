"""Storage-cluster interactions: model loading before training (§2.3 case 2).

Before a training task starts, every participating host loads the model from
the remote storage cluster over TCP, which is CPU-intensive.  Training
cannot begin until the *slowest* host finishes (another barrel effect), so
one host with an overloaded CPU stalls the whole job — the second §2.3
bottleneck case, detectable through R-Pingmesh's end-host processing delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.cluster import Cluster
from repro.sim.units import SECOND


@dataclass
class LoadResult:
    """Outcome of one model-loading phase."""

    per_host_ns: dict[str, int]
    started_at_ns: int
    finished_at_ns: int

    @property
    def straggler(self) -> str:
        """The host that paced the whole load."""
        return max(self.per_host_ns, key=self.per_host_ns.get)

    @property
    def duration_ns(self) -> int:
        return self.finished_at_ns - self.started_at_ns


class ModelLoadPhase:
    """TCP-based model loading across a set of hosts.

    Each host's load time inflates with its CPU load (TCP copies burn CPU);
    the phase completes when every host has finished.
    """

    def __init__(self, cluster: Cluster, host_names: list[str], *,
                 base_duration_ns: int = 30 * SECOND,
                 loading_cpu_load: float = 0.80):
        if not host_names:
            raise ValueError("need at least one host")
        self.cluster = cluster
        self.host_names = list(host_names)
        self.base_duration_ns = base_duration_ns
        self.loading_cpu_load = loading_cpu_load
        self.result: Optional[LoadResult] = None
        self._owner = cluster.holds.owner("model_load")

    def expected_duration_ns(self, host_name: str) -> int:
        """This host's load time given its *pre-existing* CPU load.

        A host already near saturation (e.g. a co-located noisy job) slows
        dramatically: M/M/1-style ``base / (1 - load)`` inflation.
        """
        host = self.cluster.hosts[host_name]
        inflation = 1.0 / max(1e-3, 1.0 - host.cpu.load)
        return round(self.base_duration_ns * inflation)

    def run(self, on_done: Callable[[LoadResult], None]) -> None:
        """Start loading on all hosts; call ``on_done`` when all finish."""
        start = self.cluster.sim.now
        per_host: dict[str, int] = {}
        for name in self.host_names:
            per_host[name] = self.expected_duration_ns(name)
            # Loading itself pins CPU further (visible as processing delay).
            self.cluster.holds.hold(self._owner, self.cluster.hosts[name],
                                    "cpu_load", self.loading_cpu_load)
        longest = max(per_host.values())

        def _finish() -> None:
            self.cluster.holds.release(self._owner)
            self.result = LoadResult(per_host_ns=per_host,
                                     started_at_ns=start,
                                     finished_at_ns=self.cluster.sim.now)
            on_done(self.result)

        self.cluster.sim.call_later(longest, _finish)
