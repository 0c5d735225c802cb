"""Record types flowing between Agent, Controller, and Analyzer."""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping, Optional

from repro.host.rnic import CommInfo
from repro.net.addresses import FiveTuple
from repro.net.traceroute import PathRecord


class ProbeKind(Enum):
    """Which probing function issued a probe (§3.2)."""

    TOR_MESH = "tor_mesh"
    INTER_TOR = "inter_tor"
    SERVICE_TRACING = "service_tracing"

    @property
    def is_cluster_monitoring(self) -> bool:
        """ToR-mesh and inter-ToR probing belong to Cluster Monitoring."""
        return self in (ProbeKind.TOR_MESH, ProbeKind.INTER_TOR)


@dataclass(frozen=True, slots=True)
class PinglistEntry:
    """One probing target handed to an Agent.

    ``src_port`` fixes the outer 5-tuple (and therefore the ECMP path); for
    service tracing it equals the traced service flow's source port.
    """

    kind: ProbeKind
    target_rnic: str           # topology/RNIC name (for bookkeeping)
    target: CommInfo           # ip + gid + probe-QP QPN
    src_port: int


@dataclass(slots=True)
class ProbeResult:
    """One completed (or timed-out) probe, as uploaded to the Analyzer.

    Timestamps follow Figure 4's numbering; all `*_ns` delays are computed
    on the Agent, each from a single clock, so no entry here depends on any
    cross-clock synchronisation.
    """

    kind: ProbeKind
    seq: int
    prober_rnic: str
    prober_host: str
    target_rnic: str
    target_ip: str
    target_qpn: int            # QPN the probe addressed (QPN-reset evidence)
    five_tuple: FiveTuple
    issued_at_ns: int          # simulation time the probe was posted
    completed_at_ns: Optional[int] = None
    timeout: bool = False
    # SLA metrics (None on timeout):
    network_rtt_ns: Optional[int] = None
    prober_processing_ns: Optional[int] = None
    responder_processing_ns: Optional[int] = None
    # Freshest traced paths for this 5-tuple and its ACK (None if untraced):
    probe_path: Optional[PathRecord] = None
    ack_path: Optional[PathRecord] = None

    @property
    def success(self) -> bool:
        """Probe completed inside the timeout."""
        return not self.timeout


@dataclass(slots=True)
class AgentUpload:
    """One 5-second batch of probe results from one Agent (§5)."""

    host: str
    uploaded_at_ns: int
    results: list[ProbeResult] = field(default_factory=list)


class UploadDigest:
    """Upload listener folding every uploaded result into a running hash.

    What the replay digest (DESIGN.md §7) pins about the probing data
    plane: each result's seq, completion time, timeout flag and the three
    SLA delays, in upload-arrival order.  Constant memory (a 32-byte
    chain value, not a log) and picklable, so it rides in checkpoints.
    """

    __slots__ = ("count", "value")

    def __init__(self) -> None:
        self.count = 0
        self.value = b""

    def __call__(self, batch: AgentUpload) -> None:
        rows = "".join(
            f"{r.seq},{r.completed_at_ns},{r.timeout},{r.network_rtt_ns},"
            f"{r.prober_processing_ns},{r.responder_processing_ns};"
            for r in batch.results)
        self.count += len(batch.results)
        self.value = hashlib.sha256(self.value + rows.encode()).digest()


def _canonical(value: Any) -> str:
    """A stable text encoding: order-free for mappings/sets, exact floats."""
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{f.name}={_canonical(getattr(value, f.name))}"
            for f in dataclasses.fields(value))
        return f"{type(value).__name__}({fields})"
    if isinstance(value, Mapping):
        items = sorted((_canonical(k), _canonical(v))
                       for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_canonical(v) for v in value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    raise TypeError(
        f"structural_digest cannot canonicalize {type(value).__name__}; "
        "snapshot it into plain data first")


def structural_digest(value: Any) -> str:
    """Hex sha256 of the canonical encoding of ``value``."""
    return hashlib.sha256(_canonical(value).encode()).hexdigest()


class ProblemCategory(Enum):
    """Analyzer verdict categories (§4.3)."""

    HOST_DOWN = "host_down"               # non-network
    QPN_RESET = "qpn_reset"               # probe noise
    AGENT_CPU_NOISE = "agent_cpu_noise"   # Figure 6-right false positives
    RNIC_PROBLEM = "rnic_problem"
    SWITCH_NETWORK_PROBLEM = "switch_network_problem"
    HIGH_RTT = "high_rtt"                 # congestion / bottleneck signal
    HIGH_PROCESSING_DELAY = "high_processing_delay"


class Priority(Enum):
    """Service impact priorities (§2.4)."""

    P0 = "P0"   # severe service impact: resolve immediately
    P1 = "P1"   # in the service network, impact tolerable: fix on benefit
    P2 = "P2"   # outside the service network


@dataclass(slots=True)
class Problem:
    """A detected-and-located problem, as reported by the Analyzer."""

    category: ProblemCategory
    locus: str                  # device or link name (or host)
    detected_at_ns: int
    window_start_ns: int
    evidence_count: int
    from_service_tracing: bool
    priority: Optional[Priority] = None
    detail: str = ""

    def key(self) -> tuple[str, str]:
        """Dedup key used when tracking problems across windows."""
        return (self.category.value, self.locus)
