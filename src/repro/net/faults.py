"""Fault injection: the 14 root causes of Table 2, plus scheduling.

Every fault knows its ground truth — Table 2 row, category, the device or
link at fault, and whether the paper marks it service-failing (*) — so
experiments can score the Analyzer's detection and localisation accuracy
against what was actually injected (Figure 6).

Faults are injected/cleared against a :class:`~repro.cluster.Cluster`,
holding the device settings they change through its
:class:`~repro.cluster.Holds` table, so two faults (or a fault and a
workload) on one device compose; the :class:`FaultManager` schedules
activation windows on the simulator and keeps the ground-truth registry.

What a kind takes is data on its class: ``locus_kind`` fixes its loci and
``PARAMS`` its keywords' types and ranges, which the constructors,
:class:`~repro.fleet.spec.FaultEvent` and campaign validation all check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from ipaddress import IPv4Address
from typing import Callable, Hashable, Mapping, NamedTuple, Optional

from repro.cluster import Cluster
from repro.net.addresses import FiveTuple
from repro.sim.engine import PeriodicTask
from repro.sim.units import HOUR, MILLISECOND, SECOND

# Time for routing to converge around a cleanly failed link.  Flapping
# faster than this leaves the link in ECMP and black-holes hashed flows.
ROUTING_CONVERGENCE_NS = 3 * SECOND


class ProblemCategory(Enum):
    """Table 2 root-cause categories."""

    HARDWARE_FAILURE = "hardware_failure"
    MISCONFIGURATION = "misconfiguration"
    NETWORK_CONGESTION = "network_congestion"
    INTRA_HOST_BOTTLENECK = "intra_host_bottleneck"


class LocusKind(Enum):
    """What kind of component the fault lives on."""

    RNIC = "rnic"
    SWITCH = "switch"
    LINK = "link"
    HOST = "host"


class Param(NamedTuple):
    """One keyword a fault kind takes.  ``type`` is ``int``, ``float`` (an
    int too) or ``IPv4Address`` (None or a dotted address).  A number lies
    in ``low``..``high``, open where ``bounds`` has a parenthesis; finite
    bounds keep NaN and +-inf out, and no bool is a number.  A ``_ns`` knob
    is an int: the clock counts whole ns."""

    name: str
    type: object
    low: Optional[float] = None
    high: Optional[float] = None
    bounds: str = "[]"
    unit: str = ""
    required: bool = False

    def allows(self, value: object) -> bool:
        if self.type is IPv4Address:
            try:
                return value is None or str(IPv4Address(value)) == value
            except ValueError:
                return False
        number = int if self.type is int else (int, float)
        if isinstance(value, bool) or not isinstance(value, number):
            return False
        low, high = self.bounds
        return ((self.low < value if low == "(" else self.low <= value)
                and (value < self.high if high == ")" else value <= self.high))

    def describe(self) -> str:
        if self.type is IPv4Address:
            return "None or a dotted IPv4 address"
        what = "an integer" if self.type is int else "a number"
        unit = f" {self.unit}" if self.unit else ""
        return (f"{what} in {self.bounds[0]}{self.low!r}, "
                f"{self.high!r}{self.bounds[1]}{unit}")


@dataclass
class GroundTruth:
    """What was actually injected; the scoring key for Figure 6."""

    fault_id: str
    table2_row: int
    category: ProblemCategory
    locus_kind: LocusKind
    locus: str
    causes_service_failure: bool = False
    active: bool = False


class Fault:
    """Base class.  A fault is mostly the device settings it holds while
    active: a subclass lists them in ``held`` as ``(device, setting,
    value)``; :meth:`inject` holds them through ``cluster.holds`` and
    :meth:`clear` releases them.  ``_inject`` / ``_clear`` are for effects
    that are not settings (a flapping task, an ACL rule, a partition)."""

    kind = ""                           # FAULT_KINDS key: snake_case name
    table2_row: int = 0
    category = ProblemCategory.HARDWARE_FAILURE
    locus_kind = LocusKind.LINK
    causes_service_failure = False
    PARAMS: tuple[Param, ...] = ()      # its keywords, one row each

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.kind = re.sub(r"(?<=[a-z])(?=[A-Z])", "_", cls.__name__).lower()

    def __init__(self, cluster: Cluster, locus: str, *,
                 fault_id: Optional[str] = None, **params):
        self.check_params(params)
        self.cluster = cluster
        self.locus = locus
        self.ground_truth = GroundTruth(
            fault_id=fault_id or f"{type(self).__name__}:{locus}",
            table2_row=self.table2_row, category=self.category,
            locus_kind=self.locus_kind, locus=locus,
            causes_service_failure=self.causes_service_failure)
        self.owner = cluster.holds.owner(self.ground_truth.fault_id)
        self.held: list[tuple] = []
        # How many scheduled activation windows are open (see acquire /
        # release).  Raw inject() / clear() bypass the count and stay
        # idempotent on their own.
        self.open_windows = 0
        # What scorers judge verdicts against: earliest scheduled start to
        # latest scheduled end (None = some window never closes).  Set by
        # FaultManager; None until a window is scheduled.
        self.span: Optional[tuple[int, Optional[int]]] = None

    def inject(self) -> None:
        """Activate the fault (idempotent)."""
        if self.ground_truth.active:
            return
        self.ground_truth.active = True
        for device, setting, value in self.held:
            self._hold(device, setting, value)
        self._inject()

    def clear(self) -> None:
        """Deactivate the fault (idempotent)."""
        if not self.ground_truth.active:
            return
        self.ground_truth.active = False
        self.cluster.holds.release(self.owner)
        self._clear()

    def acquire(self) -> None:
        """Open one activation window (refcounted inject).

        Campaign schedules may lay overlapping windows on the same fault
        (or butt two windows against each other at one timestamp, where
        the engine may run the second window's start before the first
        window's end).  Refcounting makes the outcome order-independent:
        the fault is active exactly while >= 1 window is open.
        """
        self.open_windows += 1
        if self.open_windows == 1:
            self.inject()

    def release(self) -> None:
        """Close one activation window (refcounted clear).

        A release with no open window — a clear scheduled before any
        inject ever ran — is a no-op, so campaign event ordering cannot
        wedge a fault into a half-cleared state.
        """
        if self.open_windows == 0:
            return
        self.open_windows -= 1
        if self.open_windows == 0:
            self.clear()

    @classmethod
    def check_params(cls, params: Mapping[str, object]) -> None:
        """Refuse the first value ``PARAMS`` does not allow (a name it
        lacks is :meth:`build_error`'s)."""
        for param in cls.PARAMS:
            if param.name in params and not param.allows(params[param.name]):
                raise ValueError(
                    f"{cls.kind}: {param.name} must be {param.describe()}, "
                    f"got {params[param.name]!r}")

    @classmethod
    def loci_in(cls, cluster: Cluster) -> tuple[str, object]:
        """This kind's loci in words, and the names that qualify."""
        topology = cluster.topology
        return {
            LocusKind.LINK: ("two cabled nodes", topology.nodes),
            LocusKind.RNIC: ("one RNIC", cluster.host_name_of),
            LocusKind.HOST: ("one host", cluster.hosts),
            LocusKind.SWITCH: ("one switch", topology.switches()),
        }[cls.locus_kind]

    @classmethod
    def build_error(cls, cluster: Cluster, loci: tuple[str, ...],
                    params: Mapping[str, object]) -> Optional[str]:
        """Why ``cls(cluster, *loci, **params)`` would not build, as a phrase
        to follow the kind's name; None if it would."""
        what, known = cls.loci_in(cluster)
        if len(loci) != (2 if cls.locus_kind is LocusKind.LINK else 1):
            return f"takes {what}, not {list(loci)}"
        unknown = [name for name in loci if name not in known]
        if unknown:
            return f"names unknown loci {unknown} (it takes {what})"
        if len(loci) == 2 and tuple(loci) not in cluster.topology.links:
            return f"names {loci[0]} and {loci[1]}, which no cable joins"
        names = [param.name for param in cls.PARAMS]
        unknown = [name for name in params if name not in names]
        if unknown:
            return (f"has no parameter {unknown[0]!r} (it takes "
                    f"{', '.join(names) or 'none'})")
        missing = [p.name for p in cls.PARAMS
                   if p.required and p.name not in params]
        return f"needs parameter {missing[0]!r}" if missing else None

    def _inject(self) -> None:
        """Start what is not a held setting (nothing, by default)."""

    def _clear(self) -> None:
        """Undo what is not a held setting (nothing, by default)."""

    def _hold(self, device, setting: str, value) -> None:
        self.cluster.holds.hold(self.owner, device, setting, value)

    def _cable(self, a: str, b: str) -> tuple:
        """Both directions of the a<->b cable."""
        link = self.cluster.topology.link
        return link(a, b), link(b, a)


# --------------------------------------------------------------------------
# #1 — RNIC or switch port flapping
# --------------------------------------------------------------------------

class _Flapping(Fault):
    """Table 2 #1: a port's state oscillates down/up, down for
    ``down_fraction`` of every ``period_ns``.  Subclasses say what a phase
    change holds (:meth:`_flap`)."""

    table2_row = 1
    # A period under 1 ms toggled the port every ns and wedged the run.
    PARAMS = (Param("period_ns", int, MILLISECOND, HOUR, unit="ns"),
              Param("down_fraction", float, 0.0, 1.0, bounds="()"))

    def __init__(self, cluster: Cluster, locus: str, *,
                 period_ns: int = 400 * MILLISECOND,
                 down_fraction: float = 0.5):
        super().__init__(cluster, locus, period_ns=period_ns,
                         down_fraction=down_fraction)
        self.period_ns = period_ns
        self.down_fraction = down_fraction
        self._task: Optional[PeriodicTask] = None

    def _inject(self) -> None:
        half = max(1, round(self.period_ns * self.down_fraction))
        self._phase_down = True
        self._flap(True)
        self._task = self.cluster.sim.every(half, self._toggle, delay=half)

    def _toggle(self) -> None:
        self._phase_down = not self._phase_down
        self._flap(self._phase_down)
        assert self._task is not None
        fraction = (self.down_fraction if self._phase_down
                    else 1 - self.down_fraction)
        self._task.set_interval(max(1, round(self.period_ns * fraction)))

    def _clear(self) -> None:
        if self._task is not None:
            self._task.stop()

    def _flap(self, down: bool) -> None:
        raise NotImplementedError


class SwitchPortFlapping(_Flapping):
    """Table 2 #1 (switch side): a cable's state oscillates up/down.

    The flap period is far below routing convergence, so ECMP keeps
    offering the link and flows hashed onto it lose packets during every
    down phase — the Figure 1 (top) scenario.
    """

    locus_kind = LocusKind.LINK

    def __init__(self, cluster: Cluster, a: str, b: str, **timing):
        super().__init__(cluster, f"{a}<->{b}", **timing)
        self.pair = cluster.topology.link_pair(a, b)

    def _flap(self, down: bool) -> None:
        self._hold(self.pair, "up", not down)
        self.pair.mark_transition(self.cluster.sim.now)


class RnicFlapping(_Flapping):
    """Table 2 #1 (RNIC side): the NIC port oscillates — Figure 1 (bottom)."""

    locus_kind = LocusKind.RNIC

    def __init__(self, cluster: Cluster, rnic_name: str, **timing):
        super().__init__(cluster, rnic_name, **timing)
        self.rnic = cluster.rnic(rnic_name)

    def _flap(self, down: bool) -> None:
        self._hold(self.rnic, "flap_down", down)
        self.rnic.last_flap_ns = self.cluster.sim.now


# --------------------------------------------------------------------------
# #2 — packet corruption (fiber damage, dusty optics)
# --------------------------------------------------------------------------

class LinkCorruption(Fault):
    """Table 2 #2 (in-network): a cable corrupts a fraction of packets."""

    table2_row = 2
    category = ProblemCategory.HARDWARE_FAILURE
    locus_kind = LocusKind.LINK
    PARAMS = (Param("drop_prob", float, 0.0, 1.0, bounds="(]"),)

    def __init__(self, cluster: Cluster, a: str, b: str, *,
                 drop_prob: float = 0.05):
        super().__init__(cluster, f"{a}<->{b}", drop_prob=drop_prob)
        self.held = [(link, "corruption_drop_prob", drop_prob)
                     for link in self._cable(a, b)]


class RnicCorruption(Fault):
    """Table 2 #2 (RNIC side): the NIC or its cable corrupts packets."""

    table2_row = 2
    category = ProblemCategory.HARDWARE_FAILURE
    locus_kind = LocusKind.RNIC
    PARAMS = LinkCorruption.PARAMS

    def __init__(self, cluster: Cluster, rnic_name: str, *,
                 drop_prob: float = 0.05):
        super().__init__(cluster, rnic_name, drop_prob=drop_prob)
        rnic = cluster.rnic(rnic_name)
        self.held = [(rnic, "rx_corruption_prob", drop_prob),
                     (rnic, "tx_corruption_prob", drop_prob)]


# --------------------------------------------------------------------------
# #3 / #4 — accidental RNIC / host down  (service-failing *)
# --------------------------------------------------------------------------

class RnicDown(Fault):
    """Table 2 #3: the RNIC dies. Marked (*) — breaks service connections."""

    table2_row = 3
    category = ProblemCategory.HARDWARE_FAILURE
    locus_kind = LocusKind.RNIC
    causes_service_failure = True

    def __init__(self, cluster: Cluster, rnic_name: str):
        super().__init__(cluster, rnic_name)
        self.held = [(cluster.rnic(rnic_name), "admin_up", False)]


class HostDown(Fault):
    """Table 2 #4: the whole host dies (Agent stops uploading too)."""

    table2_row = 4
    category = ProblemCategory.HARDWARE_FAILURE
    locus_kind = LocusKind.HOST
    causes_service_failure = True

    def __init__(self, cluster: Cluster, host_name: str):
        super().__init__(cluster, host_name)
        self.held = [(cluster.hosts[host_name], "up", False)]


# --------------------------------------------------------------------------
# #5 — PFC deadlock  (service-failing *)
# --------------------------------------------------------------------------

class PfcDeadlock(Fault):
    """Table 2 #5: two ports pause each other forever; the link is dead to
    traffic while physically up, so routing never converges around it."""

    table2_row = 5
    category = ProblemCategory.HARDWARE_FAILURE
    locus_kind = LocusKind.LINK
    causes_service_failure = True

    def __init__(self, cluster: Cluster, a: str, b: str):
        super().__init__(cluster, f"{a}<->{b}")
        self.held = [(link, "pfc_deadlocked", True)
                     for link in self._cable(a, b)]


# --------------------------------------------------------------------------
# #6 / #7 — RNIC misconfigurations  (service-failing *)
# --------------------------------------------------------------------------

class RnicRoutingMisconfig(Fault):
    """Table 2 #6: the post-boot RoCE routing script failed; the RNIC
    cannot send anything."""

    table2_row = 6
    category = ProblemCategory.MISCONFIGURATION
    locus_kind = LocusKind.RNIC
    causes_service_failure = True

    def __init__(self, cluster: Cluster, rnic_name: str):
        super().__init__(cluster, rnic_name)
        self.held = [(cluster.rnic(rnic_name), "routing_configured", False)]


class RnicGidIndexMissing(Fault):
    """Table 2 #7: the RoCEv2 GID index disappeared; the RNIC neither
    matches inbound GIDs nor can source outbound packets."""

    table2_row = 7
    category = ProblemCategory.MISCONFIGURATION
    locus_kind = LocusKind.RNIC
    causes_service_failure = True

    def __init__(self, cluster: Cluster, rnic_name: str):
        super().__init__(cluster, rnic_name)
        self.held = [(cluster.rnic(rnic_name), "gid_index_present", False)]


# --------------------------------------------------------------------------
# #8 — switch ACL misconfiguration  (service-failing *)
# --------------------------------------------------------------------------

class SwitchAclError(Fault):
    """Table 2 #8: a tenant-isolation ACL wrongly denies some src/dst."""

    table2_row = 8
    category = ProblemCategory.MISCONFIGURATION
    locus_kind = LocusKind.SWITCH
    causes_service_failure = True
    PARAMS = (Param("dst_ip", IPv4Address), Param("src_ip", IPv4Address))

    def __init__(self, cluster: Cluster, switch_name: str, *,
                 src_ip: Optional[str] = None, dst_ip: Optional[str] = None):
        super().__init__(cluster, switch_name, src_ip=src_ip, dst_ip=dst_ip)
        self.switch = cluster.topology.node(switch_name)
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self._rule = None

    def _inject(self) -> None:
        self._rule = self.switch.acl.deny(self.src_ip, self.dst_ip)

    def _clear(self) -> None:
        if self._rule is not None:
            self.switch.acl.remove(self._rule)
            self._rule = None


# --------------------------------------------------------------------------
# #9 — PFC unconfigured / bad headroom
# --------------------------------------------------------------------------

class PfcHeadroomMisconfig(Fault):
    """Table 2 #9: the RoCE queue is effectively lossy on this cable;
    packets drop during heavy congestion (and only then)."""

    table2_row = 9
    category = ProblemCategory.MISCONFIGURATION
    locus_kind = LocusKind.LINK

    def __init__(self, cluster: Cluster, a: str, b: str):
        super().__init__(cluster, f"{a}<->{b}")
        self.held = [(link, "pfc_headroom_ok", False)
                     for link in self._cable(a, b)]


# --------------------------------------------------------------------------
# #10 / #11 — network congestion
# --------------------------------------------------------------------------

class LinkOverload(Fault):
    """Extra fluid load on one directed link, on top of whatever else
    (service traffic) loads it.

    Stands in for Table 2 #10 (ECMP hash-collision uplink congestion) and
    #11 (inter-service interference), which in production arise from
    traffic, not device state.  Workload-driven congestion also exists in
    :mod:`repro.services`; this fault is the controlled-dose variant used
    by localisation experiments.
    """

    table2_row = 10
    category = ProblemCategory.NETWORK_CONGESTION
    locus_kind = LocusKind.LINK
    # 10 Tb/s is 25x a 400G port: more saturates a queue no more surely,
    # and the bound keeps a sum of held loads finite.
    PARAMS = (Param("extra_gbps", float, 0.0, 10_000.0, unit="Gb/s",
                    required=True),
              Param("table2_row", int, 10, 11))

    def __init__(self, cluster: Cluster, src: str, dst: str, *,
                 extra_gbps: float, table2_row: int = 10):
        super().__init__(cluster, f"{src}->{dst}", extra_gbps=extra_gbps,
                         table2_row=table2_row)
        self.table2_row = table2_row
        self.ground_truth.table2_row = table2_row
        self.held = [(cluster.topology.link(src, dst), "offered_load_gbps",
                      extra_gbps)]


# --------------------------------------------------------------------------
# #12 — CPU overload
# --------------------------------------------------------------------------

class CpuOverload(Fault):
    """Table 2 #12: the host CPU is pinned; processing delay inflates and
    the Agent's responder starves (the Figure 6-right false-positive
    mechanism)."""

    table2_row = 12
    category = ProblemCategory.INTRA_HOST_BOTTLENECK
    locus_kind = LocusKind.HOST
    PARAMS = (Param("load", float, 0.0, 1.0, bounds="(]"),)

    def __init__(self, cluster: Cluster, host_name: str, *,
                 load: float = 0.96):
        super().__init__(cluster, host_name, load=load)
        self.held = [(cluster.hosts[host_name], "cpu_load", load)]


# --------------------------------------------------------------------------
# #13 / #14 — intra-host bandwidth degradation -> PFC storm
# --------------------------------------------------------------------------

class PcieDowngrade(Fault):
    """Table 2 #13: the RNIC's PCIe link degrades; the NIC cannot drain at
    line rate, emits PFC pauses, and the ToR port backs up — traffic toward
    this RNIC sees large extra delay (Figure 8 right)."""

    table2_row = 13
    category = ProblemCategory.INTRA_HOST_BOTTLENECK
    locus_kind = LocusKind.RNIC
    # A link trained down to PCIe Gen1 x1 still moves ~2 Gb/s; the healthy
    # RNIC's PCIe rate is 512.
    PARAMS = (Param("degraded_pcie_gbps", float, 1.0, 512.0, unit="Gb/s"),
              Param("pause_delay_ns", int, 0, SECOND, unit="ns"))

    def __init__(self, cluster: Cluster, rnic_name: str, *,
                 degraded_pcie_gbps: float = 32.0,
                 pause_delay_ns: int = 300_000):
        super().__init__(cluster, rnic_name,
                         degraded_pcie_gbps=degraded_pcie_gbps,
                         pause_delay_ns=pause_delay_ns)
        rnic = cluster.rnic(rnic_name)
        downlink = cluster.topology.link(cluster.tor_of(rnic_name), rnic_name)
        self.held = [(rnic, "pcie_gbps", degraded_pcie_gbps),
                     (downlink, "pause_delay_ns", pause_delay_ns)]


class RnicAcsMisconfig(PcieDowngrade):
    """Table 2 #14: wrong ACS/ATS configuration — same PFC-storm signature
    as a PCIe downgrade, different root cause (and category row)."""

    table2_row = 14


# --------------------------------------------------------------------------
# Extra in-network fault shapes used by §4.1 and ablations
# --------------------------------------------------------------------------

class LinkFailure(Fault):
    """Clean persistent link-down: routing converges around it after
    ROUTING_CONVERGENCE_NS (the window during which probes still die)."""

    table2_row = 1
    category = ProblemCategory.HARDWARE_FAILURE
    locus_kind = LocusKind.LINK

    def __init__(self, cluster: Cluster, a: str, b: str):
        super().__init__(cluster, f"{a}<->{b}")
        self.pair = cluster.topology.link_pair(a, b)
        self.held = [(self.pair, "up", False)]
        self._converged = False

    def _inject(self) -> None:
        self.cluster.sim.call_later(ROUTING_CONVERGENCE_NS, self._converge)

    def _converge(self) -> None:
        if self.ground_truth.active:
            self._hold(self.pair, "routed_around", True)
            self._converged = True
            self.cluster.topology.invalidate_routes()

    def _clear(self) -> None:
        if self._converged:
            self._converged = False
            self.cluster.topology.invalidate_routes()


class SilentDrop(Fault):
    """Silent per-5-tuple drops (§4.1): only certain 5-tuples die, which is
    why the Controller rotates inter-ToR 5-tuples hourly."""

    table2_row = 2
    category = ProblemCategory.HARDWARE_FAILURE
    locus_kind = LocusKind.LINK
    PARAMS = (Param("match_port_mod", int, 1, 65_536),
              Param("match_port_rem", int, 0, 65_535))

    def __init__(self, cluster: Cluster, src: str, dst: str, *,
                 match_port_mod: int = 8, match_port_rem: int = 3):
        super().__init__(cluster, f"{src}->{dst}",
                         match_port_mod=match_port_mod,
                         match_port_rem=match_port_rem)
        if not match_port_rem < match_port_mod:
            raise ValueError("match_port_rem must be below match_port_mod")
        self.mod = match_port_mod
        self.rem = match_port_rem
        self.held = [(cluster.topology.link(src, dst),
                      "silent_drop_predicate", self.matches)]

    def matches(self, five_tuple: FiveTuple) -> bool:
        """The 'certain 5-tuples' predicate."""
        return five_tuple.src_port % self.mod == self.rem


# --------------------------------------------------------------------------
# Control-plane faults (management network, §4.2.3)
# --------------------------------------------------------------------------

class ControlPlanePartition(Fault):
    """Cut one endpoint off the TCP management network.

    The RoCE data plane is untouched: a partitioned Agent keeps probing
    from its cached pinglists and buffering results, but its uploads,
    registrations, and lookups all die on the wire — so the Analyzer sees
    upload silence (and will call the host down) while the host is in
    fact alive.  Partitioning the ``controller`` endpoint instead leaves
    every Agent probing from stale pinglists until the partition heals.

    Requires a deployed system (``cluster.management`` is set by
    :class:`~repro.core.system.RPingmesh`).
    """

    table2_row = 0  # not a Table 2 root cause; a monitoring-infra fault
    category = ProblemCategory.HARDWARE_FAILURE
    locus_kind = LocusKind.HOST

    def __init__(self, cluster: Cluster, endpoint: str):
        super().__init__(cluster, endpoint)
        if cluster.management is None:
            raise RuntimeError(
                "no management network: deploy RPingmesh before injecting "
                "control-plane faults")
        self.endpoint = endpoint

    @classmethod
    def loci_in(cls, cluster: Cluster) -> tuple[str, object]:
        management = cluster.management
        return ("one management endpoint",
                management.endpoints() if management is not None else ())

    @classmethod
    def for_host(cls, cluster: Cluster,
                 host_name: str) -> "ControlPlanePartition":
        """Partition the Agent endpoint of one host."""
        from repro.core.agent import agent_endpoint_name
        return cls(cluster, agent_endpoint_name(host_name))

    def _inject(self) -> None:
        self.cluster.management.partition(self.endpoint)

    def _clear(self) -> None:
        self.cluster.management.heal(self.endpoint)


# The declarative fault vocabulary campaigns name: kind -> class.  Every
# class takes (cluster, *loci, **params); SilentDrop is library-only.
FAULT_KINDS: dict[str, type[Fault]] = {cls.kind: cls for cls in (
    SwitchPortFlapping, RnicFlapping, LinkCorruption, RnicCorruption,
    RnicDown, HostDown, PfcDeadlock, RnicRoutingMisconfig,
    RnicGidIndexMissing, SwitchAclError, PfcHeadroomMisconfig, LinkOverload,
    CpuOverload, PcieDowngrade, RnicAcsMisconfig, LinkFailure,
    ControlPlanePartition)}


# --------------------------------------------------------------------------
# Scheduling
# --------------------------------------------------------------------------

class FaultManager:
    """Schedules fault windows and keeps the ground-truth registry.

    Windows are refcounted through :meth:`Fault.acquire` /
    :meth:`Fault.release`, so scheduling overlapping (or same-timestamp
    adjacent) windows on one fault is safe: the fault stays active until
    its *last* open window ends, whatever order the engine fires the
    boundary events in.  Each fault registers in the ground-truth list
    once, however many windows it gets.

    Refcounting only works on *one* instance, so the manager also owns the
    table from a declarative identity to the fault built for it
    (:meth:`fault`): two instances of one identity would be two holders,
    and a held sum (extra load, pause pressure) would count the dose twice.
    """

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.faults: list[Fault] = []
        self._by_identity: dict[Hashable, Fault] = {}

    def fault(self, identity: Hashable,
              build: Callable[[], Fault]) -> Fault:
        """The one instance behind ``identity``; ``build`` runs on first use."""
        fault = self._by_identity.get(identity)
        if fault is None:
            fault = self._by_identity[identity] = build()
        return fault

    def _register(self, fault: Fault, start_ns: int,
                  end_ns: Optional[int]) -> None:
        if not any(f is fault for f in self.faults):
            self.faults.append(fault)
        if fault.span is not None:
            start, end = fault.span
            start_ns = min(start, start_ns)
            end_ns = (None if end is None or end_ns is None
                      else max(end, end_ns))
        fault.span = (start_ns, end_ns)

    def schedule(self, fault: Fault, *, start_ns: int,
                 end_ns: Optional[int] = None) -> Fault:
        """Open a window at ``start_ns``; close it at ``end_ns`` if given."""
        if end_ns is not None and end_ns <= start_ns:
            raise ValueError("end_ns must follow start_ns")
        self._register(fault, start_ns, end_ns)
        self.cluster.sim.call_at(start_ns, fault.acquire)
        if end_ns is not None:
            self.cluster.sim.call_at(end_ns, fault.release)
        return fault

    def inject_now(self, fault: Fault) -> Fault:
        """Open a window immediately (never auto-closed)."""
        self._register(fault, self.cluster.sim.now, None)
        fault.acquire()
        return fault

    def clear_all(self) -> None:
        """Close every open window and force-clear every fault."""
        for fault in self.faults:
            while fault.open_windows:
                fault.release()
            fault.clear()

    def ground_truths(self) -> list[GroundTruth]:
        """All registered ground truths."""
        return [f.ground_truth for f in self.faults]

    def active_ground_truths(self) -> list[GroundTruth]:
        """Ground truths of currently active faults."""
        return [f.ground_truth for f in self.faults if f.ground_truth.active]
