"""Network substrate: addressing, packets, topologies, fabric, faults."""

from repro.net.addresses import (GID, ROCE_UDP_PORT, FiveTuple, FlowKey,
                                 IPAllocator, roce_five_tuple)
from repro.net.clos import ClosFabricPlan, ClosParams, build_clos
from repro.net.ecmp import ecmp_hash, pick_next_hop
from repro.net.fabric import (DeliveryRecord, DropReason, DropRecord, Fabric)
from repro.net.packet import (Packet, RoCEOpcode, RoCEPacket, TCPPacket,
                              probe_packet_size)
from repro.net.pfc import PauseState, PfcPropagationEngine
from repro.net.rail import RailFabricPlan, RailParams, build_rail
from repro.net.telemetry import ErspanTracer
from repro.net.topology import (Acl, AclRule, DirectedLink, LinkPair, Node,
                                NodeKind, Tier, Topology, TracerouteLimiter)
from repro.net.traceroute import PathRecord, TracerouteService

__all__ = [
    "FiveTuple",
    "FlowKey",
    "GID",
    "IPAllocator",
    "ROCE_UDP_PORT",
    "roce_five_tuple",
    "ecmp_hash",
    "pick_next_hop",
    "Packet",
    "RoCEPacket",
    "TCPPacket",
    "RoCEOpcode",
    "probe_packet_size",
    "Topology",
    "Node",
    "NodeKind",
    "Tier",
    "DirectedLink",
    "LinkPair",
    "Acl",
    "AclRule",
    "TracerouteLimiter",
    "Fabric",
    "DropReason",
    "DropRecord",
    "DeliveryRecord",
    "ClosParams",
    "ClosFabricPlan",
    "build_clos",
    "RailParams",
    "RailFabricPlan",
    "build_rail",
    "PathRecord",
    "TracerouteService",
    "PfcPropagationEngine",
    "PauseState",
    "ErspanTracer",
]
