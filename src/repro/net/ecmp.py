"""ECMP hashing.

Switches hash the outer 5-tuple to pick one of several equal-cost next hops.
Each switch mixes its own name into the hash (real ASICs use per-switch hash
seeds) so that consecutive tiers don't make correlated choices — without
this, polarization would defeat the coverage math of Equation 1.

Implementation note: a plain CRC of ``salt|tuple`` is NOT enough.  CRC is
linear, so for two same-length salts the two hashes differ by a *constant*
XOR for every flow — the low bits stay perfectly correlated across switches
and an 8-way fabric degenerates to 2 observable paths (we hit exactly this).
The CRC therefore goes through a multiply-xorshift finalizer (splitmix-style)
that destroys the linearity, mirroring how real ASICs mix a per-switch seed
into the hash rather than merely prepending it.
"""

from __future__ import annotations

import zlib

from repro.net.addresses import FiveTuple


def _mix(value: int) -> int:
    """Non-linear 64-bit finalizer (splitmix64 style)."""
    value &= 0xFFFFFFFFFFFFFFFF
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 \
        & 0xFFFFFFFFFFFFFFFF
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB \
        & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


def ecmp_hash(five_tuple: FiveTuple, salt: str = "") -> int:
    """Deterministic hash of a 5-tuple plus a per-switch salt."""
    tuple_key = (f"{five_tuple.src_ip}|{five_tuple.src_port}|"
                 f"{five_tuple.dst_ip}|{five_tuple.dst_port}|"
                 f"{five_tuple.proto}")
    h = zlib.crc32(tuple_key.encode())
    s = zlib.crc32(salt.encode())
    return _mix((h << 32) | s) & 0xFFFFFFFF


def pick_next_hop(five_tuple: FiveTuple, switch_name: str,
                  candidates: list[str]) -> str:
    """Choose a next hop for the flow at this switch."""
    if not candidates:
        raise ValueError(f"no next-hop candidates at {switch_name}")
    if len(candidates) == 1:
        return candidates[0]
    return candidates[ecmp_hash(five_tuple, switch_name) % len(candidates)]

