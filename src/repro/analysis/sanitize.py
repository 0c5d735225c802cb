"""PoolSan: an opt-in lifetime sanitizer for pooled simulation objects.

The sim-core fast path (DESIGN.md §10) recycles ``RoCEPacket``, ``_Event``,
and ``_Transit`` storage through bounded free lists.  Pooling
buys speed but imports the bug class C networking stacks fight with
ASan: use-after-release, double-release, and leaks.  Today the only
thing standing between such a bug and a silently-wrong verdict is a
golden digest flipping far from the root cause.

``PoolSanitizer`` is the ASan analogue for those pools
(``Cluster.clos(..., sanitize=True)``):

* **acquire/release tracking** — every pooled object is registered with
  the source site (``file:line``) and sim time of its acquisition;
  end-of-run accounting per pool is ``acquired == released + live``.
* **poisoning on release** — every recycled object's fields are set to
  loud sentinels (``None`` five-tuples raise ``AttributeError`` on the
  next read; negative :data:`POISON_INT` timestamps wreck any RTT math
  they touch).  At the next acquire the poison is verified intact; a
  clobbered sentinel means someone *wrote* through a stale reference and
  becomes a **SAN001** finding naming the release site.
* **double-release detection** — releasing an object that is already on
  a free list raises :class:`PoolSanitizerError` at the offending call
  site and records a **SAN002** finding (first release site + acquire
  site in the message).
* **leak detection** — a live object older than ``leak_age_ns`` that
  nobody retained on purpose (see :meth:`PoolSanitizer.retain_packet`)
  becomes a **SAN003** finding carrying its acquire site; for events the
  check is exact (outstanding records must equal the queue depth).

The sanitizer only *observes*: it never draws randomness, never
schedules, and every poisoned field is fully reassigned by the pools'
reuse paths — so ``sanitize=True`` keeps replay digests byte-identical
to ``sanitize=False`` (pinned in ``tests/analysis/test_sanitize.py``
against the golden-scenario hashes).

Findings use the same :class:`~repro.analysis.findings.Finding` shape as
detlint, anchored at the runtime call sites, so one report pipeline
(text/JSON/SARIF) serves both halves of the determinism contract.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.analysis.findings import Finding
from repro.sim.units import SECOND

if TYPE_CHECKING:  # imported for annotations only; avoids import cycles
    from repro.net.packet import RoCEPacket
    from repro.sim.engine import Simulator, _Event

#: Sentinel written into every int field on release.  Negative so any
#: stale arithmetic (sizes, timestamps, QPNs) goes loudly wrong instead
#: of plausibly right.
POISON_INT = -0xDEAD
#: Sentinel written into every str field on release.
POISON_STR = "<poolsan-poisoned>"
#: Key planted in released payload dicts; its value is the record token.
POISON_KEY = "__poolsan__"

#: The tracked pools, in reporting order.
POOL_KINDS = ("packet", "event", "transit")


class PoolSanitizerError(RuntimeError):
    """Raised at the call site of a detected pool-lifetime violation."""


def _key(obj: object) -> int:
    """Identity key for the live/freed tables.

    Pooled objects are mutable slotted dataclasses (unhashable), and the
    thing being tracked *is* their storage, so identity is the only
    correct key.  Keys are never ordered, digested, or exposed; live and
    freed entries pin their object (live table directly, freed via the
    pool's own free list), so an id is never reused while tracked.
    """
    return id(obj)  # detlint: disable=DET004 identity keys storage tracking; never ordered or digested


def _shorten(filename: str) -> str:
    """Repo-relative form of a frame filename, for stable reports."""
    norm = filename.replace("\\", "/")
    for marker in ("/src/", "/tests/", "/benchmarks/", "/examples/"):
        if marker in norm:
            return marker.lstrip("/") + norm.rsplit(marker, 1)[1]
    return norm


def _split_site(site: str) -> tuple[str, int]:
    path, _, line = site.rpartition(":")
    try:
        return path or site, int(line)
    except ValueError:
        return site, 0


@dataclass(slots=True)
class _Live:
    """One currently-acquired pooled object."""

    kind: str
    seq: int                 # global acquisition sequence (stable order)
    obj: object              # strong ref: pins id() while tracked
    site: str                # "file:line" of the acquiring caller
    acquired_at_ns: int
    retained: bool = False   # deliberately kept (e.g. drop evidence)
    retain_reason: str = ""


@dataclass(slots=True)
class _Freed:
    """One object sitting poisoned on a free list (pinned by the pool)."""

    kind: str
    acquire_site: str
    release_site: str
    token: int               # expected payload poison value


class PoolSanitizer:
    """Lifetime tracker wired into every pool by ``sanitize=True``.

    One sanitizer instance serves one :class:`~repro.cluster.Cluster`
    (all three pools share the acquisition sequence, so reports interleave
    meaningfully).  All hooks are no-ops in terms of simulation state.
    """

    def __init__(self, *, leak_age_ns: int = SECOND):
        self._sim: Optional["Simulator"] = None
        self._fabric = None
        self._seq = 0
        self._live: dict[str, dict[int, _Live]] = {
            kind: {} for kind in POOL_KINDS}
        self._freed: dict[str, dict[int, _Freed]] = {
            kind: {} for kind in POOL_KINDS}
        self.acquired = {kind: 0 for kind in POOL_KINDS}
        self.released = {kind: 0 for kind in POOL_KINDS}
        self.retained = {kind: 0 for kind in POOL_KINDS}
        # Releases of objects the sanitizer never saw (pool attached
        # mid-run, or a record dropped after an un-pooled release).
        self.unknown_releases = {kind: 0 for kind in POOL_KINDS}
        self.poison_writes = 0
        self.double_releases = 0
        self.leak_age_ns = leak_age_ns
        self._findings: list[Finding] = []

    # -- wiring ------------------------------------------------------------

    def bind_sim(self, sim: "Simulator") -> None:
        """Attach the clock source (and event-queue depth) for reports."""
        self._sim = sim

    def bind_fabric(self, fabric) -> None:
        """Attach the fabric whose in-flight table transits reconcile to."""
        self._fabric = fabric

    def _now(self) -> int:
        return self._sim.now if self._sim is not None else 0

    def _site(self, skip: int = 3) -> str:
        """The ``file:line`` of the pool method's caller.

        Frame layout at every public hook: 0 = ``_site``, 1 = the hook,
        2 = the pool method that called it, 3 = the interesting caller.
        """
        try:
            frame = sys._getframe(skip)
        except ValueError:
            return "<unknown>:0"
        return f"{_shorten(frame.f_code.co_filename)}:{frame.f_lineno}"

    # -- generic bookkeeping -----------------------------------------------

    def _register(self, kind: str, obj: object, site: str) -> _Live:
        self._seq += 1
        record = _Live(kind=kind, seq=self._seq, obj=obj, site=site,
                       acquired_at_ns=self._now())
        self._live[kind][_key(obj)] = record
        self.acquired[kind] += 1
        return record

    def _reacquire(self, kind: str, obj: object, site: str,
                   damaged: "list[str]", release_site: str,
                   acquire_site: str) -> None:
        """Shared tail of the per-kind reacquire hooks."""
        if damaged:
            self.poison_writes += 1
            self._emit(
                "SAN001", release_site,
                f"use-after-release write to pooled {kind}: field(s) "
                f"{', '.join(damaged)} changed after release at "
                f"{release_site} (previous acquire {acquire_site}; "
                f"reacquired at {site})")
        self._register(kind, obj, site)

    def _note_release(self, kind: str, obj: object, site: str,
                      recycled: bool) -> Optional[int]:
        """Account one release.

        Returns the poison token when the object re-enters a free list
        (the caller poisons with it), or None when the object is simply
        discarded (free list full / pooling off) — discarded objects are
        forgotten, so a later duplicate release of one cannot be told
        apart from a foreign object (documented in DESIGN.md §12).
        """
        key = _key(obj)
        live = self._live[kind].pop(key, None)
        if live is None:
            freed = self._freed[kind].get(key)
            if freed is not None:
                self.double_releases += 1
                message = (
                    f"double release of pooled {kind}: released again at "
                    f"{site}, but already released at {freed.release_site} "
                    f"(acquired at {freed.acquire_site})")
                self._emit("SAN002", site, message)
                raise PoolSanitizerError(message)
            self.unknown_releases[kind] += 1
            return None
        self.released[kind] += 1
        if live.retained:
            self.retained[kind] -= 1
        if not recycled:
            return None
        self._freed[kind][key] = _Freed(
            kind=kind, acquire_site=live.site, release_site=site,
            token=live.seq)
        return live.seq

    def _pop_freed(self, kind: str, obj: object) -> Optional[_Freed]:
        return self._freed[kind].pop(_key(obj), None)

    def _emit(self, code: str, anchor_site: str, message: str) -> None:
        path, line = _split_site(anchor_site)
        self._findings.append(Finding(
            code=code, path=path, line=line, col=1, message=message))

    # -- packets -----------------------------------------------------------

    def acquire_packet(self, packet: "RoCEPacket") -> None:
        """A freshly constructed pool-owned packet entered circulation."""
        self._register("packet", packet, self._site())

    def reacquire_packet(self, packet: "RoCEPacket") -> None:
        """A packet left the free list; verify its poison first."""
        site = self._site()
        freed = self._pop_freed("packet", packet)
        if freed is None:
            self._register("packet", packet, site)
            return
        damaged = _verify_packet(packet, freed.token)
        self._reacquire("packet", packet, site, damaged,
                        freed.release_site, freed.acquire_site)

    def release_packet(self, packet: "RoCEPacket", *,
                       recycled: bool) -> None:
        """A pool-owned packet was handed back (``recycled`` = re-listed)."""
        token = self._note_release("packet", packet, self._site(),
                                   recycled)
        if token is not None:
            _poison_packet(packet, token)

    def foreign_release(self, packet: "RoCEPacket") -> None:
        """``PacketPool.release`` saw a packet without the ``pooled`` flag.

        Legitimate for hand-constructed packets (they were never pooled),
        but a *second* release of a pool-owned packet arrives here too —
        the flag was cleared by the first release — and that is the
        silent double-free ``sanitize=True`` exists to catch.
        """
        key = _key(packet)
        freed = self._freed["packet"].get(key)
        if freed is None:
            return
        self.double_releases += 1
        site = self._site(2)   # called straight from PacketPool.release
        message = (
            f"double release of pooled packet: released again at {site}, "
            f"but already released at {freed.release_site} (acquired at "
            f"{freed.acquire_site})")
        self._emit("SAN002", site, message)
        raise PoolSanitizerError(message)

    def retain_packet(self, packet: "RoCEPacket", reason: str) -> None:
        """Mark a live packet as deliberately kept (not a leak).

        The fabric calls this for dropped packets: DropRecords retain
        them as evidence forever, by design (DESIGN.md §10).
        """
        record = self._live["packet"].get(_key(packet))
        if record is not None and not record.retained:
            record.retained = True
            record.retain_reason = reason
            self.retained["packet"] += 1

    # -- engine events -----------------------------------------------------

    def acquire_event(self, event: "_Event") -> None:
        self._register("event", event, self._site())

    def reacquire_event(self, event: "_Event") -> None:
        site = self._site()
        freed = self._pop_freed("event", event)
        if freed is None:
            self._register("event", event, site)
            return
        damaged = _verify_event(event)
        self._reacquire("event", event, site, damaged,
                        freed.release_site, freed.acquire_site)

    def release_event(self, event: "_Event", *, recycled: bool) -> None:
        token = self._note_release("event", event, self._site(), recycled)
        if token is not None:
            _poison_event(event)

    # -- fabric transits ---------------------------------------------------

    def acquire_transit(self, transit: object) -> None:
        self._register("transit", transit, self._site())

    def reacquire_transit(self, transit: object) -> None:
        site = self._site()
        freed = self._pop_freed("transit", transit)
        if freed is None:
            self._register("transit", transit, site)
            return
        damaged = _verify_transit(transit)
        self._reacquire("transit", transit, site, damaged,
                        freed.release_site, freed.acquire_site)

    def release_transit(self, transit: object, *, recycled: bool) -> None:
        token = self._note_release("transit", transit, self._site(),
                                   recycled)
        if token is not None:
            _poison_transit(transit)

    # -- reporting ---------------------------------------------------------

    def live_counts(self) -> dict[str, int]:
        """Currently-outstanding objects per pool."""
        return {kind: len(self._live[kind]) for kind in POOL_KINDS}

    def summary(self) -> dict[str, dict[str, int]]:
        """Per-pool accounting: ``acquired == released + live`` holds."""
        return {
            kind: {
                "acquired": self.acquired[kind],
                "released": self.released[kind],
                "live": len(self._live[kind]),
                "retained": self.retained[kind],
                "unknown_releases": self.unknown_releases[kind],
            }
            for kind in POOL_KINDS
        }

    def findings(self) -> list[Finding]:
        """Violations caught so far (SAN001 writes, SAN002 double frees)."""
        return list(self._findings)

    def leaks(self) -> list[Finding]:
        """Current leak findings (SAN003), in acquisition order.

        Packets/transits: live, un-retained, and older than
        ``leak_age_ns`` of sim time (younger objects are presumed in
        flight).  Events: exact — every outstanding record must still be
        in the event queue, in-flight age notwithstanding.  Transits:
        exact too — the ones carrying a packet must be the fabric's
        in-flight table (the rest are tombstones a demotion left for
        their pending event to release).
        """
        now = self._now()
        out: list[Finding] = []
        for kind in ("packet", "transit"):
            for record in sorted(self._live[kind].values(),
                                 key=lambda r: r.seq):
                if record.retained:
                    continue
                age = now - record.acquired_at_ns
                if age >= self.leak_age_ns:
                    out.append(_leak_finding(kind, record, age))
        if self._sim is not None:
            outstanding = len(self._live["event"])
            queued = self._sim.queue_depth
            if outstanding != queued:
                out.append(Finding(
                    code="SAN003", path="src/repro/sim/engine.py", line=0,
                    col=1,
                    message=f"event accounting mismatch: {outstanding} "
                            f"outstanding _Event record(s) vs {queued} "
                            "queued — an event escaped the recycle path"))
        if self._fabric is not None:
            walking = sum(1 for record in self._live["transit"].values()
                          if record.obj.packet is not None)
            in_flight = self._fabric.packets_in_flight
            if walking != in_flight:
                out.append(Finding(
                    code="SAN003", path="src/repro/net/fabric.py", line=0,
                    col=1,
                    message=f"transit accounting mismatch: {walking} live "
                            f"_Transit record(s) carry a packet vs "
                            f"{in_flight} in the fabric's in-flight table"))
        return out

    def report(self) -> list[Finding]:
        """Everything wrong right now: caught violations plus leaks."""
        return self.findings() + self.leaks()

    def render(self) -> str:
        """Human-readable end-of-run report (see DESIGN.md §12)."""
        lines = ["poolsan: per-pool accounting (acquired = released + live)"]
        for kind, stats in self.summary().items():
            lines.append(
                f"  {kind:8s} acquired={stats['acquired']} "
                f"released={stats['released']} live={stats['live']} "
                f"retained={stats['retained']}")
        findings = self.report()
        for finding in findings:
            lines.append(f"  {finding.render()}")
        lines.append(f"poolsan: {len(findings)} finding(s)")
        return "\n".join(lines)


def _leak_finding(kind: str, record: _Live, age: int) -> Finding:
    path, line = _split_site(record.site)
    return Finding(
        code="SAN003", path=path, line=line, col=1,
        message=f"leaked pooled {kind}: acquired at {record.site} "
                f"(t={record.acquired_at_ns}ns), still unreleased "
                f"{age}ns later — release it or retain it explicitly")


# -- per-kind poison/verify ----------------------------------------------------
#
# Every field poisoned here is reassigned by the corresponding pool's
# reuse path (PacketPool.acquire_roce, the engine's call_at/schedule,
# Fabric.inject/_demote_in_flight) — that pairing is what keeps
# sanitized digests byte-identical.  Verify functions return the names of
# fields whose sentinel was clobbered between release and reacquire.

def _poison_packet(packet: "RoCEPacket", token: int) -> None:
    packet.five_tuple = None        # stale .dst_ip -> AttributeError
    packet.size_bytes = POISON_INT
    packet.ttl = POISON_INT
    packet.payload.clear()
    packet.payload[POISON_KEY] = token
    packet.packet_id = POISON_INT
    packet.sent_at_ns = POISON_INT
    packet.opcode = None
    packet.src_qpn = POISON_INT
    packet.dst_qpn = POISON_INT
    packet.src_gid = POISON_STR
    packet.dst_gid = POISON_STR


def _verify_packet(packet: "RoCEPacket", token: int) -> list[str]:
    damaged = []
    if packet.five_tuple is not None:
        damaged.append("five_tuple")
    for name in ("size_bytes", "ttl", "packet_id", "sent_at_ns",
                 "src_qpn", "dst_qpn"):
        if getattr(packet, name) != POISON_INT:
            damaged.append(name)
    if packet.payload != {POISON_KEY: token}:
        damaged.append("payload")
    if packet.opcode is not None:
        damaged.append("opcode")
    for name in ("src_gid", "dst_gid"):
        if getattr(packet, name) != POISON_STR:
            damaged.append(name)
    return damaged


def _poison_event(event: "_Event") -> None:
    # The engine already cleared callback and bumped gen; poison the
    # schedule coordinates so a stale handle's reads are obviously wrong.
    event.time = POISON_INT
    event.seq = POISON_INT
    event.cancelled = True


def _verify_event(event: "_Event") -> list[str]:
    damaged = []
    if event.time != POISON_INT:
        damaged.append("time")
    if event.seq != POISON_INT:
        damaged.append("seq")
    if event.callback is not None:
        damaged.append("callback")
    if event.cancelled is not True:
        damaged.append("cancelled")
    return damaged


def _poison_transit(transit) -> None:
    transit.packet = None
    transit.path = None
    transit.idx = POISON_INT


def _verify_transit(transit) -> list[str]:
    damaged = []
    if transit.packet is not None:
        damaged.append("packet")
    if transit.path is not None:
        damaged.append("path")
    if transit.idx != POISON_INT:
        damaged.append("idx")
    return damaged
