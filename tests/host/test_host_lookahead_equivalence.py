"""Differential test: host lookahead and the exchange vs the per-event path.

The RNIC used to schedule one ``_wire_departure`` event per send and the
Agent one ``_post_ack1`` event per answered probe, with send CQEs matched
back through a ``send_roles`` table.  Host lookahead (DESIGN.md §10) runs a
departure, the first-ACK post and the second-ACK post at post time, with
their own instants as arguments, whenever what they read is settled; a write
to anything a planned step read takes the step back and re-queues it as an
event (the write notifies the take-back ledger, ``repro.sim.ledger``, which
runs the RNIC's ``demote_planned``).  One object per probe, the Agent's
``_Exchange``, then plans each leg inline from the constants that path
reads.  The contract is *exact* equivalence, so this harness runs real
Agents on small random Clos shapes three times under the same seeded
script of writes — with every RNIC and Agent swapped for the faithful port
of the per-event path below, on the per-packet chain (every leg through
``Rnic.post_send``, the walker and ``Rnic._on_fabric_packet``: the
exchange's fallback), and as built — and requires identical:

* ``system.upload_digest`` (every uploaded result's seq, completion time,
  timeout flag, three SLA delays);
* fabric drop log, ``forwarded_by_link()``, ``packets_injected`` /
  ``packets_delivered``;
* per-RNIC ``tx_packets`` / ``tx_bytes`` / ``rx_packets`` / ``rx_bytes`` /
  ``local_drops``, per-Agent ``probes_sent`` / ``acks_sent``;
* every RNG stream's draw count and the registry digest;
* every ``cqe.send`` / ``cqe.recv`` / ``rnic.drop`` event an RNIC reports
  while a tracer is switched on, with the ``sim.now`` it carries;

and, between the per-packet chain and the exchange, what only worlds that
plan ahead share (each in-flight packet's TTL, each RNIC's next ``wr_id``)
and the popped-event ``(time, seq)`` stream, read through a profiler: the
exchange schedules the same events from the same callbacks in the same
order.  All of it is read at the end, at cuts from outside, and by
snapshot events queued to fall *mid-plan* (a nanosecond before a planned
step is due, or halfway there).  A snapshot reads once everything already
due at its nanosecond has run, as a cut does, so a step due then counts as
done in every world.

Writes are aimed, not sprayed: a hook on ``Agent._probe`` (run by the probe
tick in all worlds) queues writes for the 1 us between the probe's post and
its departure ② and for its walk after ②, and a hook on ``Agent._respond``
(run at ③ in all worlds) peeks the CPU delay the responder is about to
draw and queues writes between ③ and the ACK1 post, between the post and
④, between ④ and ACK2's departure, and along either ACK's walk — a third
of them at the exact nanosecond the window ends.  Both hooks queue before
the step itself is posted, which is the tie rule's premise (a write at a
step's due nanosecond applies to that step because every real writer
queues far ahead of a step that exists for microseconds).

Each hooked write class has scripts that fail when its hook is deleted —
checked by hand, once, on the scripts before the walk windows were added,
by keeping the write and its ``resettle()`` but dropping the take-back in
front, over seeds 0-59: ``admin_up`` 59 seeds fail, ``flap_down`` 57,
``routing_configured`` 54, ``gid_index_present`` 50, ``tx_corruption_prob``
60, ``pcie_gbps`` 36, ``Rnic.tracer`` 56, ``Host.up`` (``set_down`` /
``set_up``) 58, QP destroy (``Agent.restart()``) 45; none deleted, 0.
Dropping, by hand, each of the exchange's 13 counter bumps (``tx_*``,
``_packets_injected``, the packet id, ``packets_forwarded`` in either walk,
TTL, ``packets_delivered``, ``rx_*``, ``wr_id``, either ACK's
``acks_sent``) and each of its 4 books (the RNIC's planned step, the
fabric's in-flight walk, the walker take-back's ``quiet_epoch`` move, the
check of it) fails this file's scenario and All2All tests or one of every
third seed: 17 of 17.  ``tests/sim/test_ledger.py`` checks in tier-1 that
every hooked write still reaches the RNIC's take-back before ``resettle()``,
and reaches no other planner.  Fabric faults and ``cpu.set_load`` need no
host hook (the walker has its own; the CPU delay is drawn at ③ in all
worlds) and ride along to show exactly that.

Also here: every script runs once more as built (same bytes), and every
state read of every run, mid-plan ones included, checks that each packet
the fabric took in was delivered, dropped or is still in flight.  Every
``SCENARIOS`` world and a small All2All job, whose service probes cross
standing queues, are compared the same way between the per-packet chain
and the exchange.  The checkpoint cut with steps planned and not yet due
lives beside its fabric sibling in ``tests/serve/test_checkpoint.py``.

Against the per-event port, which queues more events, two events at one
nanosecond that both draw from one RNG stream could run in another order;
the seeds below do not trip on it.  Against the per-packet chain no
ordering is left out: the streams are equal.
"""

import copy
import random
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Optional

import pytest

from repro.analysis.runtime import SCENARIOS, structural_digest
from repro.cluster import Cluster
from repro.core.agent import Agent, _Exchange
from repro.core.config import RPingmeshConfig
from repro.core.system import RPingmesh, system_state
from repro.fleet.spec import build_world
from repro.host.rnic import (_DEFAULT_OPCODE, TX_PIPELINE_NS, CommInfo, Cqe,
                             CqeKind, LocalSendError, QPState, QPType, Rnic)
from repro.net.addresses import roce_five_tuple
from repro.net.clos import ClosParams
from repro.net.packet import ROCE_HEADER_BYTES, probe_packet_size
from repro.services.dml import CommPattern, DmlConfig, DmlJob
from repro.sim.units import (MICROSECOND, MILLISECOND, SECOND,
                             serialization_delay_ns)

SPAN_NS = 3 * SECOND
# Every probe task's first tick falls on the same nanosecond (jitter starts
# with the second), so that round's steps on one host are due together.  A
# write one of them queues for its own due nanosecond is then queued *after*
# its neighbours were posted — not the tie rule's premise — so the first
# round is left alone.
WRITES_FROM_NS = 40 * MILLISECOND
CONFIG = dict(upload_interval_ns=500 * MILLISECOND,
              pinglist_refresh_ns=400 * MILLISECOND,
              probe_timeout_ns=100 * MILLISECOND,
              tor_mesh_pps=40.0)
# How far past a leg's departure a "mid-walk" write may land: a few quiet
# hops of these small shapes.
WALK_NS = 3 * MICROSECOND


@contextmanager
def _per_packet():
    """Today's per-packet chain: every leg of every exchange goes through
    ``Rnic.post_send``, the walker and ``Rnic._on_fabric_packet``."""
    send = _Exchange._send
    _Exchange._send = _Exchange._post
    try:
        yield
    finally:
        _Exchange._send = send


class _EventLog:
    """A profiler that notes each popped event's ``(time, seq)``."""

    def __init__(self, sim):
        self.sim = sim
        self.popped = []
        sim.set_profiler(self)

    def run(self, callback):
        event = self.sim.profiled_event
        self.popped.append((event.time, event.seq))
        callback()


# -- the per-event port ----------------------------------------------------------

class _PerEventRnic(Rnic):
    """The original send path: one departure event, one CQE per send."""

    def post_send(self, qp, dst, *, src_port, payload, payload_bytes,
                  opcode=None, wr_id=None, context=None, at_ns=None):
        assert context is None and at_ns is None
        if qp.state != QPState.RTS:
            raise LocalSendError("qp_not_rts")
        if not self.operational:
            raise LocalSendError("rnic_down")
        if not self.routing_configured:
            self._count_drop("routing_unconfigured")
            raise LocalSendError("routing_unconfigured")
        if not self.gid_index_present:
            self._count_drop("gid_index_missing")
            raise LocalSendError("gid_index_missing")
        if opcode is None:
            opcode = _DEFAULT_OPCODE[qp.qp_type]
        if wr_id is None:
            wr_id = next(self._wr_ids)
        packet = self.fabric.packet_pool.acquire_roce(
            roce_five_tuple(self.ip, dst.ip, src_port),
            ROCE_HEADER_BYTES + payload_bytes, opcode, qp.qpn, dst.qpn,
            self.gid.value, dst.gid, payload)
        departure_delay = TX_PIPELINE_NS + serialization_delay_ns(
            packet.size_bytes, self.pcie_gbps)
        self.sim.schedule(
            departure_delay,
            partial(self._wire_departure, qp, packet, wr_id))
        return wr_id

    def _wire_departure(self, qp, packet, wr_id):
        if not self.operational:
            self._count_drop("rnic_down")
            if self.tracer is not None:
                self._trace_rnic_drop(packet.payload, "rnic_down")
            return
        self._tx_packets += 1
        self._tx_bytes += packet.size_bytes
        if self.tx_corruption_prob > 0 and self.rng.chance(
                self.tx_corruption_prob):
            self._count_drop("tx_corruption")
            if self.tracer is not None:
                self._trace_rnic_drop(packet.payload, "tx_corruption")
            self._send_cqe(qp, wr_id, packet.payload)
            return
        self.fabric.inject(packet, self.name)
        self._send_cqe(qp, wr_id, packet.payload)

    def _send_cqe(self, qp, wr_id, payload):
        timestamp = self.clock.read(self.sim.now)
        if self.tracer is not None:
            self._trace_cqe(payload, CqeKind.SEND, timestamp)
        if qp.on_cqe is not None:
            qp.on_cqe(Cqe(CqeKind.SEND, qp.qpn, wr_id, timestamp))


@dataclass
class _Outstanding:
    """The per-event port's book for one in-flight probe."""

    seq: int
    entry: object
    issued_at_ns: int
    t1_host: int
    five_tuples: tuple
    t2_rnic: Optional[int] = None
    t5_rnic: Optional[int] = None
    t6_host: Optional[int] = None
    responder_delay_ns: Optional[int] = None
    timeout_handle: object = None


class _PerEventAgent(Agent):
    """The original exchange: send CQEs matched through ``send_roles``,
    the first ACK posted by an event of its own, one ``_Outstanding`` per
    probe reached by sequence number."""

    def _roles(self, state):
        return self.__dict__.setdefault("_send_roles", {}).setdefault(
            state.rnic.name, {})

    def _create_qp(self, state):
        # A plain CQE consumer: no on_sent.
        return self.host.verbs.create_qp(
            state.rnic, QPType.UD, on_cqe=partial(self._on_cqe, state))

    def restart(self):
        for state in self.states.values():
            self._roles(state).clear()
        super().restart()

    def _probe(self, state, entry):
        seq = next(self.cluster.probe_seqs)
        now = self.cluster.sim.now
        out = _Outstanding(seq=seq, entry=entry, issued_at_ns=now,
                           t1_host=self.host.read_clock(),
                           five_tuples=self._five_tuples(state, entry))
        state.outstanding[seq] = out
        out.timeout_handle = self.cluster.sim.call_later(
            self.config.probe_timeout_ns,
            partial(self._on_timeout, state, seq))
        try:
            wr_id = self.host.verbs.post_send(
                state.rnic, state.qp, entry.target,
                src_port=entry.src_port,
                payload={"t": "probe", "seq": seq},
                payload_bytes=self.config.probe_payload_bytes)
        except LocalSendError:
            return
        self._roles(state)[wr_id] = ("probe", seq)
        self.probes_sent += 1
        if self.config.continuous_path_tracing:
            five_tuple, reverse = out.five_tuples
            if five_tuple not in state.path_cache:
                self._trace_tuple(state, five_tuple, reverse)

    def _on_cqe(self, state, cqe):
        if cqe.kind == CqeKind.SEND:
            self._on_send_cqe(state, cqe)
        else:
            kind = cqe.payload.get("t")
            if kind == "probe":
                self._respond(state, cqe.payload, cqe.rnic_timestamp_ns,
                              cqe.src_ip, cqe.src_gid, cqe.src_qpn,
                              cqe.src_port)
            elif kind == "ack1":
                self._on_ack1(state, cqe.payload, cqe.rnic_timestamp_ns)
            elif kind == "ack2":
                self._on_ack2(state, cqe.payload)

    def _on_send_cqe(self, state, cqe):
        role = self._roles(state).pop(cqe.wr_id, None)
        if role is None:
            return
        tag, context = role
        if tag == "probe":
            out = state.outstanding.get(context)
            if out is not None:
                out.t2_rnic = cqe.rnic_timestamp_ns
        elif tag == "ack1":
            responder_delay = cqe.rnic_timestamp_ns - context["t3"]
            self._post_ack(state, context["reply_to"], context["src_port"],
                           {"t": "ack2", "seq": context["seq"],
                            "responder_delay": responder_delay})

    def _respond(self, state, payload, t3, src_ip, src_gid, src_qpn,
                 src_port):
        if not self.host.up:
            return
        reply_to = CommInfo(ip=src_ip, gid=src_gid, qpn=src_qpn)
        seq = payload["seq"]
        now = self.cluster.sim.now
        delay = self.host.cpu.processing_delay_ns()
        delay += self.host.cpu.starvation_stall_ns(now)
        self.cluster.sim.schedule(
            delay,
            partial(self._post_first_ack, state, reply_to, src_port, seq, t3))

    def _post_first_ack(self, state, reply_to, src_port, seq, t3):
        wr_id = self._post_ack(state, reply_to, src_port,
                               {"t": "ack1", "seq": seq})
        if wr_id is not None:
            self._roles(state)[wr_id] = ("ack1", {
                "t3": t3, "reply_to": reply_to, "src_port": src_port,
                "seq": seq})

    def _post_ack(self, state, reply_to, src_port, payload):
        try:
            wr_id = self.host.verbs.post_send(
                state.rnic, state.qp, reply_to, src_port=src_port,
                payload=payload,
                payload_bytes=self.config.probe_payload_bytes)
        except LocalSendError:
            return None
        self._acks_sent += 1
        return wr_id

    def _on_ack1(self, state, payload, t5):
        out = state.outstanding.get(payload["seq"])
        if out is None:
            return
        out.t5_rnic = t5
        now = self.cluster.sim.now
        delay = self.host.cpu.processing_delay_ns()
        delay += self.host.cpu.starvation_stall_ns(now)
        self.cluster.sim.schedule(
            delay, partial(self._stamp_t6, state, out.seq))

    def _stamp_t6(self, state, seq):
        out = state.outstanding.get(seq)
        if out is None:
            return
        out.t6_host = self.host.read_clock()
        self._maybe_complete(state, out)

    def _on_ack2(self, state, payload):
        out = state.outstanding.get(payload["seq"])
        if out is None:
            return
        out.responder_delay_ns = payload["responder_delay"]
        self._maybe_complete(state, out)

    def _maybe_complete(self, state, out):
        if (out.t2_rnic is None or out.t5_rnic is None
                or out.t6_host is None or out.responder_delay_ns is None):
            return
        state.outstanding.pop(out.seq, None)
        out.timeout_handle.cancel()
        rtt_plus_remote = out.t5_rnic - out.t2_rnic
        self._record(state, out, timeout=False,
                     network_rtt_ns=rtt_plus_remote - out.responder_delay_ns,
                     prober_processing_ns=(out.t6_host - out.t1_host)
                     - rtt_plus_remote,
                     responder_processing_ns=out.responder_delay_ns)

    def _on_timeout(self, state, seq):
        out = state.outstanding.pop(seq, None)
        if out is not None:
            self._record(state, out, timeout=True)


# -- scripts ---------------------------------------------------------------------

RNIC_WRITES = ("admin", "flap", "routing", "gid", "corruption", "pcie",
               "tracer")
WRITE_KINDS = RNIC_WRITES + ("host", "restart", "link_down", "link_corrupt",
                             "link_load", "cpu")
UNDO_AFTER = (300, 1_500, 40 * MICROSECOND, 3 * MILLISECOND)


def _random_shape(rng):
    return ClosParams(pods=rng.choice((1, 2)), tors_per_pod=rng.choice((1, 2)),
                      aggs_per_pod=rng.choice((1, 2)), spines=1,
                      hosts_per_tor=2, rnics_per_host=rng.choice((1, 1, 2)))


class _Script:
    """One seeded scenario as plain data, replayable into either world.

    Writes are keyed by the sequence number of the probe whose post /
    receipt they follow and placed relative to that exchange's own instants.
    (Not by a running count of receipts: probes that reach different hosts
    at the same nanosecond do so in event-sequence order, which the two
    worlds do not share.)
    """

    def __init__(self, seed, *, exchanges=4_000):
        rng = random.Random(seed)
        self.seed = seed
        self.params = _random_shape(rng)
        self.cuts = sorted(rng.randrange(SPAN_NS) for _ in range(5))
        # probe seq -> writes between its post and departure ②.
        self.probe_writes = {}
        # probe seq -> writes around the two ACKs that answer it.
        self.respond_writes = {}
        for n in range(1, exchanges):
            if rng.random() < 0.06:
                self.probe_writes[n] = [self._write(rng, ("depart",
                                                          "walk"))]
            if rng.random() < 0.12:
                self.respond_writes[n] = [
                    self._write(rng, ("post", "ack1", "ack2", "ack1_walk",
                                      "ack2_walk"))
                    for _ in range(rng.choice((1, 1, 2)))]

    @staticmethod
    def _write(rng, windows):
        return {
            "window": rng.choice(windows),
            # Where in the window: at the step's due nanosecond (a third),
            # else this fraction of the way there.
            "at_due": rng.random() < 1 / 3,
            "fraction": rng.random(),
            "kind": rng.choice(WRITE_KINDS),
            "x": rng.random(),
            "undo_after": rng.choice(UNDO_AFTER),
            # Mostly the RNIC / host the step runs on; sometimes another.
            "elsewhere": rng.random() < 0.15,
            "snapshot": rng.choice((None, "before", "halfway")),
        }


class _Trace:
    """What an RNIC tells an installed tracer, as comparable rows."""

    def __init__(self):
        self.rows = []

    def event(self, seq, now_ns, name, **fields):
        self.rows.append((now_ns, seq, name, fields["leg"], fields["rnic"],
                          fields.get("rnic_timestamp_ns"),
                          fields.get("reason")))


class _World:
    """One deployed system, built as is or swapped onto the port."""

    def __init__(self, script, *, per_event):
        self.script = script
        self.cluster = cluster = Cluster.clos(script.params, seed=script.seed)
        self.system = RPingmesh(cluster, RPingmeshConfig(**CONFIG))
        self.sim = cluster.sim
        self.events = _EventLog(self.sim)
        self.rnics = cluster.all_rnics()
        if per_event:
            for rnic in self.rnics:
                rnic.__class__ = _PerEventRnic
            for agent in self.system.agents.values():
                agent.__class__ = _PerEventAgent
        self.links = sorted(cluster.topology.links)
        self.tracer = _Trace()
        self.probes = 0
        self.snapshots = []
        for agent in self.system.agents.values():
            agent._probe = partial(self._on_probe, agent, agent._probe)
            agent._respond = partial(self._on_respond, agent, agent._respond)
        self.system.start()

    # -- the two hooks -----------------------------------------------------------

    def _departure_delay(self, rnic):
        return TX_PIPELINE_NS + serialization_delay_ns(probe_packet_size(),
                                                       rnic.pcie_gbps)

    def _on_probe(self, agent, probe, state, entry):
        # Probe ticks run in one order in both worlds, and each takes the
        # next cluster-wide sequence number.
        self.probes += 1
        writes = self.script.probe_writes.get(self.probes, ()) \
            if self.sim.now >= WRITES_FROM_NS else ()
        now = self.sim.now
        depart = now + self._departure_delay(state.rnic)
        windows = {"depart": (now, depart), "walk": (depart, depart + WALK_NS)}
        for write in writes:
            self._queue(write, windows, agent, state.rnic)
        probe(state, entry)

    def _on_respond(self, agent, respond, state, payload, *received):
        if agent.host.up:
            writes = self.script.respond_writes.get(payload["seq"], ())
            if writes and self.sim.now >= WRITES_FROM_NS:
                # The delay _respond is about to draw, from a copy of the
                # CPU model so the real streams are left alone.
                now = self.sim.now
                cpu = copy.deepcopy(agent.host.cpu)
                post = now + cpu.processing_delay_ns()
                post += cpu.starvation_stall_ns(now)
                ack1 = post + self._departure_delay(state.rnic)
                ack2 = ack1 + self._departure_delay(state.rnic)
                windows = {"post": (now, post), "ack1": (post, ack1),
                           "ack2": (ack1, ack2),
                           "ack1_walk": (ack1, ack1 + WALK_NS),
                           "ack2_walk": (ack2, ack2 + WALK_NS)}
                for write in writes:
                    self._queue(write, windows, agent, state.rnic)
        respond(state, payload, *received)

    def _queue(self, write, windows, agent, rnic):
        start, due = windows[write["window"]]
        at = due if write["at_due"] else \
            start + 1 + int(write["fraction"] * (due - start - 1))
        at = max(at, self.sim.now)
        if write["elsewhere"]:
            rnic = self.rnics[int(write["x"] * len(self.rnics))]
            agent = self.system.agents[
                self.cluster.host_of_rnic(rnic.name).name]
        self.sim.call_at(at, partial(self._apply, write, agent, rnic, False))
        self.sim.call_at(at + write["undo_after"],
                         partial(self._apply, write, agent, rnic, True))
        if write["snapshot"] == "before" and due - 1 > self.sim.now:
            self.sim.call_at(due - 1, self._snapshot_last)
        elif write["snapshot"] == "halfway":
            self.sim.call_at((self.sim.now + due) // 2, self._snapshot_last)

    def _apply(self, write, agent, rnic, undo):
        kind, x = write["kind"], write["x"]
        host = agent.host
        link = self.cluster.topology.links[
            self.links[int(x * len(self.links))]]
        if kind == "admin":
            rnic.admin_up = undo
        elif kind == "flap":
            rnic.flap_down = not undo
        elif kind == "routing":
            rnic.routing_configured = undo
        elif kind == "gid":
            rnic.gid_index_present = undo
        elif kind == "corruption":
            rnic.tx_corruption_prob = 0.0 if undo else (0.5, 1.0)[x < 0.5]
        elif kind == "pcie":
            rnic.pcie_gbps = 512.0 if undo else 16.0
        elif kind == "tracer":
            rnic.tracer = None if undo else self.tracer
        elif kind == "host":
            host.set_up() if undo else host.set_down()
        elif kind == "restart":
            if not undo:
                agent.restart()
        elif kind == "link_down":
            link.pair.up = undo
        elif kind == "link_corrupt":
            link.corruption_drop_prob = 0.0 if undo else 0.5
        elif kind == "link_load" and write["fraction"] < 0.4:
            # The standing queue TrafficEngine.apply leaves on an overloaded
            # link: as constant as an idle one, so a step planned ahead
            # starts its walk over a loaded first hop.
            link.set_offered_load(self.sim.now,
                                  0.0 if undo else link.rate_gbps)
            link.queue_bytes = 0.0 if undo else 0.02 * link.buffer_bytes
        elif kind == "link_load":
            link.set_offered_load(self.sim.now,
                                  0.0 if undo else 1.2 * link.rate_gbps)
        elif kind == "cpu":
            host.cpu.set_load(0.10 if undo else (0.6, 0.93)[x < 0.3])

    # -- what is compared ------------------------------------------------------------

    def _snapshot_last(self):
        # Read once everything already due at this nanosecond has run, as
        # a cut does: a step due now is done in every world.
        self.sim.schedule(0, self._snapshot)

    def _snapshot(self):
        self.snapshots.append(self.state())

    def state(self):
        cluster, system = self.cluster, self.system
        fabric = cluster.fabric
        # Conservation: every packet injected (including those injected
        # for an instant still ahead) is delivered, dropped or in flight.
        assert fabric._packets_injected == (
            fabric.packets_delivered + sum(fabric.drop_counts.values())
            + fabric.packets_in_flight)
        return {
            "now": self.sim.now,
            "results": (system.upload_digest.count,
                        system.upload_digest.value),
            "drops": sorted((d.time_ns, d.reason.value, d.link, d.node)
                            for d in fabric.drops),
            "forwarded": fabric.forwarded_by_link(),
            "injected": fabric.packets_injected,
            "delivered": fabric.packets_delivered,
            "rnics": {r.name: (r.tx_packets, r.tx_bytes, r.rx_packets,
                               r.rx_bytes, dict(r.local_drops))
                      for r in self.rnics},
            "agents": {name: (a.probes_sent, a.acks_sent, a.restarts)
                       for name, a in system.agents.items()},
            "rng": (cluster.rngs.draw_counts(), cluster.rngs.digest()),
            "trace": sorted(self.tracer.rows),
            "books": _books(cluster),
        }


def _run(script, *, per_event=False, per_packet=False):
    with _per_packet() if per_packet else nullcontext():
        world = _World(script, per_event=per_event)
        states = []
        for cut in script.cuts:
            world.sim.run_until(cut)
            states.append(world.state())
        world.sim.run_until(SPAN_NS)
        states.append(world.state())
    return world, world.snapshots + states


def _assert_same_events(what, expected, actual):
    """The same events popped at the same instants, in the same order."""
    for n, (want, got) in enumerate(zip(expected, actual)):
        assert got == want, f"{what}: event {n} is {got}, not {want}"
    assert len(actual) == len(expected), what


def _books(cluster):
    """What only worlds that plan ahead share: the TTL each packet in flight
    has after its looked-ahead hops, and each RNIC's next work-request id
    (the port's CQE consumers take one per receive, too)."""
    return ({packet_id: transit.packet.ttl for packet_id, transit
             in cluster.fabric._in_flight.items()},
            {rnic.name: repr(rnic._wr_ids) for rnic in cluster.all_rnics()})


def _assert_same(seed, expected, actual, *, books=True):
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        for key in want:
            if key == "books" and not books:
                continue
            assert got[key] == want[key], (
                f"seed {seed}: {key} diverged at t={want['now']}")


# -- the differential tests ------------------------------------------------------------

@pytest.mark.parametrize("seed", range(60))
def test_host_lookahead_matches_per_event_host_path(seed):
    script = _Script(seed)
    reference, expected = _run(script, per_event=True)
    chain, chained = _run(script, per_packet=True)
    world, actual = _run(script)
    _assert_same(seed, expected, chained, books=False)
    _assert_same(seed, chained, actual)
    _assert_same_events(seed, chain.events.popped, world.events.popped)
    assert reference.system.upload_digest.count > 100
    assert not any(rnic.step_demotions for rnic in reference.rnics)
    # Once more: the same bytes, and (checked by every state() read,
    # mid-plan ones included) every packet accounted for with planned
    # steps outstanding and across their demotion.
    again, replayed = _run(script)
    _assert_same(seed, actual, replayed)
    assert not again.cluster.fabric.packets_in_flight


def test_scripts_plan_demote_and_unpost(monkeypatch):
    """The scripts reach what they are for: steps run ahead of the clock,
    writes that take departures and ahead-of-clock posts back, snapshots
    that fall while something is planned — at five events a quiet probe."""
    demotions = unposts = mid_plan = events = probes = 0
    on_sent = Agent._on_sent

    def counted(agent, state, qp, context, timestamp, at_ns):
        nonlocal unposts
        unposts += timestamp is None
        on_sent(agent, state, qp, context, timestamp, at_ns)

    monkeypatch.setattr(Agent, "_on_sent", counted)
    for seed in range(0, 60, 6):
        world = _World(_Script(seed), per_event=False)
        seen = []
        world._snapshot = lambda w=world, s=seen: s.append(
            sum(len(rnic.planned()) for rnic in w.rnics))
        world.sim.run_until(SPAN_NS)
        demotions += sum(rnic.step_demotions for rnic in world.rnics)
        mid_plan += sum(1 for planned in seen if planned)
        events += world.sim.events_processed
        probes += world.probes
    assert demotions > 300
    assert unposts > 100
    assert mid_plan > 200
    # Writes, their undos, snapshots and uploads included.
    assert events / probes < 6.5


# -- whole worlds: the exchange against the per-packet chain ------------------------

def _world_run(build, *, per_packet, until_ns, cuts=4):
    """Run a world built by ``build()`` to ``until_ns`` with or without the
    exchange planning legs; its event stream and what it observably did,
    read at ``cuts`` even cuts (each checking conservation)."""
    with _per_packet() if per_packet else nullcontext():
        cluster, system = build()
        log = _EventLog(cluster.sim)
        fabric = cluster.fabric
        reads = []
        for k in range(1, cuts + 1):
            system.run(until_ns * k // cuts - cluster.sim.now)
            assert fabric._packets_injected == (
                fabric.packets_delivered + sum(fabric.drop_counts.values())
                + fabric.packets_in_flight)
            reads.append((
                fabric.packets_injected, fabric.packets_delivered,
                fabric.forwarded_by_link(),
                {r.name: (r.tx_packets, r.tx_bytes, r.rx_packets,
                          r.rx_bytes, dict(r.local_drops))
                 for r in cluster.all_rnics()},
                {name: (a.probes_sent, a.acks_sent)
                 for name, a in system.agents.items()},
                structural_digest(system_state(system)), _books(cluster)))
    return log.popped, reads, system


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_exchange_matches_per_packet_chain(name):
    spec = SCENARIOS[name]

    def build():
        cluster, system, _, _ = build_world(
            spec.topology, 7, config=spec.config(), campaign=spec.campaign)
        return cluster, system

    until = spec.duration_s * SECOND
    events, reads, _ = _world_run(build, per_packet=True, until_ns=until)
    exchange_events, exchange_reads, _ = _world_run(
        build, per_packet=False, until_ns=until)
    _assert_same_events(name, events, exchange_events)
    assert exchange_reads == reads
    assert all(sent for sent, _ in reads[-1][4].values())


def test_all2all_service_probes_over_standing_queues_match():
    """A small All2All job traced by eBPF: its service probes ride the
    job's 5-tuples over links with standing queues (loaded ``quiet`` hops)
    and, while a cycle's queues move, hops that are not quiet."""

    queued = []     # per world: link-samples that found a standing queue

    def build():
        cluster = Cluster.clos(ClosParams(pods=2, tors_per_pod=2,
                                          aggs_per_pod=2, spines=2,
                                          hosts_per_tor=2), seed=3)
        system = RPingmesh(cluster, RPingmeshConfig(**CONFIG))
        job = DmlJob(cluster, cluster.rnic_names()[:6],
                     DmlConfig(pattern=CommPattern.ALL2ALL,
                               compute_time_ns=200 * MILLISECOND,
                               data_gbits_per_cycle=3.0))
        system.attach_service_monitor(job)
        system.start()
        cluster.sim.call_at(SECOND, job.start)
        queued.append(0)
        links = list(cluster.topology.links.values())

        def sample():
            queued[-1] += sum(1 for link in links
                              if link.quiet and link.quiet_wait_ns)
        cluster.sim.every(MILLISECOND, sample)
        return cluster, system

    events, reads, _ = _world_run(build, per_packet=True,
                                  until_ns=4 * SECOND)
    exchange_events, exchange_reads, system = _world_run(
        build, per_packet=False, until_ns=4 * SECOND)
    _assert_same_events("all2all", events, exchange_events)
    assert exchange_reads == reads
    service_probes = sum(state.tasks[2].runs
                         for agent in system.agents.values()
                         for state in agent.states.values())
    assert service_probes > 500
    assert queued[0] == queued[1] > 1_000
