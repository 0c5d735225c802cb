"""Versioned checkpoint files for serve-mode sessions.

A checkpoint is the *whole world*: the event queue with every pending
event, every RNG stream's position, and all tracker/sketch/shard state — captured by pickling the live
:class:`~repro.serve.session.ServeSession` object graph.  The substrate
keeps that graph picklable on purpose (scheduled callbacks are bound
methods or ``functools.partial``, never lambdas), and the restore
contract is byte-exactness: a restored session run to tick T produces
the same ``replay_digest`` as an uninterrupted run to tick T
(``tests/serve/test_checkpoint.py`` pins this across processes).

File layout (all before the payload is human-inspectable)::

    REPRO-SERVE-CKPT v1\\n
    {json metadata, sorted keys}\\n
    <zlib-compressed pickle payload>

The metadata carries enough identity (format, spec, seed, shards, tick,
config digest) to reject a restore against the wrong code or world
without unpickling anything.  ``format`` moves whenever a pickled world of
the old code would restore but *run differently* under the new: format 1
files hold per-hop fabric events and one shared jitter state, which the
lookahead walker and per-task jitter streams would silently diverge from,
so they are refused; format 3 files hold ``Rnic._wire_departure`` /
``Agent._post_ack1`` events and ``send_roles`` tables that host lookahead
(DESIGN.md §10) no longer has; format 4 files hold a ``FaultManager``
without its identity table, so an ``/inject`` after restore would build a
second instance of a fault the campaign already armed; format 5 files hold
``DirectedLink``s without ``quiet_wait_ns``, the constant the walker adds
up over a loaded hop; format 6 files hold an ``Analyzer`` with no memory of
the uploads it accepted, so a resend in flight across the restore would be
ingested twice; format 7 files hold faults and workloads that restore their
own idea of "before" and a ``Cluster`` with no ``Holds`` table, so a clear
after the restore would overwrite what another writer still holds; format 8
files hold a bucketed calendar queue, an ECMP memo on the ``Fabric``, a PCIe
memo on each ``Rnic`` and two dead ``DirectedLink`` fields, shapes the
single-heap engine and the unmemoised fabric and RNIC no longer have; format
9 files hold an ``Analyzer`` whose open window is a queue of raw upload
batches, not the fold its batches now go into on arrival, list-backed
percentile trackers, and ``DirectedLink``s with no ``name`` of their own;
format 10 files hold a fold whose timeouts wait for close as a queue of raw
results, not grouped into the ``TimeoutFlow``s close now settles; format 11
files hold a ``Simulator`` with an ``EventQueue`` of its own and a ``now``
property, ``FiveTuple`` dataclasses, Agent QPs taking receive ``Cqe``s and
links, RNICs and clocks without the per-size delays and drift scale the
flattened probe path reads; format 12 files hold RNICs with a ``Cqe`` free
list and a sanitizer reference, and rail probers taking receive ``Cqe``s,
which the RNIC no longer pools; format 13 files hold links, cables, ACLs
and a topology that relay a write's take-back through callbacks of their
own, and a ``Simulator`` with no take-back ledger for a restored write to
notify; format 14 files hold free lists of recycled events, packets and
transits and generation-checked event handles apart from their events,
which the engine, fabric and packet builder no longer have.  (The
``v1`` in the magic line names the container layout — magic, JSON line,
zlib pickle — which has not changed.)

``repro-pingmesh checkpoint info|digest`` (:mod:`repro.cli`) prints a
file's metadata or restores it and prints its replay digest, which is how
tests prove *cross-process* restore.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import zlib

from repro.serve.session import ServeSession

MAGIC = b"REPRO-SERVE-CKPT v1\n"
FORMAT = 15


class CheckpointError(RuntimeError):
    """A checkpoint could not be written or restored."""


def _spec_metadata(spec) -> dict:
    """The spec as JSON-safe plain data (FaultEvents/rules as strings)."""
    out = {}
    for fld in dataclasses.fields(spec):
        value = getattr(spec, fld.name)
        if fld.name == "campaign":
            value = [f"{e.kind}@{e.start_s}-{e.end_s}:{','.join(e.loci)}"
                     for e in value]
        elif fld.name == "rules":
            value = [rule.describe() for rule in value]
        out[fld.name] = value
    return out


def save_checkpoint(session: ServeSession, path: str) -> dict:
    """Write the session to ``path`` atomically; returns the metadata."""
    metadata = {
        "format": FORMAT,
        "tick": session.ticks,
        "sim_now_ns": session.cluster.sim.now,
        "seed": session.spec.seed,
        "shards": session.spec.shards,
        "config_digest": session.config_digest,
        "spec": _spec_metadata(session.spec),
    }
    payload = zlib.compress(pickle.dumps(session, pickle.HIGHEST_PROTOCOL))
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(json.dumps(metadata, sort_keys=True).encode())
        fh.write(b"\n")
        fh.write(payload)
    os.replace(tmp, path)
    return metadata


def _split(path: str) -> tuple[dict, bytes]:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(
                f"{path}: not a serve checkpoint (bad magic {magic!r})")
        meta_line = fh.readline()
        payload = fh.read()
    try:
        metadata = json.loads(meta_line)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: corrupt metadata") from exc
    if metadata.get("format") != FORMAT:
        raise CheckpointError(
            f"{path}: unsupported checkpoint format "
            f"{metadata.get('format')!r} (this build reads {FORMAT})")
    return metadata, payload


def read_metadata(path: str) -> dict:
    """The checkpoint's JSON header, without unpickling the payload."""
    metadata, _ = _split(path)
    return metadata


def load_checkpoint(path: str) -> ServeSession:
    """Restore a session; the caller owns re-attaching HTTP/TUI layers."""
    metadata, payload = _split(path)
    try:
        session = pickle.loads(zlib.decompress(payload))
    except Exception as exc:
        raise CheckpointError(f"{path}: payload restore failed: "
                              f"{exc}") from exc
    if not isinstance(session, ServeSession):
        raise CheckpointError(
            f"{path}: payload is {type(session).__name__}, "
            f"not ServeSession")
    if session.ticks != metadata.get("tick"):
        raise CheckpointError(
            f"{path}: metadata tick {metadata.get('tick')} disagrees "
            f"with payload tick {session.ticks}")
    return session

