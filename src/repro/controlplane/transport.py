"""The simulated TCP management network (§4.2.3).

:class:`ManagementNetwork` moves :class:`~repro.controlplane.messages.Envelope`
objects between named endpoints.  Each (src, dst) pair resolves to a
:class:`LinkProfile` — latency, jitter, loss — and any endpoint can be
*partitioned* (cut off in both directions), which is how control-plane
fault drills model an Agent that keeps probing the RoCE data plane while
its uploads silently die.

Determinism contract: with the default ideal profile (zero latency, zero
jitter, zero loss) delivery is **inline** — no simulator events are
scheduled and no RNG draws are made — so a default-configured deployment
is bit-for-bit identical to direct in-process method calls.  Non-ideal
profiles draw from a dedicated RNG stream, leaving every other stream's
sequence untouched.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

from repro.controlplane.messages import Envelope
from repro.sim.engine import Simulator
from repro.sim.rng import RngStream

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry

DeliverFn = Callable[[Envelope], None]


@dataclass(frozen=True)
class LinkProfile:
    """Transport behaviour of one directed control-plane link."""

    latency_ns: int = 0
    jitter_ns: int = 0
    loss_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_ns < 0 or self.jitter_ns < 0:
            raise ValueError("latency/jitter must be non-negative")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError("loss_prob must be in [0, 1)")

    @property
    def ideal(self) -> bool:
        """Whether this profile delivers inline with no randomness."""
        return (self.latency_ns == 0 and self.jitter_ns == 0
                and self.loss_prob == 0.0)


class EndpointStats:
    """Per-endpoint message counters (the control-plane metrics surface).

    Plain integer slots, bumped on every control-plane message.  With
    metrics on, :meth:`ManagementNetwork.export_metrics` copies them into
    ``repro_controlplane_<field>_total{endpoint="<name>"}`` series when a
    snapshot is taken — pull, like the Fabric/RNIC tallies.
    """

    # Field -> one-line meaning (doubles as the counter help text).
    FIELDS: dict[str, str] = {
        "sent": "envelopes this endpoint put on the wire",
        "delivered": "of those, how many reached their dst",
        "received": "envelopes delivered *to* this endpoint",
        "dropped_loss": "sent but lost to the loss profile",
        "dropped_partition": "sent but blocked by a partition",
        "dropped_unroutable": "sent to an unknown endpoint",
        "retries": "client resends (upload channel)",
        "request_timeouts": "requests that expired unanswered",
        "latency_total_ns": "summed delivery delay of received msgs",
    }

    __slots__ = tuple(FIELDS)

    def __init__(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0)

    @property
    def dropped(self) -> int:
        """All sends that never reached the destination."""
        return (self.dropped_loss + self.dropped_partition
                + self.dropped_unroutable)

    def avg_latency_ns(self) -> float:
        """Mean delivery delay of messages received by this endpoint."""
        return self.latency_total_ns / self.received if self.received else 0.0

    def as_dict(self) -> dict[str, int]:
        """Field name -> count, plus ``dropped``."""
        out = {name: getattr(self, name) for name in self.FIELDS}
        out["dropped"] = self.dropped
        return out


# Field -> series name (latency_total_ns -> ..._latency_ns_total, not
# ..._latency_total_ns_total).
_SERIES = {fld: f"repro_controlplane_{fld.replace('_total_ns', '_ns')}_total"
           for fld in EndpointStats.FIELDS}


@dataclass
class _Attachment:
    deliver: DeliverFn
    stats: EndpointStats


class ManagementNetwork:
    """Simulated control-plane transport between named endpoints."""

    def __init__(self, sim: Simulator, rng: RngStream,
                 default_profile: Optional[LinkProfile] = None):
        self.sim = sim
        self.rng = rng
        self.default_profile = default_profile or LinkProfile()
        self._links: dict[tuple[str, str], LinkProfile] = {}
        self._attached: dict[str, _Attachment] = {}
        self._partitioned: set[str] = set()
        self._msg_ids = itertools.count(1)
        # Network-wide totals (endpoint stats hold the breakdown).
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0

    # -- wiring ---------------------------------------------------------------

    def attach(self, name: str, deliver: DeliverFn) -> EndpointStats:
        """Register an endpoint; returns its (live) stats object."""
        if name in self._attached:
            raise ValueError(f"endpoint already attached: {name}")
        attachment = _Attachment(deliver, EndpointStats())
        self._attached[name] = attachment
        return attachment.stats

    def detach(self, name: str) -> None:
        """Remove an endpoint (its in-flight messages become unroutable)."""
        self._attached.pop(name, None)

    def endpoints(self) -> list[str]:
        """All attached endpoint names, sorted."""
        return sorted(self._attached)

    def stats_for(self, name: str) -> EndpointStats:
        """Metrics of one endpoint."""
        return self._attached[name].stats

    def next_msg_id(self) -> int:
        """Allocate a network-unique message id."""
        return next(self._msg_ids)

    # -- link profiles -----------------------------------------------------------

    def set_link_profile(self, src: str, dst: str, profile: LinkProfile, *,
                         symmetric: bool = True) -> None:
        """Override the profile of one link (both directions by default)."""
        self._links[(src, dst)] = profile
        if symmetric:
            self._links[(dst, src)] = profile

    def profile(self, src: str, dst: str) -> LinkProfile:
        """Effective profile for one directed link."""
        return self._links.get((src, dst), self.default_profile)

    # -- partitions -----------------------------------------------------------------

    def partition(self, name: str) -> None:
        """Cut an endpoint off from the control plane (both directions)."""
        self._partitioned.add(name)

    def heal(self, name: str) -> None:
        """Reconnect a partitioned endpoint."""
        self._partitioned.discard(name)

    def is_partitioned(self, name: str) -> bool:
        """Whether an endpoint is currently cut off."""
        return name in self._partitioned

    # -- metrics hooks ---------------------------------------------------------------

    def export_metrics(self, registry: "MetricsRegistry") -> None:
        """Copy every endpoint's counters into their metric series."""
        for name, attachment in self._attached.items():
            for fld, meaning in EndpointStats.FIELDS.items():
                registry.counter(_SERIES[fld], help=meaning, endpoint=name
                                 ).value = getattr(attachment.stats, fld)

    # -- the wire ---------------------------------------------------------------------

    def send(self, env: Envelope) -> bool:
        """Put an envelope on the wire.

        Returns whether the message was accepted for delivery; a ``False``
        is invisible to the sending *protocol* (the message just vanishes,
        as on a real management network) but visible in the stats.
        """
        src_stats = self._stats_of(env.src)
        if src_stats is not None:
            src_stats.sent += 1
        self.messages_sent += 1

        if env.src in self._partitioned or env.dst in self._partitioned:
            return self._drop(src_stats, "dropped_partition")
        attachment = self._attached.get(env.dst)
        if attachment is None:
            return self._drop(src_stats, "dropped_unroutable")
        profile = self.profile(env.src, env.dst)
        if profile.loss_prob > 0.0 and self.rng.chance(profile.loss_prob):
            return self._drop(src_stats, "dropped_loss")

        delay = profile.latency_ns
        if profile.jitter_ns > 0:
            delay += self.rng.randint(0, profile.jitter_ns)
        if delay <= 0:
            self._deliver(env, 0)
        else:
            self.sim.call_later(delay, partial(self._deliver, env, delay))
        return True

    def _deliver(self, env: Envelope, delay: int) -> None:
        # A partition (or detach) may have formed while the message was in
        # flight; late delivery through a cut link would be a time paradox.
        if env.src in self._partitioned or env.dst in self._partitioned:
            self._drop(self._stats_of(env.src), "dropped_partition")
            return
        attachment = self._attached.get(env.dst)
        if attachment is None:
            self._drop(self._stats_of(env.src), "dropped_unroutable")
            return
        src_stats = self._stats_of(env.src)
        if src_stats is not None:
            src_stats.delivered += 1
        attachment.stats.received += 1
        attachment.stats.latency_total_ns += delay
        self.messages_delivered += 1
        attachment.deliver(env)

    def _stats_of(self, name: str) -> Optional[EndpointStats]:
        attachment = self._attached.get(name)
        return attachment.stats if attachment is not None else None

    def _drop(self, stats: Optional[EndpointStats], counter: str) -> bool:
        if stats is not None:
            setattr(stats, counter, getattr(stats, counter) + 1)
        self.messages_dropped += 1
        return False
