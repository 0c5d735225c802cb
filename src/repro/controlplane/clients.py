"""Agent-side shims over the management network.

:class:`ControllerClient` wraps the Controller RPCs the Agent issues
(register, comm-info update, service-peer IP resolution).  Lookups are
callback-shaped because the reply may arrive later on a lossy/slow
transport; with the default inline transport the callback fires before
the call returns, preserving the direct-call sequencing.

:class:`UploadChannel` is the §4.2.3 result-upload path: each 5-second
batch is sent as a request, acknowledged by the Analyzer, and resent with
exponential backoff until acked.  Unacked batches live in a bounded
resend buffer — overflow drops the *oldest* batch (the freshest data is
the most valuable to the 20-second analysis window) and is accounted, as
is a crash of the host (an Agent's RAM buffer does not survive reboots).
"""

from __future__ import annotations

from collections import OrderedDict
from functools import partial
from typing import Callable, Optional

from repro.controlplane.endpoint import Endpoint, ReplyCallback
from repro.core.config import RPingmeshConfig
from repro.core.records import AgentUpload
from repro.host.rnic import CommInfo

CONTROLLER_ENDPOINT = "controller"
ANALYZER_ENDPOINT = "analyzer"


def _always_alive() -> bool:
    """Default liveness probe (module-level so client graphs pickle)."""
    return True


def _discard_reply(reply) -> None:
    """Fire-and-forget reply sink for acked requests."""


def ack_timeout_ns(config: RPingmeshConfig, attempt: int) -> int:
    """How long retry ``attempt`` of an acked request waits: the ack
    timeout, doubled per attempt up to the backoff cap."""
    return min(config.upload_ack_timeout_ns << min(attempt, 16),
               config.upload_backoff_max_ns)


class ControllerClient:
    """The Agent's view of the Controller over the management network.

    ``register`` and ``update_comm_info`` are acked requests retried with
    the upload channel's backoff schedule: a lost registration would
    otherwise strand the host forever (no pinglists, no probing, and —
    because an idle Agent stays silent — not even a host-down verdict).
    Registration is idempotent on the Controller, so a duplicate caused
    by a lost *ack* is harmless.
    """

    def __init__(self, endpoint: Endpoint, config: RPingmeshConfig,
                 controller: str = CONTROLLER_ENDPOINT, *,
                 is_alive: Callable[[], bool] = _always_alive):
        self._endpoint = endpoint
        self._config = config
        self._controller = controller
        self._is_alive = is_alive
        self.retries = 0

    def register(self, host: str, agent_endpoint: str,
                 comm_infos: dict[str, CommInfo]) -> None:
        """Report the probe-QP comm info of all the host's RNICs."""
        self._request_acked("register", {
            "host": host, "endpoint": agent_endpoint,
            "comm_infos": comm_infos})

    def update_comm_info(self, rnic_name: str, info: CommInfo) -> None:
        """Refresh one RNIC's comm info (Agent restart path)."""
        self._request_acked("update_comm_info", (rnic_name, info))

    def _request_acked(self, method: str, payload, attempt: int = 0) -> None:
        self._endpoint.request(
            self._controller, method, payload,
            on_reply=_discard_reply,
            timeout_ns=ack_timeout_ns(self._config, attempt),
            on_timeout=partial(self._on_timeout, method, payload, attempt))

    def _on_timeout(self, method: str, payload, attempt: int) -> None:
        if not self._is_alive():
            return  # the host (and its Agent) is gone; restart re-registers
        self.retries += 1
        self._endpoint.stats.retries += 1
        self._request_acked(method, payload, attempt + 1)

    def resolve_ip(self, ip: str, on_reply: ReplyCallback) -> None:
        """Service-tracing lookup; ``on_reply`` gets
        ``(rnic_name, CommInfo)`` or ``None``."""
        self._endpoint.request(self._controller, "resolve_ip", ip,
                               on_reply=on_reply)


class UploadChannel:
    """Reliable-enough Agent → Analyzer upload path (§4.2.3)."""

    def __init__(self, endpoint: Endpoint, config: RPingmeshConfig, *,
                 analyzer: str = ANALYZER_ENDPOINT,
                 is_alive: Callable[[], bool] = _always_alive):
        self._endpoint = endpoint
        self._config = config
        self._analyzer = analyzer
        self._is_alive = is_alive
        self._buffer: "OrderedDict[int, AgentUpload]" = OrderedDict()
        self._next_uid = 1
        # Metrics surface:
        self.submitted = 0
        self.acked = 0
        self.rejected = 0          # delivered but refused (ingest overflow)
        self.retries = 0
        self.dropped_overflow = 0  # resend buffer overflow (oldest batch)
        self.dropped_crash = 0     # buffered batches lost to a host crash

    @property
    def backlog(self) -> int:
        """Batches buffered awaiting an ack."""
        return len(self._buffer)

    def submit(self, batch: AgentUpload) -> None:
        """Queue one result batch for upload (and send it now)."""
        uid = self._next_uid
        self._next_uid += 1
        self._buffer[uid] = batch
        self.submitted += 1
        while len(self._buffer) > self._config.upload_resend_buffer:
            self._buffer.popitem(last=False)
            self.dropped_overflow += 1
        self._send(uid, attempt=0)

    def _send(self, uid: int, attempt: int) -> None:
        batch = self._buffer.get(uid)
        if batch is None:
            return  # dropped from the buffer while a retry was pending
        self._endpoint.request(
            self._analyzer, "upload", batch,
            on_reply=partial(self._on_ack, uid),
            timeout_ns=ack_timeout_ns(self._config, attempt),
            on_timeout=partial(self._on_timeout, uid, attempt))

    def _on_ack(self, uid: int, reply: Optional[dict]) -> None:
        if self._buffer.pop(uid, None) is None:
            return
        if reply is not None and reply.get("accepted"):
            self.acked += 1
        else:
            self.rejected += 1  # Analyzer ingest dropped it; do not resend

    def _on_timeout(self, uid: int, attempt: int) -> None:
        if uid not in self._buffer:
            return
        if not self._is_alive():
            # The host is down: its Agent (and RAM resend buffer) is gone.
            self.dropped_crash += len(self._buffer)
            self._buffer.clear()
            return
        self.retries += 1
        self._endpoint.stats.retries += 1
        self._send(uid, attempt + 1)
