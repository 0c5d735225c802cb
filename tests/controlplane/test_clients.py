"""UploadChannel retry/backoff/buffering and ControllerClient shims."""

from repro.controlplane.clients import UploadChannel, ack_timeout_ns
from repro.controlplane.endpoint import Endpoint
from repro.controlplane.transport import ManagementNetwork
from repro.core.config import RPingmeshConfig
from repro.core.records import AgentUpload
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.units import SECOND


def make_channel(config=None, accept=lambda batch: True, alive=lambda: True):
    sim = Simulator()
    net = ManagementNetwork(sim, RngRegistry(0).stream("controlplane"))
    config = config or RPingmeshConfig()
    Endpoint("analyzer", net).on(
        "upload", lambda batch: {"accepted": accept(batch)})
    channel = UploadChannel(Endpoint("agent.h0", net), config, is_alive=alive)
    return sim, net, channel


def batch(n=0):
    return AgentUpload(host="h0", uploaded_at_ns=n, results=[])


def test_ack_clears_buffer_inline():
    sim, net, channel = make_channel()
    channel.submit(batch())
    assert channel.acked == 1
    assert channel.backlog == 0
    assert channel.retries == 0
    assert sim.pending() == 0


def test_partition_triggers_backoff_retries_then_heal_drains():
    sim, net, channel = make_channel()
    net.partition("agent.h0")
    channel.submit(batch())
    assert channel.backlog == 1
    # Timeouts double: 1s, 2s, 4s... retry sends keep dying on the cut.
    sim.run_until(10 * SECOND)
    assert channel.retries >= 3
    assert channel.acked == 0
    net.heal("agent.h0")
    sim.run_until(40 * SECOND)
    assert channel.acked == 1
    assert channel.backlog == 0
    assert net.stats_for("agent.h0").retries == channel.retries


def test_backoff_is_exponential_and_capped():
    config = RPingmeshConfig()
    timeouts = [ack_timeout_ns(config, a) for a in range(8)]
    assert timeouts[0] == config.upload_ack_timeout_ns
    assert timeouts[1] == 2 * config.upload_ack_timeout_ns
    assert all(t <= config.upload_backoff_max_ns for t in timeouts)
    assert timeouts[-1] == config.upload_backoff_max_ns


def test_resend_buffer_overflow_drops_oldest():
    config = RPingmeshConfig(upload_resend_buffer=3)
    sim, net, channel = make_channel(config)
    net.partition("agent.h0")
    for i in range(5):
        channel.submit(batch(i))
    assert channel.backlog == 3
    assert channel.dropped_overflow == 2
    net.heal("agent.h0")
    sim.run_until(60 * SECOND)
    # The three newest batches survive and eventually land.
    assert channel.acked == 3


def test_nack_is_not_resent():
    sim, net, channel = make_channel(accept=lambda b: False)
    channel.submit(batch())
    assert channel.rejected == 1
    assert channel.backlog == 0
    sim.run_until(60 * SECOND)
    assert channel.retries == 0


def test_register_retries_until_acked():
    """A lost registration must not strand the host forever."""
    from repro.controlplane.clients import ControllerClient

    sim = Simulator()
    net = ManagementNetwork(sim, RngRegistry(0).stream("controlplane"))
    registered = []
    Endpoint("controller", net).on(
        "register", lambda p: registered.append(p["host"]) or {"ok": True})
    client = ControllerClient(Endpoint("agent.h0", net), RPingmeshConfig())
    net.partition("agent.h0")
    client.register("h0", "agent.h0", {})
    sim.run_until(5 * SECOND)
    assert registered == []
    assert client.retries >= 2
    net.heal("agent.h0")
    sim.run_until(60 * SECOND)
    assert registered == ["h0"]


def test_host_crash_empties_buffer():
    alive = {"up": True}
    sim, net, channel = make_channel(alive=lambda: alive["up"])
    net.partition("agent.h0")
    channel.submit(batch(0))
    channel.submit(batch(1))
    alive["up"] = False
    sim.run_until(5 * SECOND)
    assert channel.backlog == 0
    assert channel.dropped_crash == 2
    assert channel.acked == 0
