"""PFC pause propagation (the mechanics behind Table 2 #13/#14).

The paper (and its companion work, Hostping) describes the chain: an
intra-host bottleneck (downgraded PCIe, bad ACS/ATS config) leaves the
RNIC unable to drain at line rate; the RNIC emits PFC pause frames; the
ToR port buffers and, when its headroom fills, pauses *its* upstream
ports; congestion spreads backwards — a PFC storm whose visible symptom
is a high P99 network RTT toward the victim (Figure 8 right).

The default substrate models the storm's *effect* with a static pause
delay installed by the fault (enough for every headline experiment).
This engine is the mechanistic, opt-in alternative: it periodically
derives pause pressure from actual drain deficits and traffic, so the
storm emerges — and subsides — with the workload.  It holds its pressure
through ``cluster.holds``, on top of any a fault holds on the same port.

Model per evaluation tick:

1. victim detection: for each RNIC, ``deficit = inbound_demand -
   drain_capacity`` where drain is ``min(pcie_gbps, link_gbps)``;
2. a positive deficit pauses the ToR->RNIC link for
   ``deficit / inbound_demand`` of each second (pause duty), which the
   queue model sees as added delay;
3. one tier of backpressure: each upstream link feeding a paused port
   inherits a fraction of the pause duty proportional to how much of its
   traffic heads to the paused port.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sim.engine import PeriodicTask
from repro.sim.units import MILLISECOND

if TYPE_CHECKING:
    from repro.cluster import Cluster

# How much one-second pause duty converts to added per-packet delay.
# A fully paused port (duty 1.0) would add ~1 ms to every traversal.
PAUSE_DUTY_TO_DELAY_NS = 1_000_000
# Fraction of pause pressure inherited one tier upstream.
UPSTREAM_INHERITANCE = 0.5


def _press(pressure: dict[tuple[str, str], int], link: tuple[str, str],
           duty: float) -> None:
    """Add one victim's pause duty to a link's pressure this tick."""
    pressure[link] = (pressure.get(link, 0)
                      + round(duty * PAUSE_DUTY_TO_DELAY_NS))


@dataclass
class PauseState:
    """Current pause pressure on one directed link."""

    link_name: str
    duty: float               # fraction of time paused, [0, 1]
    source: str               # the victim RNIC that caused it


class PfcPropagationEngine:
    """Derives pause delays from drain deficits; opt-in substrate service."""

    def __init__(self, cluster: "Cluster", *,
                 tick_ns: int = 50 * MILLISECOND):
        self.cluster = cluster
        self.tick_ns = tick_ns
        self._task: PeriodicTask | None = None
        self._owner = cluster.holds.owner("pfc")
        self.pause_states: list[PauseState] = []

    def start(self) -> None:
        """Begin periodic evaluation."""
        if self._task is None:
            self._task = self.cluster.sim.every(self.tick_ns, self.evaluate)

    def stop(self) -> None:
        """Stop and release all of this engine's pause pressure."""
        if self._task is not None:
            self._task.stop()
            self._task = None
        self.cluster.holds.release(self._owner)
        self.pause_states = []

    # -- the model ----------------------------------------------------------------

    def _inbound_demand_gbps(self, rnic_name: str) -> float:
        """Offered load on the ToR->RNIC downlink (fluid traffic)."""
        tor = self.cluster.tor_of(rnic_name)
        return self.cluster.topology.link(tor, rnic_name).offered_load_gbps

    def evaluate(self) -> list[PauseState]:
        """One tick: recompute all of this engine's pause pressure."""
        was_storming = bool(self.pause_states)
        self.cluster.holds.release(self._owner)
        topo = self.cluster.topology
        states: list[PauseState] = []
        pressure: dict[tuple[str, str], int] = {}   # link -> this tick's ns

        for rnic in self.cluster.all_rnics():
            demand = self._inbound_demand_gbps(rnic.name)
            if demand <= 0:
                continue
            drain = min(rnic.pcie_gbps, rnic.link_gbps)
            deficit = demand - drain
            if deficit <= 0:
                continue
            duty = min(1.0, deficit / demand)
            tor = self.cluster.tor_of(rnic.name)
            _press(pressure, (tor, rnic.name), duty)
            states.append(PauseState(link_name=f"{tor}->{rnic.name}",
                                     duty=duty, source=rnic.name))

            # One tier of backpressure: upstream links feeding this ToR
            # inherit pressure proportional to their share of the ToR's
            # inbound traffic (approximated as uniform over active feeds).
            feeders = [n for n in topo.neighbors(tor)
                       if topo.nodes[n].is_switch]
            active = [n for n in feeders
                      if topo.link(n, tor).offered_load_gbps > 0]
            for feeder in active or feeders:
                share = duty * UPSTREAM_INHERITANCE / max(1, len(
                    active or feeders))
                _press(pressure, (feeder, tor), share)
                states.append(PauseState(link_name=f"{feeder}->{tor}",
                                         duty=share, source=rnic.name))
        for key, delay_ns in pressure.items():
            self.cluster.holds.hold(self._owner, topo.links[key],
                                    "pause_delay_ns", delay_ns)
        self.pause_states = states
        self._observe(states, was_storming)
        return states

    def _observe(self, states: list[PauseState],
                 was_storming: bool) -> None:
        """Feed pause pressure into the observability layer (repro.obs).

        One fabric-wide trace event per paused link per tick, plus storm
        onset/decay edges; probes traversing a paused link additionally
        carry ``pfc_pause_ns`` on their own ``fabric.hop`` span events.
        """
        obs = self.cluster.obs
        tracer = obs.tracer
        if tracer.enabled:
            now = self.cluster.sim.now
            if states and not was_storming:
                tracer.fabric_event(now, "pfc.storm_onset",
                                    victims=sorted({s.source
                                                    for s in states}))
            elif was_storming and not states:
                tracer.fabric_event(now, "pfc.storm_decay")
            for state in states:
                tracer.fabric_event(now, "pfc.pause", link=state.link_name,
                                    duty=round(state.duty, 6),
                                    source=state.source)
        if obs.metrics_enabled:
            obs.metrics.gauge("repro_pfc_paused_links").set(len(states))
            obs.metrics.gauge("repro_pfc_pause_duty_total").set(
                round(sum(s.duty for s in states), 9))
            if states:
                obs.metrics.counter("repro_pfc_pause_frames_total").inc(
                    len(states))

    # -- observability ---------------------------------------------------------------

    def storming(self) -> bool:
        """Whether any pause pressure currently exists."""
        return bool(self.pause_states)

    def victims(self) -> set[str]:
        """RNICs currently causing pause pressure."""
        return {s.source for s in self.pause_states}
