"""Host CPU model: load-dependent processing delay and agent starvation.

Two behaviours of the paper hinge on the CPU model:

* **Figure 2 / Figure 8 (left)** — software-timestamped latency (the TCP
  Pingmesh baseline) and the responder's end-host processing delay both grow
  with host load.  We use an M/M/1-style inflation ``base / (1 - load)``
  plus log-normal noise, which produces the long right tail real schedulers
  show.
* **Figure 6 (right)** — when the service occupies the Agent's CPU, the
  Agent's responder thread stalls for milliseconds at a time, so probes to
  *every* RNIC of the host time out simultaneously and look like drops.
  The ``stall`` interface models those scheduling gaps.
"""

from __future__ import annotations

from repro.sim.rng import RngStream
from repro.sim.units import MILLISECOND, MICROSECOND

# Load above which the host starts starving background daemons like Agent.
STARVATION_LOAD = 0.90
# Load above which run-queue contention produces latency spikes.
SPIKE_LOAD = 0.75


class CpuModel:
    """Load-dependent processing-delay generator for one host."""

    def __init__(self, rng: RngStream, *, base_delay_ns: int = 5 * MICROSECOND,
                 noise_sigma: float = 0.30):
        if base_delay_ns <= 0:
            raise ValueError("base delay must be positive")
        self.rng = rng
        self.base_delay_ns = base_delay_ns
        self.noise_sigma = noise_sigma
        self._load = 0.10
        #: Whether the host is loaded enough to starve the Agent (derived
        #: by ``set_load``, the one write of the load).
        self.overloaded = False
        self._stall_until_ns = 0
        self._next_stall_check_ns = 0

    @property
    def load(self) -> float:
        """Current average CPU load in [0, 1)."""
        return self._load

    def set_load(self, load: float) -> None:
        """Set the average CPU load (clamped to [0, 0.99])."""
        self._load = min(max(load, 0.0), 0.99)
        self.overloaded = self._load >= STARVATION_LOAD

    def processing_delay_ns(self) -> int:
        """Delay the CPU adds to one userspace handling step.

        Two regimes, matching how real schedulers behave:

        * M/M/1 inflation with multiplicative log-normal noise — a few
          microseconds at 10% load, tens at high load;
        * above ``SPIKE_LOAD``, run-queue contention adds occasional
          hundreds-of-microseconds spikes, which is what Figure 8 (left)
          shows as "high processing delay" on overloaded hosts.
        """
        inflation = 1.0 / (1.0 - self._load)
        noise = self.rng.lognormal(0.0, self.noise_sigma)
        delay = self.base_delay_ns * inflation * noise
        if self._load >= SPIKE_LOAD:
            spike_prob = 0.4 * (self._load - SPIKE_LOAD) / (1.0 - SPIKE_LOAD)
            if self.rng.chance(spike_prob):
                delay += self.rng.uniform(200.0, 1200.0) * MICROSECOND
        return max(1, round(delay))

    def starvation_stall_ns(self, now_ns: int) -> int:
        """Remaining Agent scheduling stall at ``now_ns`` (0 if running).

        When the service occupies the Agent CPU, the whole Agent process
        occasionally does not get scheduled for longer than the probe
        timeout.  Stalls are *windows in time*, so during one stall the
        responder threads of every RNIC on the host are frozen together —
        probes to all of the host's RNICs appear dropped at once, the
        Figure 6 (right) false-positive signature.
        """
        if now_ns < self._stall_until_ns:
            return self._stall_until_ns - now_ns
        if not self.overloaded:
            return 0
        if now_ns < self._next_stall_check_ns:
            return 0
        # The further past the starvation threshold, the likelier a stall.
        over = (self._load - STARVATION_LOAD) / (1.0 - STARVATION_LOAD)
        self._next_stall_check_ns = now_ns + 100 * MILLISECOND
        if not self.rng.chance(0.10 + 0.5 * over):
            return 0
        stall = round(self.rng.uniform(600.0, 2000.0) * MILLISECOND)
        self._stall_until_ns = now_ns + stall
        return stall
