"""Free-running clocks with offset and drift.

The paper's central measurement trick (§4.2.1) is that network RTT
``(⑤-②)-(④-③)`` and prober processing delay ``(⑥-①)-(⑤-②)`` need **no
clock synchronisation**: ②⑤⑥... wait — ②⑤ are on the prober RNIC clock,
③④ on the responder RNIC clock, ①⑥ on the prober host (CPU) clock, and
every subtraction pairs timestamps from the *same* clock.

To prove that property rather than assume it, every host and every RNIC in
the simulation owns an independent clock with a random offset (up to
seconds) and drift (tens of ppm).  If any formula accidentally mixed clocks,
measured RTTs would be off by the offsets and the unit tests would fail.
"""

from __future__ import annotations


class Clock:
    """A free-running clock: ``reading = offset + elapsed * (1 + drift)``."""

    def __init__(self, offset_ns: int = 0, drift_ppm: float = 0.0):
        self.offset_ns = offset_ns
        self.drift_ppm = drift_ppm
        # Elapsed-time scale, derived once: neither setting ever changes.
        self.rate = 1.0 + drift_ppm * 1e-6

    def read(self, sim_now_ns: int) -> int:
        """This clock's reading at true (simulation) time ``sim_now_ns``."""
        return self.offset_ns + round(sim_now_ns * self.rate)

    def __repr__(self) -> str:
        return f"Clock(offset={self.offset_ns}ns, drift={self.drift_ppm}ppm)"


def random_clock(rng, *, max_offset_s: float = 100.0,
                 max_drift_ppm: float = 50.0) -> Clock:
    """A clock with random offset/drift, as each device would really have."""
    offset = rng.randint(-int(max_offset_s * 1e9), int(max_offset_s * 1e9))
    drift = rng.uniform(-max_drift_ppm, max_drift_ppm)
    return Clock(offset_ns=offset, drift_ppm=drift)
