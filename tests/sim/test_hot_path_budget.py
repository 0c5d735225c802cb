"""The probe path's Python call budget.

Every probe is the Figure 4 exchange: a probe, ACK1 and ACK2 over quiet
hops, three receive completions, two CPU draws and a result.  What a
probe costs in wall time is, to first order, how many Python frames it
enters, so this pins that count: ``sys.setprofile`` counts every Python
``call`` event over 5 -> 10 s of ``SCENARIOS["quiet"]`` (seed 7) and
divides by the probes sent in the window.  The count is exact and
repeatable (no wall clock is read), so the budget is a plain bound: a
change that adds a frame per packet fails here, whatever the box's speed.

To re-measure after a change that legitimately moves the count::

    PYTHONPATH=src python tests/sim/test_hot_path_budget.py

and set ``BUDGET`` to the printed value, rounded up to the next 0.5.
"""

import sys

from repro.analysis.runtime import SCENARIOS
from repro.fleet.spec import build_world
from repro.sim.units import SECOND

#: Python frames entered per probe sent: 80.9 measured; 92.0 while events,
#: packets and transits were recycled through free lists, 182.7 before the
#: probe path was flattened (DESIGN.md §10 lists the call sites).
BUDGET = 81.0


def frames_per_probe(seed: int = 7) -> float:
    spec = SCENARIOS["quiet"]
    cluster, system, _, _ = build_world(
        spec.topology, seed, config=spec.config(), campaign=spec.campaign)
    system.run(5 * SECOND)
    agents = list(system.agents.values())
    sent = sum(agent.probes_sent for agent in agents)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        cluster.sim.run_until(10 * SECOND)
    finally:
        sys.setprofile(None)
    probes = sum(agent.probes_sent for agent in agents) - sent
    return calls / probes


def test_probe_path_stays_within_its_call_budget():
    measured = frames_per_probe()
    assert measured <= BUDGET, (
        f"{measured:.1f} Python frames per probe, budget {BUDGET}: a call "
        f"per packet crept back onto the probe path")


if __name__ == "__main__":
    print(f"{frames_per_probe():.1f} Python frames per probe")
