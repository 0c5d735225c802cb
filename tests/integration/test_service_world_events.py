"""A service world costs what a quiet world costs, and measures the same.

Service Tracing probes ride the job's own 5-tuples, i.e. the links the job
has loaded.  ``TrafficEngine.apply`` caps offered load at capacity and
installs a fixed standing queue, so such a hop's delay is a constant and
the fabric's walker looks ahead over it like over an idle one (DESIGN.md
§10): 5 events per probe, not one more per loaded hop.  No golden scenario
carries a service job (``congested`` is lossy, ``int_telemetry`` only ever
saturates), so the digest below — captured on the tree *before* loaded hops
were looked ahead over — is the one pin on a standing queue at
``offered == rate``.
"""

from repro.core.records import structural_digest
from repro.core.system import system_state
from repro.fleet.presets import SMALL
from repro.fleet.spec import build_world
from repro.services.dml import CommPattern, DmlConfig, DmlJob
from repro.sim.units import MILLISECOND, seconds

DIGEST_AT_11_S = (
    "801779aad3e137fda61ad4a766559a56e14c0bef57c507c77f88986ddf438376")


def test_loaded_hops_cost_no_event_and_change_no_measurement():
    cluster, system, _, _ = build_world(SMALL, seed=1)
    job = DmlJob(cluster, cluster.rnic_names()[:8],
                 DmlConfig(pattern=CommPattern.ALL2ALL,
                           compute_time_ns=400 * MILLISECOND,
                           data_gbits_per_cycle=6.0))
    system.attach_service_monitor(job)
    timeouts = []
    system.analyzer.add_upload_listener(
        lambda batch: timeouts.extend(r for r in batch.results if r.timeout))
    sim, fabric = cluster.sim, cluster.fabric
    system.run(seconds(1))
    job.start()
    sim.run_until(seconds(6))

    def tally():
        return (sim.events_processed,
                sum(a.probes_sent for a in system.agents.values()),
                fabric.hops_evaluated)

    before = tally()
    sim.run_until(seconds(11))
    events, probes, evaluated = (b - a for a, b in zip(before, tally()))

    assert probes > 4_000
    assert events / probes <= 5.5
    # The job's load is written capped, once: no queue here ever moves.
    assert not evaluated
    assert fabric.walker_demotions > 0      # the job's writes land mid-flight
    assert not timeouts and not job.task_failed
    assert structural_digest(system_state(system)) == DIGEST_AT_11_S
