"""Table 2: the 14 problem root causes found during deployment.

For every row we inject the corresponding fault and require:
  * detection within a few 20s analysis periods (the paper detects and
    locates within one period),
  * the right signal class — failures (rows 1-9) surface as timeouts;
    bottlenecks (rows 10-14) surface as high RTT / processing delay,
  * a new verdict that names the faulted component (``localized``) — for
    rows 9-12 too, whose faults share a device setting (link load, CPU
    load) with the DML service: the fault's dose composes with the job's
    instead of being overwritten by it,
  * the paper's (*) service-failure markers: with default (untuned)
    retransmission settings, rows 3-8 break the training task.
"""

import pytest
from conftest import print_comparison, run_once

from repro.experiments import tab02_catalog

ROWS = list(range(1, 15))


@pytest.mark.parametrize("row", ROWS)
def test_tab02_problem_row(benchmark, row):
    outcome = run_once(benchmark, tab02_catalog.run_row, row, fault_s=45)
    latency = (f"{outcome.detection_latency_s:.0f}s"
               if outcome.detection_latency_s is not None else "n/a")
    print_comparison(f"Table 2 row {row}: {outcome.root_cause}", [
        ("detected", "yes", str(outcome.detected)),
        ("localized", "yes", str(outcome.localized)),
        ("signal", outcome.expect_signal,
         str(sorted(c.value for c in outcome.categories))),
        ("service failure", str(outcome.expect_service_failure),
         str(outcome.service_failed)),
        ("detection latency", "~1 analysis period (20s)", latency),
    ])
    assert outcome.detected, f"row {row} not detected"
    assert outcome.signal_matches, (
        f"row {row}: expected {outcome.expect_signal}, "
        f"got {outcome.categories}")
    assert outcome.localized, f"row {row}: no verdict names the fault"
    assert outcome.service_failure_matches, (
        f"row {row}: service_failed={outcome.service_failed}, "
        f"expected {outcome.expect_service_failure}")
