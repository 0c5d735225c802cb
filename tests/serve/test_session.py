"""ServeSession fault injection, below the HTTP layer."""

import pytest

from repro.serve import ServeSession, ServeSpec, parse_fault_spec

CORRUPT = "link_corruption@{}:pod0-tor0,pod0-agg0:drop_prob=0.5"


def _run_to(session: ServeSession, second: int) -> None:
    while session.ticks < second:
        session.tick()


class TestInjectIdentity:
    """One ``(kind, loci, params)`` is one refcounted fault, however it
    reached the session: two ``inject`` calls, or a spec campaign event
    followed by an ``/inject``."""

    @pytest.mark.parametrize("from_spec", [False, True],
                             ids=["inject-inject", "campaign-inject"])
    def test_overlapping_windows_share_one_fault(self, from_spec):
        first = parse_fault_spec(CORRUPT.format("0-5"))
        session = ServeSession(ServeSpec(
            seed=3, campaign=(first,) if from_spec else ()))
        if not from_spec:
            session.inject(first)
        session.inject(parse_fault_spec(CORRUPT.format("2-20")))
        link = session.cluster.topology.link("pod0-tor0", "pod0-agg0")
        assert session.status()["faults_registered"] == 1
        for second in (6, 19):      # past the first window's end
            _run_to(session, second)
            assert link.corruption_drop_prob == pytest.approx(0.5)
            assert session.faults.active_ground_truths()
        _run_to(session, 21)
        assert link.corruption_drop_prob == 0.0
        assert not session.faults.active_ground_truths()
