"""Unit tests for Algorithm 1 (vote-based localisation)."""

from collections import Counter

from hypothesis import given, strategies as st

from repro.core.localization import (Localization, detect_abnormal_links,
                                     detect_abnormal_switches, localize, vote)
from repro.net.addresses import roce_five_tuple
from repro.net.traceroute import PathRecord


def record(*hops, reached=True):
    return PathRecord(five_tuple=roce_five_tuple("a", "b", 1000),
                      traced_at_ns=0, hops=tuple(hops), reached=reached)


class TestLinkVoting:
    def test_common_link_wins(self):
        paths = [
            record("h1", "s1", "s2", "h2"),
            record("h3", "s1", "s2", "h4"),
            record("h5", "s1", "s2", "h6"),
        ]
        result = detect_abnormal_links(paths)
        assert result.suspects == ["s1->s2"]
        assert result.votes["s1->s2"] == 3
        assert result.confident

    def test_tie_reports_all(self):
        paths = [record("h1", "s1", "h2")]
        result = detect_abnormal_links(paths)
        assert set(result.suspects) == {"h1->s1", "s1->h2"}
        assert not result.confident

    def test_empty_paths(self):
        result = detect_abnormal_links([])
        assert result.suspects == []
        assert result.paths_considered == 0

    def test_unknown_hops_contribute_no_votes(self):
        paths = [
            record("h1", None, "s2", "h2"),
            record("h3", "s1", "s2", "h4"),
        ]
        result = detect_abnormal_links(paths)
        # The h1->? and ?->s2 links are unknowable; s2->h2 etc. get 1 vote
        # each, s1->s2 gets 1 — no false certainty.
        assert result.votes["s2->h2"] == 1
        assert ("h1->s2" not in result.votes)

    def test_votes_per_direction(self):
        paths = [
            record("h1", "s1", "s2", "h2"),
            record("h2", "s2", "s1", "h1"),
        ]
        result = detect_abnormal_links(paths)
        assert result.votes["s1->s2"] == 1
        assert result.votes["s2->s1"] == 1

    def test_top_listing(self):
        paths = [record("h1", "s1", "s2", "h2")] * 3 \
            + [record("h9", "s9", "h8")]
        result = detect_abnormal_links(paths)
        top = result.top(2)
        assert top[0][1] == 3


class TestSwitchVoting:
    def test_common_switch_wins(self):
        paths = [
            record("h1", "s1", "sX", "s2", "h2"),
            record("h3", "s3", "sX", "s4", "h4"),
            record("h5", "s5", "sX", "s6", "h6"),
        ]
        result = detect_abnormal_switches(paths)
        assert result.suspects == ["sX"]

    def test_endpoints_not_counted_as_switches(self):
        paths = [record("h1", "s1", "h2"), record("h1", "s2", "h3")]
        result = detect_abnormal_switches(paths)
        assert "h1" not in result.votes


class TestLocalize:
    def test_combines_probe_and_ack_paths(self):
        probe_paths = [record("h1", "s1", "s2", "h2")]
        ack_paths = [record("h2", "s2", "s1", "h1")]
        result = localize(probe_paths, ack_paths)
        assert result.paths_considered == 2

    def test_none_paths_skipped(self):
        result = localize([None, record("h1", "s1", "h2")], [None])
        assert result.paths_considered == 1

    def test_guilty_link_dominates_mixed_traffic(self):
        """Paths through the bad link + unrelated victim noise."""
        bad = [record("h1", "s1", "sBAD", "s2", "h2"),
               record("h3", "s3", "sBAD", "s2", "h4"),
               record("h5", "s1", "sBAD", "s2", "h6")]
        result = detect_abnormal_links(bad)
        assert result.suspects == ["sBAD->s2"]


@given(st.lists(
    st.lists(st.sampled_from(["s1", "s2", "s3", "s4"]),
             min_size=2, max_size=4),
    min_size=1, max_size=20))
def test_votes_equal_link_occurrences(hop_lists):
    paths = [record("src", *hops, "dst") for hops in hop_lists]
    result = detect_abnormal_links(paths)
    total_links = sum(len(h) + 1 for h in hop_lists)
    assert sum(result.votes.values()) == total_links
    if result.votes:
        best = max(result.votes.values())
        assert all(result.votes[s] == best for s in result.suspects)


# Probes as (probe path, ACK path) hop lists with rate-limited (None) hops
# and missing ACK traces, each tagged with the part it lands in.
_HOPS = st.lists(st.sampled_from(["s1", "s2", "s3", "s4", None]),
                 min_size=1, max_size=4)
_PROBES = st.lists(
    st.tuples(_HOPS, st.none() | _HOPS, st.integers(0, 3)),
    max_size=24)


@given(_PROBES)
def test_summed_part_tallies_localize_like_one_vote_over_the_union(probes):
    """The algebra Analyzer.conclude rests on: Algorithm-1 votes are
    additive over disjoint parts, so summing per-part Counters and taking
    the arg-max equals one ``localize`` over all the paths."""
    def run(subset):
        return localize(
            [record("src", *p, "dst") for p, _, _ in subset],
            [None if a is None else record("dst", *a, "src")
             for _, a, _ in subset])

    whole = run(probes)
    votes, paths = Counter(), 0
    for part in range(4):
        tally = run([p for p in probes if p[2] == part])
        votes.update(tally.votes)
        paths += tally.paths_considered
    merged = Localization.from_votes(votes, paths)
    assert merged.votes == whole.votes
    assert merged.paths_considered == whole.paths_considered
    assert merged.suspects == whole.suspects


@given(st.lists(st.tuples(_HOPS, st.integers(1, 4)), max_size=16))
def test_a_weighted_vote_is_that_many_paths(weighted):
    """``vote`` weighs a record as ``times`` paths along it: its tally, in
    insertion order, is one vote per path per known link over the
    expanded list, and so are the paths it counts."""
    records = [(record("src", *hops, "dst"), times)
               for hops, times in weighted]
    expected = Counter()
    for path, times in records:
        for _ in range(times):
            for a, b in path.known_links():
                expected[f"{a}->{b}"] += 1
    result = vote(records)
    assert list(result.votes.items()) == list(expected.items())
    assert result.paths_considered == sum(t for _, t in records)
    assert result.suspects == Localization.from_votes(expected, 0).suspects
