"""Switch-network problem localisation — Algorithm 1 (paper §4.3.3).

Given the traced paths of anomalous probes (and their ACKs), vote on every
directed link traversed; links with the most votes are the most suspicious.
The idea is binary network tomography: the common element of many bad paths
is the likely culprit.  Replacing links with switches gives the switch
variant (paper footnote 5).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterable, Optional

from repro.net.traceroute import PathRecord


@dataclass
class Localization:
    """Voting outcome: the arg-max set plus the full tally."""

    suspects: list[str] = field(default_factory=list)
    votes: Counter = field(default_factory=Counter)
    paths_considered: int = 0

    @classmethod
    def from_votes(cls, votes: Counter,
                   paths_considered: int) -> "Localization":
        """The arg-max of a vote tally (no suspects when nothing voted).

        Votes are additive over disjoint path sets, so a tally summed
        from several partial ones localises exactly as one vote over
        the union would.
        """
        if not votes:
            return cls(paths_considered=paths_considered)
        best = max(votes.values())
        suspects = sorted(name for name, count in votes.items()
                          if count == best)
        return cls(suspects=suspects, votes=votes,
                   paths_considered=paths_considered)

    @property
    def confident(self) -> bool:
        """A unique arg-max is a far stronger signal than a tie."""
        return len(self.suspects) == 1

    def top(self, n: int = 5) -> list[tuple[str, int]]:
        """The n most-voted elements."""
        return self.votes.most_common(n)


def vote(weighted: Iterable[tuple[PathRecord, int]]) -> Localization:
    """Algorithm 1's one core: vote per directed link, weighted.

    Each ``(record, times)`` stands for ``times`` paths along the record's
    hops.  A window's anomalies share few distinct routes (an Agent hands
    every result of a 5-tuple the same record, and the Analyzer groups
    timeouts into flows), so each distinct hop sequence votes once,
    weighted by how many paths took it.  Links enter the tally in the
    order their first route was met, as one vote per path would put them.
    """
    routes: dict[tuple, list] = {}      # hops -> [a record, paths seen]
    paths = 0
    for path, times in weighted:
        paths += times
        route = routes.get(path.hops)
        if route is None:
            routes[path.hops] = [path, times]
        else:
            route[1] += times
    votes: dict[str, int] = {}
    for path, times in routes.values():
        for link_name in path.link_names:
            votes[link_name] = votes.get(link_name, 0) + times
    return Localization.from_votes(Counter(votes), paths)


def detect_abnormal_links(paths: list[PathRecord]) -> Localization:
    """Algorithm 1: vote per directed link, return the arg-max.

    Unknown hops (rate-limited traceroute responders) contribute no links
    across the gap, which only lowers a suspect's tally — never creates a
    false vote.
    """
    return vote(zip(paths, repeat(1)))


def detect_abnormal_switches(paths: list[PathRecord]) -> Localization:
    """Footnote-5 variant: vote per switch instead of per link."""
    votes: Counter = Counter()
    considered = 0
    for path in paths:
        considered += 1
        for switch in path.known_switches():
            votes[switch] += 1
    return Localization.from_votes(votes, considered)


def localize(probe_paths: list[Optional[PathRecord]],
             ack_paths: list[Optional[PathRecord]]) -> Localization:
    """Vote over both directions of every anomalous probe (§4.3.3).

    The probe may have died on the forward path or its ACK on the reverse
    path; Analyzer traverses "the paths of these probes and their ACKs one
    by one", so both directions vote.
    """
    return detect_abnormal_links(
        [p for p in chain(probe_paths, ack_paths) if p is not None])
