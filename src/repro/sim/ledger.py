"""The take-back ledger: every write that can stale a plan takes one path.

The fabric's walker and each RNIC plan ahead of the clock (DESIGN.md §10),
exact by one rule: **before a write lands on anything a plan read, the plan
is taken back; then the write; then what reads it is re-derived.**  Tie
rule: a write at the nanosecond a planned step is due applies to it (write
first), as the per-event paths did: every writer in the tree queues long
before a step that exists for microseconds.  Each planner files its
take-back once, under the scope it reads: the fabric under its ``Topology``
(written by the ``DirectedLink`` knobs, ``LinkPair``, ``Acl.deny_rules``,
``Topology.invalidate_routes`` and the ``Fabric``'s switches), an RNIC
under itself (its settings, ``destroy_qp``, ``Host.up``).  DESIGN.md §10
tabulates the hooked writes; ``tests/sim/test_ledger.py`` makes each.
Nothing here runs per packet.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Optional


class Ledger:
    """One world's take-backs, each filed under the scope its planner read."""

    __slots__ = ("_take_backs",)

    def __init__(self) -> None:
        self._take_backs: dict[Any, Callable[[], None]] = {}

    def register(self, scope: Any, take_back: Callable[[], None]) -> None:
        """File ``take_back`` under ``scope``, replacing any filed before."""
        self._take_backs[scope] = take_back

    def notify(self, scope: Any) -> None:
        """A write inside ``scope`` is about to land: take back its plans."""
        take_back = self._take_backs.get(scope)
        if take_back is not None:
            take_back()


def hooked(slot: str, scopes: Callable[[Any], Any],
           settle: Optional[Callable[[Any], None]], *,
           every_write: bool = False, doc: Optional[str] = None) -> property:
    """A setting planners read, stored in ``slot`` and read as a plain
    attribute.  A write that changes it (any, with ``every_write``) first
    notifies each ``(ledger, scope)`` of ``scopes(device)``, then stores it,
    then ``settle(device)`` re-derives what reads it."""
    def write(device: Any, value: Any) -> None:
        if not every_write and getattr(device, slot) == value:
            return
        for ledger, scope in scopes(device):
            ledger.notify(scope)
        setattr(device, slot, value)
        if settle is not None:
            settle(device)
    return property(attrgetter(slot), write, doc=doc)
