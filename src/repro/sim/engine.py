"""Deterministic discrete-event simulation engine.

Components schedule callbacks at absolute or relative times; the engine pops
events in (time, sequence) order so simultaneous events run in the order they
were scheduled, which makes every run bit-for-bit reproducible for a given
seed.

Design notes
------------
* Callbacks, not coroutines.  A callback scheduler is both faster and easier
  to reason about for the probe/respond/analyze loops this package runs, and
  it avoids the generator-trampoline machinery of a process-based kernel.
* One binary heap inside :class:`Simulator` is the event queue.  With the
  fabric and host adding quiet steps up ahead of the clock, a probe costs
  about five events and the queue holds a few hundred entries (about nine
  heap levels), so no bucketing scheme pays for itself.  Entries are
  ``(time, seq, event)`` tuples so heap comparisons run on ints at C speed,
  and ``call_at``, ``schedule`` and the drain loop push and pop it
  themselves: an event pays for its two heap operations, not for the calls
  around them.  ``now`` is a plain attribute only the loop writes.
* Events can be cancelled.  Cancellation is O(1): the handle is flagged and
  skipped when popped (lazy deletion).  When cancelled events outnumber live
  ones the heap compacts, so mass-cancel workloads cannot bloat it.
* An event is its own handle: one plain slotted object, built where it is
  queued (``__new__`` plus slot writes, no constructor frame) and left to
  the garbage collector.  Popping or sweeping it clears its callback, which
  is what makes a late :meth:`EventHandle.cancel` inert.
* Periodic tasks are first-class because almost everything in R-Pingmesh is
  periodic: probing threads, pinglist refreshes, analysis periods.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Callable, Optional

from repro.sim.ledger import Ledger

#: Sentinel horizon for run_all, and run_until's event cap: beyond any
#: schedulable time or event count.
_FAR_FUTURE = 1 << 62


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine."""


class InvariantViolation(SimulationError):
    """Raised by ``Simulator(check_invariants=True)`` on a broken invariant.

    A subclass of :class:`SimulationError` so existing error handling keeps
    working; the distinct type lets the replay harness and tests assert the
    failure came from the invariant layer rather than ordinary misuse.
    """


class EventHandle:
    """A scheduled callback, and the handle to cancel it by.

    The engine builds one per :meth:`Simulator.call_at` or
    :meth:`Simulator.schedule` with ``__new__`` and slot writes; only a
    ``call_at`` event leaves the engine, so only it carries ``sim``.
    ``callback`` is cleared once the event is popped or swept: a cancel
    after that only sets ``cancelled``.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "sim")

    def __init__(self, time: int, seq: int,
                 callback: Optional[Callable[[], None]] = None,
                 sim: Optional["Simulator"] = None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.sim = sim

    def __lt__(self, other: "EventHandle") -> bool:
        # Queue entries are (time, seq, event) tuples, so this only runs on
        # an exact (time, seq) tie — impossible for engine-issued events
        # (seqs are unique) but reachable by white-box tests that smuggle
        # hand-built events in.
        return (self.time, self.seq) < (other.time, other.seq)

    def cancel(self) -> None:
        """Prevent the event from running.  Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.callback is not None:
            sim = self.sim
            sim._cancelled += 1
            # Sweep once cancelled entries pass 64 and outnumber live ones.
            if (sim._cancelled > 64
                    and 2 * sim._cancelled > len(sim._event_heap)):
                sim._compact()


_new_event = EventHandle.__new__


class PeriodicTask:
    """A callback re-armed at a fixed interval until stopped.

    The callback may inspect :attr:`runs` (number of completed firings) and
    may call :meth:`stop` from inside itself to terminate the cycle.

    Each task draws its jitter from a stream of its own, seeded from the
    simulator seed and the task's creation ordinal: what one task draws —
    or whether it runs at all — never shifts another task's firing times,
    so a task can be stopped while idle and restarted when there is work.
    """

    def __init__(self, sim: "Simulator", interval: int,
                 callback: Callable[[], None], *, jitter: int = 0):
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._jitter = jitter
        self._jitter_state = sim._next_jitter_seed()
        self._stopped = True          # until start()
        self._handle: Optional[EventHandle] = None
        self.runs = 0

    @property
    def interval(self) -> int:
        """Current re-arm interval in nanoseconds."""
        return self._interval

    @property
    def stopped(self) -> bool:
        """Whether the task is stopped (or was never started)."""
        return self._stopped

    def set_interval(self, interval: int) -> None:
        """Change the interval used for subsequent firings."""
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        self._interval = interval

    def start(self, *, delay: Optional[int] = None) -> "PeriodicTask":
        """Arm the first firing ``delay`` ns from now (default: one interval).

        Also restarts a stopped task; any still-pending firing is cancelled
        first so the task never ends up double-armed.
        """
        self._stopped = False
        if self._handle is not None:
            self._handle.cancel()
        first = self._interval if delay is None else delay
        self._handle = self._sim.call_later(first, self._fire)
        return self

    def stop(self) -> None:
        """Stop the cycle; a pending firing is cancelled."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        self.runs += 1
        if self._stopped:  # callback may have stopped us
            return
        delay = self._interval
        if self._jitter:
            # Deterministic LCG step, decoupled from component RNGs.
            self._jitter_state = state = (
                self._jitter_state * 1103515245 + 12345) & 0x7FFFFFFF
            delay += state % self._jitter
        sim = self._sim
        self._handle = sim.call_at(sim.now + max(1, delay), self._fire)


class Simulator:
    """The event loop.

    A single :class:`Simulator` owns simulated time for one scenario.  All
    substrate objects (fabric, hosts, RNICs) and R-Pingmesh modules hold a
    reference to the same simulator.
    """

    def __init__(self, *, seed: int = 0, check_invariants: bool = False):
        # The future-event set, popped in exact (time, seq) order.  A push
        # behind the clock (only white-box tests smuggle one) sorts first.
        self._event_heap: list[tuple[int, int, EventHandle]] = []
        self._cancelled = 0           # cancelled but still queued
        self._seq = itertools.count()
        #: Simulation time in ns; only the event loop and run_until write it.
        self.now = 0
        self._running = False
        self.seed = seed
        # PeriodicTasks created so far: the ordinal that seeds each one's
        # private jitter stream.
        self._tasks_created = 0
        self.events_processed = 0
        # Opt-in runtime invariant checking (detlint --check-invariants):
        # asserts the popped-event clock never moves backwards, i.e. no
        # event was smuggled into the past around call_at's guard.
        self.check_invariants = check_invariants
        # Opt-in profiler (repro.obs.SimProfiler): when set, popped events
        # are executed through it so host wall time can be attributed per
        # callback site.  The profiler only *observes* — it never schedules,
        # draws randomness, or feeds wall time back into sim state, so
        # installing one cannot change replay digests.
        self._profiler = None
        # Who planned ahead of the clock over what (repro.sim.ledger).
        self.ledger = Ledger()

    def set_profiler(self, profiler) -> None:
        """Install (or, with None, remove) an event profiler."""
        self._profiler = profiler

    @property
    def profiler(self):
        """The installed event profiler, if any."""
        return self._profiler

    def call_at(self, time: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {self.now}")
        event = _new_event(EventHandle)
        event.time = time
        event.seq = seq = next(self._seq)
        event.callback = callback
        event.cancelled = False
        event.sim = self
        heappush(self._event_heap, (time, seq, event))
        return event

    def call_later(self, delay: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.call_at(self.now + delay, callback)

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Fire-and-forget :meth:`call_later`: no cancellation handle.

        Hot-path variant for callers that never cancel (packet hops, wire
        departures).  Scheduling order — and therefore replay behaviour —
        is identical to ``call_later``; the event just never leaves the
        engine.
        """
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        time = self.now + delay
        seq = next(self._seq)
        event = _new_event(EventHandle)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.cancelled = False
        heappush(self._event_heap, (time, seq, event))

    def every(self, interval: int, callback: Callable[[], None], *,
              delay: Optional[int] = None, jitter: int = 0) -> PeriodicTask:
        """Create and start a :class:`PeriodicTask`."""
        return PeriodicTask(self, interval, callback, jitter=jitter).start(delay=delay)

    def _compact(self) -> None:
        """Drop cancelled entries (lazy-deletion sweep).

        Run from :meth:`EventHandle.cancel` once cancelled entries outnumber
        live ones.  A swept event is retired like a popped one.
        """
        heap = self._event_heap
        live = []
        for entry in heap:
            if entry[2].cancelled:
                entry[2].callback = None
            else:
                live.append(entry)
        heap[:] = live
        heapify(heap)
        self._cancelled = 0

    def _drain(self, limit_time: int, max_events: int = _FAR_FUTURE) -> None:
        """The single pop/execute loop behind run_until and run_all.

        Keeping one copy means the invariant check and the profiler hook
        cannot drift apart between the two entry points.  Each popped event
        is retired (its callback cleared) before the callback runs.
        """
        heap = self._event_heap
        check = self.check_invariants
        stop = self.events_processed + max_events
        while heap and heap[0][0] <= limit_time:
            event = heappop(heap)[2]
            time = event.time
            callback = event.callback
            cancelled = event.cancelled
            if cancelled:
                self._cancelled -= 1
            elif check and time < self.now:
                raise InvariantViolation(
                    f"event scheduled before current sim time: "
                    f"{time} < now {self.now}")
            event.callback = None
            if cancelled:
                continue
            self.now = time
            profiler = self._profiler
            if profiler is None:
                callback()
            else:
                profiler.run(callback)
            self.events_processed += 1
            if self.events_processed >= stop:
                raise SimulationError(
                    f"run_all exceeded {max_events} events; runaway schedule?")

    def run_until(self, time: int) -> None:
        """Process events until simulated time reaches ``time``.

        The clock is always advanced to ``time`` even if the queue drains
        early, so back-to-back ``run_until`` calls observe contiguous time.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot run backwards: {time} < now {self.now}")
        if self._running:
            raise SimulationError("run_until called re-entrantly")
        self._running = True
        try:
            self._drain(time)
            self.now = time
        finally:
            self._running = False

    def run_for(self, duration: int) -> None:
        """Process events for ``duration`` ns of simulated time."""
        self.run_until(self.now + duration)

    def run_all(self, *, limit: int = 50_000_000) -> None:
        """Drain the event queue completely (bounded by ``limit`` events)."""
        if self._running:
            raise SimulationError("run_all called re-entrantly")
        self._running = True
        try:
            self._drain(_FAR_FUTURE, max_events=limit)
        finally:
            self._running = False

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._event_heap) - self._cancelled

    def _next_jitter_seed(self) -> int:
        """Seed of the next PeriodicTask's private jitter stream."""
        self._tasks_created += 1
        return (self.seed * 2654435761
                + self._tasks_created * 0x9E3779B1) & 0xFFFFFFFF
