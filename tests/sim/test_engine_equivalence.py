"""The Simulator's event heap, checked against the sorted set of live events.

The engine's queue is one binary heap of ``(time, seq, event)`` entries
inside :class:`~repro.sim.engine.Simulator`, with lazy deletion.  Its
contract is *exact* pop order, so this harness drives a real Simulator with
scripted and randomized, seeded operation streams — ``call_at`` and
``schedule`` pushes, handle cancels, ``run_until`` pops — and checks every
pop against the
sorted live ``(time, seq)`` set: what the script has pushed and neither
cancelled nor seen fire.  Checked at every step:

* pops in exact (time, seq) order, including same-timestamp ties;
* lazy-deleted (cancelled) entries never fire;
* cancel-after-fire is harmless;
* pushes *behind* the clock (the white-box replay-test path) still pop,
  and in the right order;
* live and queued counts agree after every operation, including across
  compaction;
* every event cancelled while queued leaves exactly once — popped as
  cancelled, or swept by a compaction — and a departed event is retired
  (its callback cleared), so a late cancel cannot touch the accounting.
"""

import random
from heapq import heappush

from repro.sim.engine import EventHandle, Simulator


class _Harness:
    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.sim = Simulator(seed=seed)
        self.seq = 0          # the engine's next sequence number
        self.live = {}        # (time, seq) -> handle (None: schedule()d)
        self.cancelled = []   # seqs cancelled while queued
        self.fired = []       # (time, seq) in firing order
        self.popped = []      # handles that fired, for cancel-after-fire

    def _callback(self, key):
        return lambda: self.fired.append(key)

    def push(self, time, *, handle=True):
        """Queue an event at ``time``: by ``call_at`` (or, with no
        ``handle``, ``schedule``), or behind the clock by hand."""
        sim = self.sim
        key = (time, self.seq)
        self.seq += 1
        callback = self._callback(key)
        if time < sim.now:
            # Smuggle the entry past call_at's guard.
            queued = EventHandle(time, next(sim._seq), callback, sim)
            heappush(sim._event_heap, (time, queued.seq, queued))
        elif handle:
            queued = sim.call_at(time, callback)
        else:
            sim.schedule(time - sim.now, callback)
            queued = None
        assert queued is None or queued.seq == key[1]
        self.live[key] = queued
        return queued

    def cancel(self, handle):
        """What ``EventHandle.cancel`` does to a still-queued event."""
        del self.live[(handle.time, handle.seq)]
        self.cancelled.append(handle.seq)
        handle.cancel()
        self.check_counts()

    def cancel_random_queued(self):
        handles = [handle for handle in self.live.values() if handle]
        if handles:
            self.cancel(self.rng.choice(handles))

    def cancel_random_fired(self):
        """Cancel-after-fire: a stale handle on an already-fired event.

        The event was retired when it fired (its callback cleared), so
        nothing at all may change.
        """
        if self.popped:
            self.rng.choice(self.popped).cancel()
            self.check_counts()

    def pop_until(self, limit):
        """Run to ``limit``; what fires must be the sorted live set."""
        expected = sorted(key for key in self.live if key[0] <= limit)
        start = len(self.fired)
        self.sim.run_until(max(limit, self.sim.now))
        out = self.fired[start:]
        for key in out:
            handle = self.live.pop(key)
            if handle:
                assert handle.callback is None      # retired as it fired
                self.popped.append(handle)
        assert out == expected
        self.check_counts()
        return out

    def queued_cancelled(self):
        """Seqs of the cancelled events still in the heap."""
        return [event.seq for _, _, event in self.sim._event_heap
                if event.cancelled]

    def check_counts(self):
        sim = self.sim
        assert sim.pending() == len(self.live)
        queued = self.queued_cancelled()
        assert len(set(queued)) == len(queued), (
            "a cancelled event is queued twice")
        assert set(queued) <= set(self.cancelled)
        assert sim._cancelled == len(queued)
        assert len(sim._event_heap) == len(self.live) + len(queued)
        # Nothing retired is still queued.
        assert all(event.callback is not None
                   for _, _, event in sim._event_heap)


def _run_random_schedule(seed, steps):
    h = _Harness(seed)
    rng = h.rng
    for _ in range(steps):
        op = rng.random()
        if op < 0.55:
            # Mostly future pushes; deliberately coarse times so exact
            # (time, seq) ties occur all the time.
            h.push(h.sim.now + rng.randrange(0, 2000, 100),
                   handle=rng.random() < 0.6)
        elif op < 0.65 and h.sim.now > 0:
            # Push behind the clock (white-box path).
            h.push(rng.randrange(0, h.sim.now))
        elif op < 0.80:
            h.cancel_random_queued()
        elif op < 0.85:
            h.cancel_random_fired()
        else:
            h.pop_until(h.sim.now + rng.randrange(0, 3000, 250))
    h.pop_until(1 << 61)  # drain
    assert not h.sim._event_heap and not h.live
    assert h.sim._cancelled == 0


def test_randomized_schedules_match_sorted_live_set():
    for seed in range(12):
        _run_random_schedule(seed, steps=400)


def test_same_timestamp_ties_pop_in_seq_order():
    h = _Harness(0)
    for n in range(50):
        h.push(1000, handle=n % 3 != 0)
    assert h.pop_until(1000) == [(1000, seq) for seq in range(50)]


def test_cancel_after_fire_touches_no_accounting():
    h = _Harness(3)
    first = h.push(100)
    h.push(200)
    assert h.pop_until(100) == [(100, 0)]
    first.cancel()                  # stale: the event was retired
    assert first.callback is None
    h.check_counts()
    h.push(150)
    assert h.pop_until(1 << 61) == [(150, 2), (200, 1)]


def test_mass_cancel_triggers_compaction_and_order_survives():
    h = _Harness(1)
    handles = [h.push(t) for t in range(0, 20000, 7)]
    # Cancel enough to trip the compaction threshold (>64 and > live).
    for handle in handles[: (3 * len(handles)) // 4]:
        h.cancel(handle)
    # A sweep ran and physically dropped entries, retiring each.
    assert len(h.sim._event_heap) < len(handles)
    assert any(handle.callback is None for handle in handles)
    survivors = h.pop_until(1 << 61)
    assert survivors == [(t, seq) for seq, t in enumerate(range(0, 20000, 7))
                         if seq >= (3 * len(handles)) // 4]


def test_compaction_retires_every_swept_event():
    h = _Harness(4)
    handles = [h.push(t) for t in range(200)]
    doomed = handles[::2] + [handles[1]]
    for handle in doomed[:-1]:
        h.cancel(handle)
    # 100 cancelled, 100 live: no sweep.
    assert len(h.queued_cancelled()) == 100
    h.cancel(doomed[-1])               # 101 > 99: the sweep runs
    assert not h.queued_cancelled()
    assert all(handle.callback is None for handle in doomed)
    assert len(h.sim._event_heap) == h.sim.pending() == 99
    expected = sorted(h.live)
    assert h.pop_until(1 << 61) == expected
    assert all(handle.callback is None for handle in handles)


def test_interleaved_past_and_future_pushes_keep_exact_order():
    h = _Harness(2)
    h.push(5000)
    h.push(100)
    assert h.pop_until(200) == [(100, 1)]
    # These land before the queued 5000...
    h.push(300)
    h.push(300)
    # ...and this one behind the clock is fine too:
    h.push(50)
    assert h.pop_until(1 << 61) == [(50, 4), (300, 2), (300, 3), (5000, 0)]
