"""The event queue, checked against the sorted set of live events.

The engine's queue is one binary heap of ``(time, seq, event)`` entries
with lazy deletion.  Its contract is *exact* pop order, so this harness
drives it with scripted and randomized, seeded operation streams and checks
every pop against the sorted live ``(time, seq)`` set: what the script has
pushed and neither cancelled nor seen popped.  Checked at every step:

* pops in exact (time, seq) order, including same-timestamp ties;
* lazy-deleted (cancelled) entries never surface as live pops;
* cancel-after-fire is harmless;
* pushes *behind* the last pop (the white-box replay-test path) still pop,
  and in the right order;
* live and queued counts agree after every operation, including across
  compaction;
* every event cancelled while queued leaves exactly once: popped as
  cancelled, or handed to ``on_swept`` by a compaction.
"""

import random

from repro.sim.engine import EventQueue, _Event


class _Harness:
    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.swept = []
        self.queue = EventQueue(on_swept=self.swept.append)
        self.seq = 0
        self.now = 0
        self.live = {}        # (time, seq) -> event, queued and not cancelled
        self.cancelled = []   # events cancelled while queued
        self.skipped = []     # cancelled events popped (lazy deletion)
        self.popped = []      # events popped live, for cancel-after-fire

    def push(self, time):
        event = _Event(time, self.seq)
        self.seq += 1
        self.queue.push(event)
        self.live[(time, event.seq)] = event
        return event

    def cancel(self, event):
        """What ``EventHandle.cancel`` does to a still-queued event."""
        event.cancelled = True
        del self.live[(event.time, event.seq)]
        self.cancelled.append(event)
        self.queue.note_cancel()
        self.check_counts()

    def cancel_random_queued(self):
        if self.live:
            self.cancel(self.rng.choice(list(self.live.values())))

    def cancel_random_fired(self):
        """Cancel-after-fire: a stale handle on an already-popped event.

        The engine's EventHandle guards this with a generation check; at
        queue level the equivalent is simply that no queue accounting is
        touched.  Flagging the popped records must not disturb anything.
        """
        if self.popped:
            self.rng.choice(self.popped).cancelled = True
            self.check_counts()

    def pop_until(self, limit):
        """Pop to ``limit``; the live pops must be the sorted live set."""
        expected = sorted(key for key in self.live if key[0] <= limit)
        out = []
        while True:
            event = self.queue.pop_due(limit)
            if event is None:
                break
            if event.cancelled:
                self.skipped.append(event)   # Simulator._drain recycles it
                continue
            key = (event.time, event.seq)
            del self.live[key]
            self.popped.append(event)
            out.append(key)
        assert out == expected
        if out:
            self.now = out[-1][0]
        self.check_counts()
        return out

    def check_counts(self):
        assert self.queue.live == len(self.live)
        left = {e.seq for e in self.swept} | {e.seq for e in self.skipped}
        assert len(left) == len(self.swept) + len(self.skipped), (
            "a cancelled event left the queue twice")
        queued = [e for e in self.cancelled if e.seq not in left]
        assert len(self.queue) == len(self.live) + len(queued)


def _run_random_schedule(seed, steps):
    h = _Harness(seed)
    rng = h.rng
    for _ in range(steps):
        op = rng.random()
        if op < 0.55:
            # Mostly future pushes; deliberately coarse times so exact
            # (time, seq) ties occur all the time.
            h.push(h.now + rng.randrange(0, 2000, 100))
        elif op < 0.65 and h.now > 0:
            # Push behind the last pop (white-box path).
            h.push(rng.randrange(0, h.now))
        elif op < 0.80:
            h.cancel_random_queued()
        elif op < 0.85:
            h.cancel_random_fired()
        else:
            h.pop_until(h.now + rng.randrange(0, 3000, 250))
    h.pop_until(1 << 62)  # drain
    assert len(h.queue) == 0 and not h.live
    assert sorted(e.seq for e in h.swept + h.skipped) == \
        sorted(e.seq for e in h.cancelled)


def test_randomized_schedules_match_sorted_live_set():
    for seed in range(12):
        _run_random_schedule(seed, steps=400)


def test_same_timestamp_ties_pop_in_seq_order():
    h = _Harness(0)
    for _ in range(50):
        h.push(1000)
    assert h.pop_until(1000) == [(1000, seq) for seq in range(50)]


def test_cancel_after_fire_touches_no_accounting():
    h = _Harness(3)
    first = h.push(100)
    h.push(200)
    assert h.pop_until(100) == [(100, 0)]
    first.cancelled = True          # the stale handle's flag, nothing more
    h.check_counts()
    h.push(150)
    assert h.pop_until(1 << 62) == [(150, 2), (200, 1)]


def test_mass_cancel_triggers_compaction_and_order_survives():
    h = _Harness(1)
    events = [h.push(t) for t in range(0, 20000, 7)]
    # Cancel enough to trip the compaction threshold (>64 and > live).
    for event in events[: (3 * len(events)) // 4]:
        h.cancel(event)
    # A sweep ran and physically dropped entries.
    assert h.swept
    assert len(h.queue) < len(events)
    survivors = h.pop_until(1 << 62)
    assert survivors == [(e.time, e.seq) for e in events if not e.cancelled]


def test_compaction_hands_every_swept_event_to_on_swept():
    h = _Harness(4)
    events = [h.push(t) for t in range(200)]
    doomed = events[::2] + [events[1]]
    for event in doomed[:-1]:
        h.cancel(event)
    assert not h.swept                  # 100 cancelled, 100 live: no sweep
    h.cancel(doomed[-1])                # 101 > 99: the sweep runs
    assert sorted(e.seq for e in h.swept) == sorted(e.seq for e in doomed)
    assert len(h.queue) == h.queue.live == 99
    assert h.pop_until(1 << 62) == [(e.time, e.seq) for e in events
                                      if not e.cancelled]
    assert not h.skipped


def test_interleaved_past_and_future_pushes_keep_exact_order():
    h = _Harness(2)
    h.push(5000)
    h.push(100)
    assert h.pop_until(200) == [(100, 1)]
    # These land before the queued 5000...
    h.push(300)
    h.push(300)
    # ...and this one behind the last pop is fine too:
    h.push(50)
    assert h.pop_until(1 << 62) == [(50, 4), (300, 2), (300, 3), (5000, 0)]
