"""Clocks and timer drivers bridging wall-clock (or simulated) time.

Time enters a running system as tick messages injected at ground level.
The timer driver actor translates one-shot timer requests into
expiration messages; the timestate driver maintains ``later-than``
assertions so other actors can react to deadlines declaratively.
"""
from __future__ import annotations

import heapq
import itertools
import time
from typing import Callable, Optional

from .engine import Injector, Message
from .facet import Facet, spawn_actor
from .values import CAPTURE, Record, Symbol, WILDCARD, inbound

TICK = Symbol("tick")
SET_TIMER = Symbol("set-timer")
TIMER_EXPIRED = Symbol("timer-expired")
LATER_THAN = Symbol("later-than")
RELATIVE = Symbol("relative")
ABSOLUTE = Symbol("absolute")

def tick(now) -> Record:
    return Record(TICK, (now,))


def set_timer(label, msecs, kind) -> Record:
    return Record(SET_TIMER, (label, msecs, kind))


def timer_expired(label, msecs) -> Record:
    return Record(TIMER_EXPIRED, (label, msecs))


def later_than(msecs) -> Record:
    return Record(LATER_THAN, (msecs,))


def fresh_label(facet: Facet) -> Record:
    """A timer label unique to ``facet``'s actor, and so across actors."""
    return Record(Symbol("timer-label"), (facet.runtime.fresh_tag(),))


class Clock:
    def now(self):
        raise NotImplementedError

    def schedule(self, deadline) -> None:
        raise NotImplementedError


class VirtualClock(Clock):
    """Simulated time: advances instantly to the next scheduled wake."""

    def __init__(self):
        self._now = 0
        self._wakes: list = []

    def now(self):
        return self._now

    def schedule(self, deadline) -> None:
        heapq.heappush(self._wakes, deadline)

    def advance(self, budget) -> Optional[object]:
        """Jump to the earliest wake within the budget; None when idle.

        A wake already in the past still produces a tick (at the current
        time), so late absolute timers fire promptly.
        """
        if not self._wakes or self._wakes[0] > budget:
            return None
        deadline = heapq.heappop(self._wakes)
        if deadline > self._now:
            self._now = deadline
        while self._wakes and self._wakes[0] <= self._now:
            heapq.heappop(self._wakes)
        return self._now


class SystemClock(Clock):
    def __init__(self):
        self._origin = time.monotonic()
        self._wakes: list = []

    def now(self):
        return (time.monotonic() - self._origin) * 1000.0

    def schedule(self, deadline) -> None:
        heapq.heappush(self._wakes, deadline)

    def next_wake(self):
        while self._wakes and self._wakes[0] <= self.now():
            return heapq.heappop(self._wakes)
        return heapq.heappop(self._wakes) if self._wakes else None


class VirtualClockInjector(Injector):
    def __init__(self, clock: VirtualClock, budget):
        self.clock = clock
        self.budget = budget

    def next_event(self):
        now = self.clock.advance(self.budget)
        if now is None:
            return None
        return Message(tick(now))


class SystemClockInjector(Injector):
    def __init__(self, clock: SystemClock, budget):
        self.clock = clock
        self.deadline = clock.now() + budget

    def next_event(self):
        wake = self.clock.next_wake()
        if wake is None or wake > self.deadline:
            return None
        delay = (wake - self.clock.now()) / 1000.0
        if delay > 0:
            time.sleep(delay)
        return Message(tick(self.clock.now()))


def timer_driver(clock: Clock):
    """Actor serving one-shot timer requests at ground level."""

    def boot(f: Facet):
        pending: list = []
        seqs = itertools.count()

        def on_request(label, msecs, kind):
            deadline = msecs if kind is ABSOLUTE else clock.now() + msecs
            heapq.heappush(pending, (deadline, next(seqs), label))
            clock.schedule(deadline)

        def on_tick(now):
            while pending and pending[0][0] <= now:
                _, _, label = heapq.heappop(pending)
                f.send(timer_expired(label, now))

        f.on_message(set_timer(CAPTURE, CAPTURE, CAPTURE), on_request)
        f.on_message(inbound(tick(CAPTURE)), on_tick)

    return spawn_actor("timer-driver", boot)


def timestate_driver():
    """Actor asserting later-than records once their deadline passes."""

    def boot(f: Facet):
        def serve(inner: Facet, msecs):
            label = fresh_label(inner)
            inner.on_start(lambda: inner.send(set_timer(label, msecs, ABSOLUTE)))
            inner.on_message(
                timer_expired(label, WILDCARD),
                lambda: inner.react(lambda g: g.assert_(later_than(msecs))),
            )

        f.during(Record(Symbol("observe"), (later_than(CAPTURE),)), serve)

    return spawn_actor("timestate-driver", boot)


def stop_when_timeout(facet: Facet, msecs, continuation: Optional[Callable] = None) -> None:
    """Stop ``facet`` once ``msecs`` of (driver-served) time have passed."""
    label = fresh_label(facet)
    facet.on_start(lambda: facet.send(set_timer(label, msecs, RELATIVE)))
    facet.stop_when_message(timer_expired(label, WILDCARD), continuation)
