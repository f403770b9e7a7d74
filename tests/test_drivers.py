from dataspace import drivers
from dataspace.drivers import (
    ABSOLUTE,
    RELATIVE,
    VirtualClock,
    VirtualClockInjector,
    set_timer,
    timer_expired,
    later_than,
    stop_when_timeout,
)
from dataspace.engine import ground_run
from dataspace.facet import spawn_actor
from dataspace.values import CAPTURE, Record, Symbol, WILDCARD

S = Symbol


def timed_run(boot_fn, budget, extra=()):
    clock = VirtualClock()
    actions = [drivers.timer_driver(clock)]
    actions.extend(extra)
    actions.append(spawn_actor("subject", boot_fn))
    return ground_run(actions, injector=VirtualClockInjector(clock, budget))


def test_relative_timer_fires_at_deadline():
    fired = []
    label = Record(S("x"), ())

    def subject(f):
        f.on_start(lambda: f.send(set_timer(label, 100, RELATIVE)))
        f.on_message(timer_expired(label, CAPTURE), lambda now: fired.append(now))

    timed_run(subject, 1000)
    assert fired == [100]


def test_absolute_timer_in_past_fires_on_next_wake():
    fired = []
    past = Record(S("past"), ())
    future = Record(S("future"), ())

    def subject(f):
        def arm_past(_now):
            # virtual now is 50 here; ask for t=10, already gone by
            f.send(set_timer(past, 10, ABSOLUTE))

        f.on_start(lambda: f.send(set_timer(future, 50, ABSOLUTE)))
        f.on_message(timer_expired(future, WILDCARD), lambda: arm_past(None))
        f.on_message(timer_expired(past, CAPTURE), lambda now: fired.append(now))

    timed_run(subject, 1000)
    assert fired == [50]  # fired at the current virtual time, not at 10


def test_timer_fires_exactly_once_per_request():
    fired = []
    label = Record(S("x"), ())

    def subject(f):
        f.on_start(lambda: f.send(set_timer(label, 30, RELATIVE)))
        f.on_message(timer_expired(label, WILDCARD), lambda: fired.append(1))

    timed_run(subject, 10000)
    assert fired == [1]


def test_timestate_asserts_later_than():
    log = []

    def subject(f):
        def reached(g):
            log.append("reached")

        f.during(later_than(500), reached)

    timed_run(
        subject, 1000, extra=[drivers.timestate_driver()]
    )
    assert log == ["reached"]


def test_stop_when_timeout_ordering():
    log = []

    def subject(f):
        def attempt(g):
            g.on_start(lambda: log.append("start"))
            g.on_stop(lambda: log.append("stop"))
            stop_when_timeout(g, 200, lambda: log.append("timeout"))

        f.react(attempt)

    timed_run(subject, 1000)
    assert log == ["start", "stop", "timeout"]


def test_facet_stopped_early_suppresses_timeout_body():
    log = []

    def subject(f):
        def attempt(g):
            stop_when_timeout(g, 200, lambda: log.append("timeout"))
            g.stop_when_message(S("cancel"))

        f.react(attempt)
        f.on_start(lambda: f.send(S("cancel")))
        f.assert_(Record(S("anchor"), ()))

    timed_run(subject, 1000)
    assert log == []


def test_virtual_clock_idle_when_no_wakes():
    clock = VirtualClock()
    assert VirtualClockInjector(clock, 1000).next_event() is None
    clock.schedule(2000)
    assert VirtualClockInjector(clock, 1000).next_event() is None  # beyond budget
