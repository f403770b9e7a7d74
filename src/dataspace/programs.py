"""Bundled example programs, each a small conversation between actors.

Every program takes an output callback (one transcript line per call)
and returns the ground dataspace after it quiesces, so callers and
tests can inspect the final assertion state.
"""
from __future__ import annotations

from typing import Callable, Dict, Optional

from . import drivers
from .engine import Dataspace, ground_run, spawn_dataspace
from .facet import Facet, spawn_actor
from .trace import Tracer
from .values import CAPTURE, Record, Symbol, WILDCARD, inbound, observe, outbound

S = Symbol

Out = Callable[[str], None]


# ---------------------------------------------------------------------------
# box: a mutable cell and an incrementing client


def _box_state(v) -> Record:
    return Record(S("box-state"), (v,))


def _set_box(v) -> Record:
    return Record(S("set-box"), (v,))


def make_box(out: Out, limit: int = 10) -> Callable[[Facet], None]:
    def box(f: Facet):
        current = f.field(0, "current-value")
        f.assert_(lambda: _box_state(current.value))
        f.stop_when_message(_set_box(limit))

        def on_set(n):
            out(f"box: taking on new-value {n}")
            current.value = n

        f.on_message(_set_box(CAPTURE), on_set)

    return box


def make_client(out: Out) -> Callable[[Facet], None]:
    def client(f: Facet):
        f.stop_when_retracted(observe(_set_box(WILDCARD)))

        def learned(v):
            out(f"client: learned that box's value is now {v}")
            f.send(_set_box(v + 1))

        f.on_asserted(_box_state(CAPTURE), learned)

    return client


def run_box(out: Out, virtual_ms=0, tracer: Optional[Tracer] = None) -> Dataspace:
    return ground_run(
        [spawn_actor("box", make_box(out)), spawn_actor("client", make_client(out))],
        tracer=tracer,
    )


# ---------------------------------------------------------------------------
# flip-flop: a timed toggle and a monitor


def run_flip_flop(out: Out, virtual_ms=3500, tracer: Optional[Tracer] = None) -> Dataspace:
    clock = drivers.VirtualClock()

    def toggler(f: Facet):
        state = f.field(False, "state")
        f.assert_(lambda: Record(S("flip-flop"), (state.value,)))
        label = drivers.fresh_label(f)

        def arm():
            f.send(drivers.set_timer(label, 1000, drivers.RELATIVE))

        def fired():
            state.value = not state.value
            arm()

        f.on_start(arm)
        f.on_message(drivers.timer_expired(label, WILDCARD), fired)

    def monitor(f: Facet):
        seen = f.field(False, "seen")

        def on_state(v):
            text = "true" if v else "false"
            if seen.value:
                out(f"flip-flop is now {text}")
            else:
                seen.value = True
                out(f"flip-flop starts in state {text}")

        f.on_asserted(Record(S("flip-flop"), (CAPTURE,)), on_state)

    return ground_run(
        [
            drivers.timer_driver(clock),
            spawn_actor("flip-flop", toggler),
            spawn_actor("monitor", monitor),
        ],
        injector=drivers.VirtualClockInjector(clock, virtual_ms),
        tracer=tracer,
    )


# ---------------------------------------------------------------------------
# presence: aggregate appearance/disappearance of a populated room


def run_presence(out: Out, virtual_ms=0, tracer: Optional[Tracer] = None) -> Dataspace:
    present = lambda who: Record(S("present"), (who,))

    def room(f: Facet):
        def occupied(r: Facet):
            r.assert_(present(S("alice")))
            r.assert_(present(S("bob")))
            r.stop_when_message(S("close-room"))

        f.react(occupied)
        f.stop_when_retracted(observe(S("close-room")))

    def monitor(f: Facet):
        def appeared():
            out("room appeared")
            f.send(S("close-room"))

        def disappeared():
            out("room disappeared")
            f.stop()

        f.on_asserted(present(WILDCARD), appeared)
        f.on_retracted(present(WILDCARD), disappeared)

    return ground_run(
        [spawn_actor("room", room), spawn_actor("monitor", monitor)], tracer=tracer
    )


# ---------------------------------------------------------------------------
# demand-matcher: one worker actor per distinct request


def run_demand_matcher(out: Out, virtual_ms=0, tracer: Optional[Tracer] = None) -> Dataspace:
    hello = lambda x: Record(S("hello"), (x,))
    ready = lambda x: Record(S("ready"), (x,))

    def supervisor(f: Facet):
        def worker(w: Facet, x):
            out(f"worker for {x} up")
            w.assert_(ready(x))
            w.on_stop(lambda: out(f"worker for {x} down"))

        f.during_spawn(hello(CAPTURE), "worker", worker)

    def requester(f: Facet):
        def demand(r: Facet):
            r.assert_(hello(S("a")))
            r.assert_(hello(S("b")))
            r.stop_when_message(S("done"))

        f.react(demand)
        f.stop_when_retracted(observe(S("done")))

    def coordinator(f: Facet):
        count = f.query_count(ready(CAPTURE), "ready-count")

        def check(_x):
            if count.value == 2:
                f.send(S("done"))

        f.on_asserted(ready(CAPTURE), check)

    return ground_run(
        [
            spawn_actor("supervisor", supervisor),
            spawn_actor("requester", requester),
            spawn_actor("coordinator", coordinator),
        ],
        tracer=tracer,
    )


# ---------------------------------------------------------------------------
# ancestor: transitive closure over parent facts


def run_ancestor(out: Out, virtual_ms=0, tracer: Optional[Tracer] = None) -> Dataspace:
    parent = lambda a, b: Record(S("parent"), (a, b))
    ancestor = lambda a, b: Record(S("ancestor"), (a, b))

    def facts(f: Facet):
        f.assert_(parent(S("john"), S("douglas")))
        f.assert_(parent(S("bob"), S("john")))
        f.assert_(parent(S("ebbon"), S("bob")))

    def rules(f: Facet):
        def base(g: Facet, a, c):
            g.assert_(ancestor(a, c))

            def step(h: Facet, b):
                h.assert_(ancestor(a, b))

            g.during(ancestor(c, CAPTURE), step)

        f.during(parent(CAPTURE, CAPTURE), base)

    def reporter(f: Facet):
        f.on_asserted(
            ancestor(CAPTURE, CAPTURE), lambda a, b: out(f"ancestor({a}, {b})")
        )

    return ground_run(
        [
            spawn_actor("facts", facts),
            spawn_actor("rules", rules),
            spawn_actor("reporter", reporter),
        ],
        tracer=tracer,
    )


# ---------------------------------------------------------------------------
# syllogism: humanity implies fallibility, on demand


def run_syllogism(out: Out, virtual_ms=0, tracer: Optional[Tracer] = None) -> Dataspace:
    human = lambda w: Record(S("human"), (w,))
    fallible = lambda w: Record(S("fallible"), (w,))

    def facts(f: Facet):
        def mortal_era(g: Facet):
            g.assert_(human(S("turing")))
            g.stop_when_message(S("revoke"))

        f.react(mortal_era)
        f.stop_when_retracted(observe(S("revoke")))

    def rule(f: Facet):
        def serve(g: Facet, who):
            def derive(h: Facet):
                h.assert_(fallible(who))

            g.during(human(who), lambda h: derive(h))

        f.during(observe(fallible(CAPTURE)), serve)

    def inquirer(f: Facet):
        def watch(g: Facet):
            out("Turing is fallible")
            f.send(S("revoke"))
            g.on_stop(lambda: out("Turing is infallible"))

        f.during(fallible(S("turing")), watch)

    return ground_run(
        [
            spawn_actor("facts", facts),
            spawn_actor("rule", rule),
            spawn_actor("inquirer", inquirer),
        ],
        tracer=tracer,
    )


# ---------------------------------------------------------------------------
# square-server: demand-driven arithmetic and an over-broad client


def _square(n, m) -> Record:
    return Record(S("square"), (n, m))


def run_square_server(out: Out, virtual_ms=0, tracer: Optional[Tracer] = None) -> Dataspace:
    def server(f: Facet):
        def serve(g: Facet, n):
            g.assert_(_square(n, n * n))

        f.during(observe(_square(CAPTURE, WILDCARD)), serve)

    def good_client(f: Facet):
        f.on_asserted(_square(3, CAPTURE), lambda v: out(f"3 squared is {v}"))

    def rogue_client(f: Facet):
        f.assert_(observe(_square(WILDCARD, WILDCARD)))

    return ground_run(
        [
            spawn_actor("square-server", server),
            spawn_actor("good-client", good_client),
            spawn_actor("rogue-client", rogue_client),
        ],
        tracer=tracer,
    )


# ---------------------------------------------------------------------------
# cross-layer: a nested dataspace exchanging greetings with its container


def _greeting(text) -> Record:
    return Record(S("greeting"), (text,))


def run_cross_layer(out: Out, virtual_ms=0, tracer: Optional[Tracer] = None) -> Dataspace:
    def outer_speaker(f: Facet):
        f.assert_(_greeting("Hi from outer space!"))

    def outer_listener(f: Facet):
        f.on_asserted(_greeting(CAPTURE), lambda t: out(f"outer heard: {t}"))

    def inner_speaker(f: Facet):
        f.assert_(outbound(_greeting("Hi from inner!")))

    def inner_listener(f: Facet):
        f.on_asserted(inbound(_greeting(CAPTURE)), lambda t: out(f"inner heard: {t}"))

    return ground_run(
        [
            spawn_actor("outer-speaker", outer_speaker),
            spawn_actor("outer-listener", outer_listener),
            spawn_dataspace(
                [
                    spawn_actor("inner-speaker", inner_speaker),
                    spawn_actor("inner-listener", inner_listener),
                ],
                name="inner",
            ),
        ],
        tracer=tracer,
    )


# ---------------------------------------------------------------------------
# ticker: ten ticks at one-second spacing via the timestate driver


def run_ticker(out: Out, virtual_ms=11000, tracer: Optional[Tracer] = None) -> Dataspace:
    clock = drivers.VirtualClock()

    def ticker(f: Facet):
        count = f.field(0, "count")

        def arm(at):
            def waiting(g: Facet):
                def fired(h: Facet):
                    count.value += 1
                    n = count.value
                    out(f"Tick {n}")
                    g.stop(lambda: arm(at + 1000) if n < 10 else None)

                g.during(drivers.later_than(at), fired)

            f.react(waiting)

        f.on_start(lambda: arm(1000))

    return ground_run(
        [
            drivers.timer_driver(clock),
            drivers.timestate_driver(),
            spawn_actor("ticker", ticker),
        ],
        injector=drivers.VirtualClockInjector(clock, virtual_ms),
        tracer=tracer,
    )


# ---------------------------------------------------------------------------
# timeout: a facet that gives up after a deadline


def run_timeout(out: Out, virtual_ms=6000, tracer: Optional[Tracer] = None) -> Dataspace:
    clock = drivers.VirtualClock()

    def impatient(f: Facet):
        def attempt(g: Facet):
            g.on_start(lambda: out("waiting for a reply"))
            g.on_stop(lambda: out("attempt over"))
            drivers.stop_when_timeout(g, 5000, lambda: out("timed out"))
            g.on_asserted(Record(S("reply"), (CAPTURE,)), lambda v: g.stop())

        f.react(attempt)

    return ground_run(
        [drivers.timer_driver(clock), spawn_actor("impatient", impatient)],
        injector=drivers.VirtualClockInjector(clock, virtual_ms),
        tracer=tracer,
    )


PROGRAMS: Dict[str, Callable] = {
    "box": run_box,
    "flip-flop": run_flip_flop,
    "presence": run_presence,
    "demand-matcher": run_demand_matcher,
    "ancestor": run_ancestor,
    "syllogism": run_syllogism,
    "square-server": run_square_server,
    "cross-layer": run_cross_layer,
    "ticker": run_ticker,
    "timeout": run_timeout,
}
