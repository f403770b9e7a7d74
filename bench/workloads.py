"""The benchmark's actor programs and their per-op outcome oracles.

Each workload is a whole actor program running in a ground dataspace.
A generator outside the dataspace injects one request per op with
``Dataspace.handle(Message(...))``; the program's actors see it as an
``inbound(...)`` message, the way timer events arrive.  ``handle``
returns once the dataspace is quiescent, which ends the op.

A workload is built from a seed alone: the same seed gives the same
standing population and the same sequence of requests.  After each op
``check`` compares what the actors learned with what the generator
knows must hold.  Identities are compared kind-faithfully, so ``1``,
``1.0`` and ``True`` are three different members, as they are three
different assertions in the trie.
"""
from __future__ import annotations

import random
from typing import Callable, Dict, List

from dataspace.engine import Dataspace, Message, spawn_dataspace
from dataspace.facet import Facet, spawn_actor
from dataspace.values import (
    CAPTURE,
    WILDCARD,
    Record,
    Symbol,
    atom_kind,
    inbound,
    outbound,
)

S = Symbol


def rec(label: str) -> Callable[..., Record]:
    sym = S(label)
    return lambda *fields: Record(sym, fields)


present = rec("present")
churn = rec("churn")
hello = rec("hello")
ready = rec("ready")
swap = rec("swap")
box_state = rec("box-state")
set_box = rec("set-box")
bump = rec("bump")


def key(atom):
    """Kind-faithful identity of an atom: 1, 1.0 and True stay apart."""
    return (atom_kind(atom), atom)


#: Numeric parts shared by every atom kind, so ids of different kinds
#: collide under Python equality (5 == 5.0, 1 == 1.0 == True).
NUMERIC_PARTS = 48
KINDS = ("bool", "int", "float", "str", "symbol")


def make_id(kind: str, n: int):
    if kind == "bool":
        return n % 2 == 1
    if kind == "int":
        return n
    if kind == "float":
        return float(n)
    if kind == "str":
        return str(n)
    return S(str(n))


def fresh_id(rng: random.Random, live: set):
    """A seeded id of any atom kind, not among the ``live`` keys."""
    while True:
        x = make_id(rng.choice(KINDS), rng.randrange(NUMERIC_PARTS))
        if key(x) not in live:
            return x


def draw(rng: random.Random, n: int) -> list:
    """``n`` ids, pairwise distinct by kind-faithful identity."""
    out: list = []
    live: set = set()
    for _ in range(n):
        x = fresh_id(rng, live)
        live.add(key(x))
        out.append(x)
    return out


def all_crashes(ds: Dataspace) -> int:
    """Crash records in a dataspace and every dataspace nested in it."""
    return len(ds.crashes) + sum(all_crashes(d) for d in ds.find_actors(Dataspace))


class Workload:
    """A booted actor program plus its request generator and oracle."""

    name = ""
    #: Ops between two set-up samples.
    block_ops = 200
    #: Ops run before measuring, so lazy state and caches settle.
    warmup_ops = 5
    #: Ops in one traced pass: fixed, so that counts compare exactly.
    trace_ops = 40
    #: Fresh copies one set-up sample builds, so that a sample is long
    #: enough to time steadily.
    setup_batch = 1

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.prepare()
        self.ds = Dataspace(self.boot(), name="ground")
        self.ds.run()

    def prepare(self) -> None:
        """Draw the standing population from ``self.rng``."""

    def boot(self) -> list:
        raise NotImplementedError

    def request(self) -> Message:
        """The next request; also records what must hold after it."""
        raise NotImplementedError

    def check(self) -> bool:
        """Whether the last request's outcome is what the generator expects."""
        raise NotImplementedError

    def crashes(self) -> int:
        return all_crashes(self.ds)

    def routing_tries(self) -> list:
        return [self.ds.mux.routes] + [d.mux.routes for d in self.ds.find_actors(Dataspace)]


class Presence(Workload):
    """K members, each asserting present(id) and querying present($).

    An op is one member leaving and a fresh one joining, in one request
    churn(old, new): the member holding ``old`` stops and a door actor
    spawns a member for ``new``.
    """

    name = "presence"
    size = 32

    def prepare(self) -> None:
        self.views: Dict[tuple, object] = {}
        self.members = draw(self.rng, self.size)

    def member(self, x) -> Callable[[Facet], None]:
        def body(f: Facet):
            self.views[key(x)] = f.query_set(present(CAPTURE))
            f.assert_(present(x))
            f.on_stop(lambda: self.views.pop(key(x)))
            f.stop_when_message(inbound(churn(x, WILDCARD)))

        return body

    def boot(self) -> list:
        def door(f: Facet):
            f.on_message(
                inbound(churn(WILDCARD, CAPTURE)),
                lambda x: f.spawn("member", self.member(x)),
            )

        return [spawn_actor("door", door)] + [
            spawn_actor("member", self.member(x)) for x in self.members
        ]

    def request(self) -> Message:
        i = self.rng.randrange(len(self.members))
        old = self.members[i]
        new = fresh_id(self.rng, {key(x) for x in self.members})
        self.members[i] = new
        return Message(churn(old, new))

    def check(self) -> bool:
        expected = {key(x) for x in self.members}
        if set(self.views) != expected:
            return False
        return all({key(v) for v in view.value} == expected for view in self.views.values())


class Demand(Workload):
    """A supervisor runs during_spawn(hello($)) over W standing requests.

    An op is swap(old, new): the requester withdraws hello(old), which
    retires old's worker actor, and asserts hello(new), which spawns a
    worker asserting ready(new).
    """

    name = "demand"
    #: At 32 exactly one op in 20 ran a full garbage collection, which put
    #: p95 on the boundary between ops with and without one; at 40 it is
    #: about one in 17.
    size = 40

    def prepare(self) -> None:
        self.requests = draw(self.rng, self.size)
        self.workers = 0
        self.seen_ready: List = []
        self.expect_ready = None

    def boot(self) -> list:
        def worker(w: Facet, x):
            self.workers += 1
            w.assert_(ready(x))

            def down():
                self.workers -= 1

            w.on_stop(down)

        def supervisor(f: Facet):
            f.during_spawn(hello(CAPTURE), "worker", worker)

        def requester(f: Facet):
            def demand(x):
                def body(r: Facet):
                    r.assert_(hello(x))
                    r.stop_when_message(inbound(swap(x, WILDCARD)))

                f.react(body)

            for x in self.requests:
                demand(x)
            f.on_message(inbound(swap(WILDCARD, CAPTURE)), demand)
            f.on_asserted(ready(CAPTURE), lambda x: self.seen_ready.append(key(x)))

        return [spawn_actor("supervisor", supervisor), spawn_actor("requester", requester)]

    def request(self) -> Message:
        i = self.rng.randrange(len(self.requests))
        old = self.requests[i]
        new = fresh_id(self.rng, {key(x) for x in self.requests})
        self.requests[i] = new
        self.seen_ready.clear()
        self.expect_ready = key(new)
        return Message(swap(old, new))

    def check(self) -> bool:
        return self.expect_ready in self.seen_ready and self.workers == self.size


class Box(Workload):
    """A box actor and a client; an op is one round trip.

    On bump(n) the client sends set-box(n); the box takes n on as its
    box-state assertion, and the client learns n from it.  The seed
    picks where the op numbers start.
    """

    name = "box"
    block_ops = 500
    warmup_ops = 200
    trace_ops = 1000
    setup_batch = 50

    def prepare(self) -> None:
        self.learned = None
        self.n = self.rng.randrange(10**6)

    def box(self, f: Facet):
        current = f.field(self.n, "current-value")
        f.assert_(lambda: box_state(current.value))

        def set_value(n):
            current.value = n

        f.on_message(set_box(CAPTURE), set_value)

    def client(self, f: Facet):
        def learned(v):
            self.learned = v

        f.on_message(inbound(bump(CAPTURE)), lambda n: f.send(set_box(n)))
        f.on_asserted(box_state(CAPTURE), learned)

    def boot(self) -> list:
        return [spawn_actor("box", self.box), spawn_actor("client", self.client)]

    def request(self) -> Message:
        self.n += 1
        return Message(bump(self.n))

    def check(self) -> bool:
        return key(self.learned) == key(self.n)


class Relay(Box):
    """Box, with the box inside a nested dataspace.

    The inner box hears set-box(n) as inbound(set-box(n)) and publishes
    outbound(box-state(n)), so every round trip crosses the layer twice.
    """

    name = "relay"

    def box(self, f: Facet):
        current = f.field(self.n, "current-value")
        f.assert_(lambda: outbound(box_state(current.value)))

        def set_value(n):
            current.value = n

        f.on_message(inbound(set_box(CAPTURE)), set_value)

    def boot(self) -> list:
        return [
            spawn_dataspace([spawn_actor("box", self.box)], name="inner"),
            spawn_actor("client", self.client),
        ]


WORKLOADS = {w.name: w for w in (Presence, Demand, Box, Relay)}
