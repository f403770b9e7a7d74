import gc
import random

from dataspace import trie
from dataspace.engine import (
    Dataspace,
    Message,
    QUIT,
    Spawn,
    _outward,
    ground_run,
    spawn_dataspace,
    spawn_full_state,
)
from dataspace.facet import spawn_actor
from dataspace.patch import Patch, assert_patch, drop_outbound, from_sets, observation_bodies, retract_patch
from dataspace.trace import Tracer
from dataspace.trie import assertion_set, intersect, project, spec_items, subtract, union, update_routes
from dataspace.values import (
    CAPTURE,
    INBOUND,
    OBSERVE,
    OUTBOUND,
    Record,
    Symbol,
    WILDCARD,
    inbound,
    observe,
    outbound,
)

S = Symbol


class Probe:
    """A bare actor that logs its events and replies with queued actions."""

    def __init__(self, replies=None):
        self.events = []
        self.replies = list(replies or [])

    def handle(self, event):
        self.events.append(event)
        return self.replies.pop(0) if self.replies else []


def spawn_probe(probe, startup, name="probe"):
    return Spawn(lambda _identity: (probe, list(startup)), name)


def test_spawned_actor_initial_assertions_visible():
    watcher = Probe()
    ds = ground_run(
        [
            spawn_probe(watcher, [assert_patch(observe(S("x")))]),
            spawn_probe(Probe(), [assert_patch(S("x"))]),
        ]
    )
    assert watcher.events == [assert_patch(S("x"))]


def test_messages_delivered_in_ascending_stream_order():
    logs = []

    class Listener(Probe):
        def __init__(self, tag):
            super().__init__()
            self.tag = tag

        def handle(self, event):
            if isinstance(event, Message):
                logs.append(self.tag)
            return []

    ds = ground_run(
        [
            spawn_probe(Listener("a"), [assert_patch(observe(S("ping")))]),
            spawn_probe(Listener("b"), [assert_patch(observe(S("ping")))]),
            spawn_probe(Probe(), [Message(S("ping"))]),
        ]
    )
    assert logs == ["a", "b"]


def test_crashing_actor_retracts_assertions_and_stays_dead():
    watcher = Probe()

    class Bomb(Probe):
        def handle(self, event):
            raise RuntimeError("boom")

    bomb = Bomb()
    ds = ground_run(
        [
            spawn_probe(watcher, [assert_patch(observe(S("x")))]),
            spawn_probe(bomb, [assert_patch(S("x")), assert_patch(observe(S("x")))]),
        ]
    )
    # bomb crashed on its own feedback event; its assertion must be gone
    assert watcher.events == [assert_patch(S("x")), retract_patch(S("x"))]
    assert len(ds.actors) == 1
    assert any(isinstance(e, RuntimeError) for e in ds.crashes.values())


def test_quit_retires_assertions():
    watcher = Probe()

    class OneShot(Probe):
        def handle(self, event):
            return [QUIT]

    ds = ground_run(
        [
            spawn_probe(watcher, [assert_patch(observe(S("x")))]),
            spawn_probe(
                OneShot(), [assert_patch(S("x")), assert_patch(observe(S("x")))]
            ),
        ]
    )
    assert watcher.events == [assert_patch(S("x")), retract_patch(S("x"))]


def test_nested_layer_outbound_and_inbound():
    outer_log = []

    class OuterListener(Probe):
        def handle(self, event):
            outer_log.append(event)
            return []

    inner = Probe()
    ds = ground_run(
        [
            spawn_probe(OuterListener(), [assert_patch(observe(S("hello")))]),
            spawn_probe(Probe(), [assert_patch(S("news"))]),
            spawn_dataspace(
                [
                    spawn_probe(
                        inner,
                        [
                            assert_patch(outbound(S("hello"))),
                            assert_patch(observe(inbound(S("news")))),
                        ],
                    )
                ]
            ),
        ]
    )
    # outbound assertion crossed the boundary outward
    assert assert_patch(S("hello")) in outer_log
    # interest in inbound(news) pulled the outer assertion inward
    assert assert_patch(inbound(S("news"))) in inner.events


def test_nested_layer_message_translation():
    got = []

    class OuterListener(Probe):
        def handle(self, event):
            if isinstance(event, Message):
                got.append(event.body)
            return []

    inner_got = []

    class InnerListener(Probe):
        def handle(self, event):
            if isinstance(event, Message):
                inner_got.append(event.body)
            return []

    ds = ground_run(
        [
            spawn_probe(OuterListener(), [assert_patch(observe(S("shout")))]),
            spawn_dataspace(
                [
                    spawn_probe(
                        InnerListener(),
                        [
                            assert_patch(observe(inbound(S("knock")))),
                            Message(outbound(S("shout"))),
                        ],
                    )
                ]
            ),
            spawn_probe(Probe(), [Message(S("knock"))]),
        ]
    )
    assert got == [S("shout")]
    assert inner_got == [inbound(S("knock"))]


def test_full_state_adapter_emits_minimal_patches():
    seen_patches = []

    class Watcher(Probe):
        def handle(self, event):
            if isinstance(event, Patch):
                seen_patches.append(event)
            return []

    def behavior(state, seen, msg):
        if msg is None:
            return None
        n = msg.fields[0]
        wanted = assertion_set([Record(S("level"), (n,)), observe(Record(S("set"), (WILDCARD,)))])
        return n, wanted, []

    initial = assertion_set(
        [Record(S("level"), (0,)), observe(Record(S("set"), (WILDCARD,)))]
    )
    ds = ground_run(
        [
            spawn_probe(Watcher(), [assert_patch(observe(Record(S("level"), (WILDCARD,))))]),
            spawn_full_state(behavior, 0, initial, name="mono"),
            spawn_probe(Probe(), [Message(Record(S("set"), (5,)))]),
            spawn_probe(Probe(), [Message(Record(S("set"), (5,)))]),
        ]
    )
    lvl = lambda n: Record(S("level"), (n,))
    # one initial, one change; the repeated identical message is suppressed
    assert seen_patches == [
        assert_patch(lvl(0)),
        from_sets(added=[lvl(5)], removed=[lvl(0)]),
    ]


def test_layer_assertions_hide_relay_bookkeeping():
    ds = ground_run([spawn_probe(Probe(), [assert_patch(S("x"))])])
    assert frozenset(trie.key_set(ds.layer_assertions())) == frozenset({(S("x"),)})


#: One atom of each kind, and the wildcard.
RELAY_ATOMS = (True, 1, 1.0, "1", S("1"), WILDCARD)
#: How an inner assertion may stand towards the layer boundary.
RELAY_WRAPS = (
    lambda v: v,
    outbound,
    lambda v: observe(inbound(v)),
    lambda v: outbound(observe(v)),
    lambda v: observe(outbound(v)),
    inbound,
)


def _relay_assertion(rng):
    if rng.random() < 0.05:
        return WILDCARD
    v = rng.choice(RELAY_ATOMS)
    if rng.random() < 0.5:
        v = Record(S("p"), (v, rng.choice(RELAY_ATOMS)))
    return rng.choice(RELAY_WRAPS)(v)


def test_relay_translation_needs_no_restriction():
    # The mux hands a layer's relay the whole visible change, not its
    # intersection with what the relay watches: translating it outwards
    # reads only outbound(_) and observe(inbound(_)), which are exactly
    # the relay's interests, so the restriction would change nothing.
    interests = observation_bodies(Dataspace([]).relay_interests)
    rng = random.Random(7)
    crossed = 0
    for _ in range(5000):
        delta = from_sets(
            added=[_relay_assertion(rng) for _ in range(rng.randrange(4))],
            removed=[_relay_assertion(rng) for _ in range(rng.randrange(4))],
        )
        restricted = Patch.disjoint(
            intersect(delta.added, interests), intersect(delta.removed, interests)
        )
        out = _outward(delta)
        assert out == _outward(restricted), delta
        crossed += out is not None
    assert crossed > 2000, crossed


def _interests(t):
    """The c of a patch side's observe(inbound(c)) parts."""
    return trie.unwrap_trie(INBOUND, trie.unwrap_trie(OBSERVE, t))


def _drop_side(t):
    """The outer-layer terms of one patch side: its outbound(c) parts as
    c, and its observe(inbound(c)) parts as observe(c)."""
    return union(trie.unwrap_trie(OUTBOUND, t), trie.wrap_trie(OBSERVE, _interests(t)))


def test_drop_outbound_matches_normalized_translation():
    # drop_outbound skips the normalization unless a side holds an
    # observe(inbound(_)) part; it must still equal the normalized
    # translation of the two sides, cancellations included.
    rng = random.Random(11)
    seen = {"unnormalized": 0, "cancelled": 0}
    for _ in range(5000):
        delta = from_sets(
            added=[_relay_assertion(rng) for _ in range(rng.randrange(4))],
            removed=[_relay_assertion(rng) for _ in range(rng.randrange(4))],
        )
        added, removed = _drop_side(delta.added), _drop_side(delta.removed)
        want = Patch(added, removed)
        assert drop_outbound(delta) == want, delta
        no_interests = _interests(delta.added) is _interests(delta.removed) is trie.EMPTY
        seen["unnormalized"] += no_interests and not want.is_empty()
        seen["cancelled"] += (want.added, want.removed) != (added, removed)
    assert min(seen.values()) > 100, seen


def test_oversized_assertion_crashes_its_author_not_the_dataspace():
    # Too deep for the mux's trie walkers: the update fails before it
    # changes anything, so only its author dies.
    huge = tuple(range(1500))
    for tracer in (None, Tracer()):
        peer = Probe()
        ds = ground_run(
            [
                spawn_actor("huge", lambda f: f.assert_(huge)),
                spawn_probe(peer, [assert_patch(observe(WILDCARD))], name="peer"),
                spawn_probe(Probe(), [assert_patch(S("later"))], name="later"),
            ],
            tracer=tracer,
        )
        assert list(ds.crashes) == [1]
        assert isinstance(ds.crashes[1], RecursionError)
        assert ds.living_names() == {"peer#2", "later#3"}
        # The peer, watching everything, sees its own interest and the later assertion.
        assert peer.events == [assert_patch(observe(WILDCARD)), assert_patch(S("later"))]
        assert trie.search_value(huge, ds.assertions()) is None
        assert trie.search_value(S("later"), ds.assertions()) == ()


def test_nested_swap_meeting_outside_sends_the_container_nothing():
    # Inside, outbound(observe(x)) and observe(inbound(x)) differ; outside
    # both read observe(x), so swapping one for the other changes nothing.
    x = S("x")
    swap = from_sets([outbound(observe(x))], [observe(inbound(x))])
    inner = Probe(replies=[[swap]])
    ds = Dataspace([spawn_probe(inner, [assert_patch(observe(inbound(x)))])])
    assert ds.run() == [assert_patch(observe(x))]
    assert ds.handle(assert_patch(x)) == []
    assert inner.events == [assert_patch(inbound(x)), retract_patch(inbound(x))]


def _message_survival(body, tracer):
    """A sender sends ``body``, then a sibling is pinged; returns the
    layer and the events the sibling and a watcher of every message saw."""
    ping = Record(S("ping"), (1,))
    sibling, watcher = Probe(), Probe()
    ds = ground_run(
        [
            spawn_probe(watcher, [assert_patch(observe(WILDCARD))], name="watcher"),
            spawn_probe(sibling, [assert_patch(observe(Record(S("ping"), (WILDCARD,))))], name="sibling"),
            spawn_probe(Probe(), [Message(body)], name="sender"),
            spawn_probe(Probe(), [Message(ping)], name="pinger"),
        ],
        tracer=tracer,
    )
    assert sibling.events[-1] == Message(ping)
    assert ds.living_names() >= {"watcher#1", "sibling#2", "pinger#4"}
    return ds, watcher.events


def test_unroutable_message_crashes_its_author_not_the_dataspace():
    for tracer in (None, Tracer()):
        ds, _ = _message_survival([1, 2], tracer)
        assert list(ds.crashes) == [3]
        assert type(ds.crashes[3]) is ValueError
        if tracer is not None:
            assert any(r.payload == "<not a value>" for r in tracer.records)


def test_deep_message_body_is_routed_without_recursion():
    deep = 1
    for _ in range(5000):
        deep = (deep,)
    for tracer in (None, Tracer()):
        ds, seen = _message_survival(deep, tracer)
        assert ds.crashes == {}
        assert any(isinstance(e, Message) and e.body is deep for e in seen)


def test_event_path_leaves_no_cyclic_garbage():
    # The trie walkers recurse through module-level functions, not through
    # nested functions that name themselves, so an event's garbage is
    # freed by reference counting and the cyclic collector finds none.
    box_state = lambda n: Record(S("box-state"), (n,))
    set_box = lambda n: Record(S("set-box"), (n,))
    bump = lambda n: Record(S("bump"), (n,))

    def box(f):
        current = f.field(0, "current-value")
        f.assert_(lambda: box_state(current.value))
        f.on_message(set_box(CAPTURE), lambda n: setattr(current, "value", n))

    def inner_box(f):
        current = f.field(0, "current-value")
        f.assert_(lambda: outbound(box_state(current.value)))
        f.on_message(inbound(set_box(CAPTURE)), lambda n: setattr(current, "value", n))

    def client(learned):
        def run(f):
            f.on_message(inbound(bump(CAPTURE)), lambda n: f.send(set_box(n)))
            f.on_asserted(box_state(CAPTURE), learned.append)

        return run

    a = assertion_set([S("x"), Record(S("p"), (1, WILDCARD)), Record(S("p"), (WILDCARD, "y"))])
    b = assertion_set([Record(S("p"), (1, 2)), Record(S("p"), (WILDCARD, WILDCARD)), S("z")])
    items = spec_items(Record(S("p"), (CAPTURE, WILDCARD)))
    # A routing trie where stream 0 holds a, and one where stream 2 watches p(_, _).
    routes, own, *_ = update_routes(trie.EMPTY, trie.EMPTY, 0, a, trie.EMPTY, trie.EMPTY)
    watching = assertion_set([Record(S("p"), (WILDCARD, WILDCARD))])
    interests = update_routes(trie.EMPTY, trie.EMPTY, 2, watching, trie.EMPTY, trie.EMPTY)[0]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for box_action in (
            spawn_actor("box", box),
            spawn_dataspace([spawn_actor("box", inner_box)], name="inner"),
        ):
            learned = []
            ds = Dataspace([box_action, spawn_actor("client", client(learned))])
            ds.run()
            ds.handle(Message(bump(1)))  # warm-up round trip
            gc.collect()
            for n in range(2, 52):
                ds.handle(Message(bump(n)))
            assert learned == list(range(52))
            assert gc.collect() == 0
        gc.collect()
        union(a, b), intersect(a, b), subtract(a, b), project(items, union(a, b))
        update_routes(routes, trie.EMPTY, 1, b, trie.EMPTY, interests)
        update_routes(routes, own, 0, trie.EMPTY, assertion_set([WILDCARD]), interests)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_retired_actors_leave_no_cyclic_garbage():
    # A stopped facet drops its endpoints, stop handlers and children, and
    # a quitting actor's root facet drops its runtime, so actors that come
    # and go are freed by reference counting too.  Two churns: members
    # leaving and joining a presence group, each with a query_set view, and
    # a requester swapping the requests a during_spawn supervisor serves.
    present = lambda x: Record(S("present"), (x,))
    churn = lambda old, new: Record(S("churn"), (old, new))
    hello = lambda x: Record(S("hello"), (x,))
    ready = lambda x: Record(S("ready"), (x,))
    swap = lambda old, new: Record(S("swap"), (old, new))
    views = {}
    seen = []

    def member(x):
        def body(f):
            views[x] = f.query_set(present(CAPTURE))
            f.assert_(present(x))
            f.on_stop(lambda: views.pop(x))
            f.stop_when_message(inbound(churn(x, WILDCARD)))

        return body

    def door(f):
        f.on_message(inbound(churn(WILDCARD, CAPTURE)), lambda x: f.spawn("member", member(x)))

    def supervisor(f):
        f.during_spawn(hello(CAPTURE), "worker", lambda w, x: w.assert_(ready(x)))

    def requester(f):
        def demand(x):
            def body(r):
                r.assert_(hello(x))
                r.stop_when_message(inbound(swap(x, WILDCARD)))

            f.react(body)

        for x in range(4):
            demand(x)
        f.on_message(inbound(swap(WILDCARD, CAPTURE)), demand)
        f.on_asserted(ready(CAPTURE), seen.append)

    def presence_holds(n):
        members = set(range(n + 1, n + 5))
        return views.keys() == members and all(set(v.value) == members for v in views.values())

    programs = (
        ([spawn_actor("door", door)] + [spawn_actor("member", member(x)) for x in range(4)],
         churn, presence_holds),
        ([spawn_actor("supervisor", supervisor), spawn_actor("requester", requester)],
         swap, lambda n: n + 4 in seen),
    )
    enabled = gc.isenabled()
    gc.disable()
    try:
        for boot, request, holds in programs:
            ds = Dataspace(boot)
            ds.run()
            ds.handle(Message(request(0, 4)))  # warm-up op
            assert holds(0)
            gc.collect()
            for n in range(1, 31):
                ds.handle(Message(request(n, n + 4)))
                assert holds(n), n
            assert ds.crashes == {}
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
