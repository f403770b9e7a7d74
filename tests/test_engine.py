from dataspace import trie
from dataspace.engine import (
    Dataspace,
    Message,
    QUIT,
    Spawn,
    ground_run,
    spawn_dataspace,
    spawn_full_state,
)
from dataspace.facet import spawn_actor
from dataspace.patch import Patch, assert_patch, from_sets, retract_patch
from dataspace.trie import EMPTY, assertion_set
from dataspace.values import Record, Symbol, WILDCARD, inbound, observe, outbound

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
    assert trie.key_set(ds.layer_assertions()) == frozenset({(S("x"),)})
