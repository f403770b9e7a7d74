import random
from collections import Counter

from dataspace import trie
from dataspace.engine import Message, ground_run, spawn_dataspace
from dataspace.facet import (
    ActorRuntime,
    InfiniteMatchSet,
    KindDict,
    PRIORITY_QUERY_ADD,
    _captures,
    spawn_actor,
)
from dataspace.patch import Patch, apply_patch, assert_patch, diff, retract_patch
from dataspace.trie import EMPTY
from dataspace.values import CAPTURE, Record, Symbol, WILDCARD, inbound, observe, parse_exact

from oracles import _hashable, _instantiate, _match, trie_members

S = Symbol


def rec(name, *fields):
    return Record(S(name), tuple(fields))


def test_assert_endpoint_tracks_field():
    log = []

    def publisher(f):
        n = f.field(0, "n")
        f.assert_(lambda: rec("value", n.value))

        def bump(k):
            n.value = k

        f.on_message(rec("bump", CAPTURE), bump)

    def watcher(f):
        f.on_retracted(rec("value", CAPTURE), lambda v: log.append(("-", v)))
        f.on_asserted(rec("value", CAPTURE), lambda v: log.append(("+", v)))

    def kicker(f):
        f.on_start(lambda: f.send(rec("bump", 7)))

    ground_run(
        [
            spawn_actor("pub", publisher),
            spawn_actor("watch", watcher),
            spawn_actor("kick", kicker),
        ]
    )
    assert log == [("+", 0), ("-", 0), ("+", 7)]


def test_field_assignment_keeps_kinds_apart_inside_compounds():
    log = []

    def publisher(f):
        n = f.field((1,), "n")
        f.assert_(lambda: rec("value", n.value))

        def set_to(k):
            n.value = k

        f.on_message(rec("set", CAPTURE), set_to)

    def watcher(f):
        f.on_retracted(rec("value", CAPTURE), lambda v: log.append(("-", v)))
        f.on_asserted(rec("value", CAPTURE), lambda v: log.append(("+", v)))

    def kicker(f):
        f.on_start(lambda: f.send(rec("set", (True,))))

    ds = ground_run(
        [
            spawn_actor("pub", publisher),
            spawn_actor("watch", watcher),
            spawn_actor("kick", kicker),
        ]
    )
    assert log == [("+", (1,)), ("-", (1,)), ("+", (True,))]
    assert [type(v[1][0]) for v in log] == [int, int, bool]
    assert trie.search_value(rec("value", (True,)), ds.assertions()) == ()
    assert trie.search_value(rec("value", (1,)), ds.assertions()) is None


def test_a_subscription_follows_the_field_in_its_pattern():
    # The field may hold an atom or a compound, walked in place.
    for one, two in ((1, 2), ((1, 2), 2)):
        log = []

        def source(f):
            f.assert_(rec("p", one, "a"))
            f.assert_(rec("p", two, "b"))

        def watcher(f):
            which = f.field(one, "which")

            def heard(x):
                log.append(x)
                if len(log) < 3:
                    which.value = two if x == "a" else one

            f.on_asserted(rec("p", which, CAPTURE), heard)

        ds = ground_run([spawn_actor("src", source), spawn_actor("watch", watcher)])
        assert ds.crashes == {}
        assert log == ["a", "b", "a"], one


def test_a_query_over_a_field_follows_its_pattern():
    # The query's view moves with its pattern: as the field goes 1 -> 2,
    # p(1, "a") leaves the query and p(2, "b") joins it.
    read = []

    def source(f):
        f.assert_(rec("p", 1, "a"))
        f.assert_(rec("p", 2, "b"))

    def watcher(f):
        which = f.field(1, "which")
        seen = f.query_set(rec("p", which, CAPTURE))
        f.on_message(inbound(S("switch")), lambda: setattr(which, "value", 2))
        f.on_message(inbound(S("read")), lambda: read.append(sorted(seen.value)))

    ds = ground_run([spawn_actor("src", source), spawn_actor("watch", watcher)])
    for event in ("read", "switch", "read"):
        ds.handle(Message(S(event)))
    assert ds.crashes == {}
    assert read == [["a"], ["b"]]


def test_a_subscription_hears_its_view_move_over_what_is_known():
    # p(_, $) keeps every p known, so no patch arrives as the field
    # moves; the view's move alone is heard: as which goes 1 -> 2, b is
    # added and a removed, and as it goes 2 -> 3, a is added and b removed.
    log = []

    def source(f):
        for n, x in ((1, "a"), (2, "b"), (3, "a")):
            f.assert_(rec("p", n, x))

    def watcher(f):
        which = f.field(1, "which")
        f.on_asserted(rec("p", WILDCARD, CAPTURE), lambda x: None)
        f.on_asserted(rec("p", which, CAPTURE), lambda x: log.append("+" + x))
        f.on_retracted(rec("p", which, CAPTURE), lambda x: log.append("-" + x))
        f.on_message(inbound(rec("move", CAPTURE)), lambda n: setattr(which, "value", n))

    ds = ground_run([spawn_actor("src", source), spawn_actor("watch", watcher)])
    for n in (2, 3):
        ds.handle(Message(rec("move", n)))
    assert ds.crashes == {}
    assert log == ["+a", "+b", "-a", "+a", "-b"]


def test_a_move_that_keeps_the_view_fires_nothing():
    # p(1, "a") and p(2, "a") are both known, so the view reads a before
    # and after the field goes 1 -> 2.
    log, read = [], []

    def source(f):
        f.assert_(rec("p", 1, "a"))
        f.assert_(rec("p", 2, "a"))

    def watcher(f):
        which = f.field(1, "which")
        f.on_asserted(rec("p", WILDCARD, WILDCARD), lambda: None)
        value = f.query_value(rec("p", which, CAPTURE))
        f.on_asserted(rec("p", which, CAPTURE), lambda x: log.append("+" + x))
        f.on_retracted(rec("p", which, CAPTURE), lambda x: log.append("-" + x))
        f.on_message(inbound(S("switch")), lambda: setattr(which, "value", 2))
        f.on_message(inbound(S("read")), lambda: read.append(value.value))

    ds = ground_run([spawn_actor("src", source), spawn_actor("watch", watcher)])
    for event in ("read", "switch", "read"):
        ds.handle(Message(S(event)))
    assert ds.crashes == {}
    assert log == ["+a"] and read == ["a", "a"]


def test_a_wildcard_message_fires_the_handlers_it_is_routed_to():
    # A wildcard in the body meets whatever item stands at its position:
    # an atom, or a compound read as that many wildcard fields.
    log = []

    def listener(f):
        f.on_message(rec("p", 3), lambda: log.append("p(3)"))
        f.on_message(rec("p", CAPTURE), lambda x: log.append(("p($)", x)))
        f.on_message(rec("p", (CAPTURE, 1)), lambda x: log.append(("p(($ 1))", x)))
        f.on_message(rec("p", 3, 4), lambda: log.append("p(3 4)"))
        f.on_message(rec("q", CAPTURE), lambda x: log.append("q($)"))

    def sender(f):
        f.on_start(lambda: f.send(rec("p", WILDCARD)))

    ds = ground_run([spawn_actor("listen", listener), spawn_actor("send", sender)])
    assert ds.crashes == {}
    assert log == ["p(3)", ("p($)", WILDCARD), ("p(($ 1))", WILDCARD)]


def test_during_child_lifecycle_and_captures():
    log = []

    def source(f):
        def era(g):
            g.assert_(rec("topic", S("x")))
            g.stop_when_message(S("drop"))

        f.react(era)
        f.stop_when_retracted(observe(S("drop")))

    def reactor(f):
        def body(g, t):
            log.append(("up", t))
            g.on_stop(lambda: log.append(("down", t)))
            g.on_start(lambda: f.send(S("drop")))

        f.during(rec("topic", CAPTURE), body)

    ground_run([spawn_actor("source", source), spawn_actor("reactor", reactor)])
    assert log == [("up", S("x")), ("down", S("x"))]


def test_a_during_child_watches_the_match_it_was_made_for():
    # The child made for p(1, "a") stops when p(1, "a") is retracted,
    # though the field in the during's pattern has moved on to 2.
    log = []

    def source(f):
        f.assert_(rec("p", 2, "b"))

        def held(g):
            g.assert_(rec("p", 1, "a"))
            g.stop_when_message(inbound(S("drop")))

        f.react(held)

    def watcher(f):
        which = f.field(1, "which")

        def body(g, x):
            log.append(("up", x))
            g.on_stop(lambda: log.append(("down", x)))

        def switch():
            which.value = 2

        f.during(rec("p", which, CAPTURE), body)
        f.on_message(inbound(S("switch")), switch)

    ds = ground_run([spawn_actor("src", source), spawn_actor("watch", watcher)])
    ds.handle(Message(S("switch")))
    ds.handle(Message(S("drop")))
    assert ds.crashes == {}
    assert log == [("up", "a"), ("up", "b"), ("down", "a")]


def test_a_during_child_made_later_in_a_turn_watches_its_own_match():
    # p(1, "a") and p(1, "c") arrive in one patch.  The child for "a"
    # moves the field in the during's pattern to 2 and sends, which
    # repairs the endpoint before the activation for "c" runs; that
    # child still watches p(1, "c"), the match dispatch found.  The
    # standing p(_, _) interest keeps p(1, "c") in view while the field
    # moves, so it is retracted only when the source drops it.
    log = []

    def source(f):
        f.assert_(rec("p", 1, "a"))
        f.assert_(rec("p", 1, "c"))
        f.stop_when_message(inbound(S("drop")))

    def watcher(f):
        which = f.field(1, "which")

        def body(g, x):
            log.append(("up", x))
            g.on_stop(lambda: log.append(("down", x)))
            if x == "a":
                which.value = 2
                g.send(S("moved"))

        f.during(rec("p", which, CAPTURE), body)
        f.on_asserted(rec("p", WILDCARD, WILDCARD), lambda *_: None)

    ds = ground_run([spawn_actor("src", source), spawn_actor("watch", watcher)])
    ds.handle(Message(S("drop")))
    assert ds.crashes == {}
    assert log == [("up", "a"), ("up", "c"), ("down", "a"), ("down", "c")]


def test_deep_patterns_resolve_and_instantiate():
    # A pattern holding a Field is walked into items, and a during's
    # match read back off them, each walk with a stack of its own, so a
    # pattern nested 900 deep works end to end.
    def nest(x, depth=900):
        for _ in range(depth):
            x = rec("n", x)
        return x

    log = []

    def watcher(f):
        def body(g, x):
            log.append(("up", x))
            g.on_stop(lambda: log.append(("down", x)))

        f.during(nest(CAPTURE), body)

    def asserter(f):
        level = f.field(1, "level")
        f.assert_(nest(level))

        def bump():
            level.value = 2

        f.on_message(inbound(S("bump")), bump)

    ds = ground_run([spawn_actor("w", watcher), spawn_actor("a", asserter)])
    ds.handle(Message(S("bump")))
    assert ds.crashes == {}
    assert log == [("up", 1), ("up", 2), ("down", 1)]


def _nested_tuple(atom, depth=900):
    for _ in range(depth):
        atom = (atom,)
    return atom


def test_deep_field_value_reassigned_equal_keeps_the_actor_running():
    # A field set to a value equal to its own compares the two as token
    # sequences, so a value nested 900 deep, which the actor can assert,
    # can also be set again.
    log = []

    def holder(f):
        deep = f.field(_nested_tuple(1), "deep")
        f.assert_(lambda: rec("held", deep.value))

        def reset():
            deep.value = _nested_tuple(1)
            log.append("reset")

        f.on_message(inbound(S("reset")), reset)

    ds = ground_run([spawn_actor("h", holder)])
    ds.handle(Message(S("reset")))
    assert ds.crashes == {}
    assert log == ["reset"]
    assert "h#1" in ds.living_names()


def test_deep_field_value_set_again_compares_without_recursion():
    # Python's own tuple equality recurses in C against the recursion
    # limit, so a field compares compounds as token sequences only: a
    # value 1000 or 1500 deep can be set again, equal or of another atom
    # kind.
    for depth in (1000, 1500):
        log = []

        def holder(f):
            deep = f.field(_nested_tuple(1, depth), "deep")

            def reset():
                deep.value = _nested_tuple(1, depth)
                log.append(deep in f.runtime.graph.damaged)
                deep.value = _nested_tuple(True, depth)
                log.append(deep in f.runtime.graph.damaged)

            f.on_message(inbound(S("reset")), reset)

        ds = ground_run([spawn_actor("h", holder)])
        ds.handle(Message(S("reset")))
        assert ds.crashes == {}, depth
        assert log == [False, True], depth


def test_kind_dict_equality_holds_for_deep_values():
    deep = KindDict([(1, _nested_tuple(1))])
    assert deep == KindDict([(1, _nested_tuple(1))])
    assert deep != KindDict([(1, _nested_tuple(True))])
    assert deep != KindDict([(1, _nested_tuple(1, 899))])


def test_kind_dict_equals_a_plain_mapping_kind_faithfully():
    # A dict merges 1, True and 1.0 into one key; a KindDict keeps three.
    assert KindDict([(1, "a"), (True, "b"), (1.0, "c")]) != {1: "c"}
    assert KindDict([(1, "a")]) != {True: "a"}
    assert KindDict([(1, "a")]) != {1.0: "a"}
    assert KindDict([(1, (1,))]) != {1: (True,)}
    assert KindDict([(1, "a")]) == {1: "a"} and {1: "a"} == KindDict([(1, "a")])
    assert KindDict([(1, "a")]) != {1: "a", 2: "b"}
    assert KindDict([(1, "a")]) != {object(): "a"}


def test_stop_when_runs_continuation_after_stop_handlers():
    log = []

    def actor(f):
        def child(g):
            g.on_stop(lambda: log.append("stopped"))
            g.stop_when_message(S("go"), lambda: log.append("continued"))

        f.react(child)
        f.on_start(lambda: f.send(S("go")))
        # keep the root conversation alive until the child is gone
        f.assert_(observe(S("go")))

    ground_run([spawn_actor("a", actor)])
    assert log == ["stopped", "continued"]


def test_aggregate_novelty_single_activation():
    log = []

    def source(f):
        f.assert_(rec("p", S("a")))
        f.assert_(rec("p", S("b")))

    def watcher(f):
        f.on_asserted(rec("p", WILDCARD), lambda: log.append("seen"))

    ground_run([spawn_actor("s", source), spawn_actor("w", watcher)])
    assert log == ["seen"]


def test_queries_maintain_fields():
    got = {}

    def source(f):
        f.assert_(rec("entry", S("a"), 1))
        f.assert_(rec("entry", S("b"), 2))

    def reader(f):
        members = f.query_set(rec("entry", CAPTURE, WILDCARD))
        table = f.query_hash(rec("entry", CAPTURE, CAPTURE))
        count = f.query_count(rec("entry", CAPTURE, CAPTURE))
        value = f.query_value(rec("entry", S("b"), CAPTURE))

        def snap():
            got["set"] = members.value
            got["hash"] = dict(table.value)
            got["count"] = count.value
            got["value"] = value.value

        f.on_start(lambda: f.send(S("later")))
        f.on_message(S("later"), snap)
        f.assert_(observe(S("later")))

    ground_run([spawn_actor("src", source), spawn_actor("rd", reader)])
    assert got["set"] == frozenset({S("a"), S("b")})
    assert got["hash"] == {S("a"): 1, S("b"): 2}
    assert got["count"] == 2
    assert got["value"] == 2


def test_query_updates_retract_before_add():
    log = []

    def cell(f):
        v = f.field(1, "v")
        f.assert_(lambda: rec("cell", v.value))
        f.on_message(rec("write", CAPTURE), lambda n: setattr(v, "value", n))

    def reader(f):
        f.on_asserted(
            rec("cell", CAPTURE), lambda n: log.append(("+", n)), PRIORITY_QUERY_ADD
        )
        f.on_retracted(rec("cell", CAPTURE), lambda n: log.append(("-", n)), 0)
        f.on_start(lambda: f.send(rec("write", 2)))

    ground_run([spawn_actor("cell", cell), spawn_actor("rd", reader)])
    assert log == [("+", 1), ("-", 1), ("+", 2)]


def test_an_assertion_of_a_capture_mark_crashes_only_its_author():
    # An assertion's items may hold no capture mark, whether its pattern
    # holds one or a field in it does.
    for mark in (lambda f: CAPTURE, lambda f: f.field(CAPTURE, "x")):

        def author(f):
            f.assert_(rec("p", mark(f)))

        def bystander(f):
            f.assert_(rec("q", 1))

        ds = ground_run([spawn_actor("author", author), spawn_actor("bystander", bystander)])
        assert [type(e) for e in ds.crashes.values()] == [ValueError]
        assert "capture marks" in str(*ds.crashes.values())
        assert ds.living_names() == {"bystander#2"}


def test_a_pattern_reading_none_asserts_nothing_and_subscribes_to_nothing():
    # An assertion whose pattern reads as None, through a field or not,
    # asserts nothing until the field moves on; a subscription to None
    # crashes only its author.
    log = []

    def author(f):
        x = f.field(None, "x")
        f.assert_(None)
        f.assert_(x)
        f.on_message(inbound(S("set")), lambda: setattr(x, "value", rec("p", 1)))

    def watcher(f):
        f.on_asserted(rec("p", CAPTURE), log.append)

    def bad(f):
        f.on_asserted(None, log.append)

    ds = ground_run([spawn_actor("author", author), spawn_actor("watch", watcher), spawn_actor("bad", bad)])
    assert log == []
    ds.handle(Message(S("set")))
    assert log == [1]
    assert [repr(e) for e in ds.crashes.values()] == ["ValueError('neither a value nor a pattern: None')"]
    assert ds.living_names() == {"author#1", "watch#2"}


def test_infinite_match_kills_only_observer():
    def narrow(f):
        # observes interests one request at a time
        f.on_asserted(observe(rec("item", CAPTURE)), lambda v: None)

    def wild_asserter(f):
        f.assert_(observe(rec("item", WILDCARD)))

    # narrow's capture meets a wildcard interest: infinite match set
    ds = ground_run(
        [spawn_actor("narrow", narrow), spawn_actor("wild", wild_asserter)]
    )
    assert any(isinstance(e, InfiniteMatchSet) for e in ds.crashes.values())
    # The message names the subscription as asserted, capture marks as wildcards.
    assert [str(e) for e in ds.crashes.values()] == [
        "subscription ?#item(_) matched infinitely many values"
    ]
    assert "wild#2" in ds.living_names()
    assert "narrow#1" not in ds.living_names()


def test_a_view_move_names_the_subscription_it_walked():
    # The retracted endpoint's move walks its old items, p(1, $), which
    # meet the peer's p(1, _): the crash names those items, not p(2, $).
    def peer(f):
        f.assert_(rec("p", 1, WILDCARD))

    def watcher(f):
        which = f.field(1, "which")
        f.on_retracted(rec("p", which, CAPTURE), lambda x: None)
        f.on_message(inbound(rec("move", CAPTURE)), lambda n: setattr(which, "value", n))

    ds = ground_run([spawn_actor("peer", peer), spawn_actor("watch", watcher)])
    assert ds.crashes == {}
    ds.handle(Message(rec("move", 2)))
    assert [str(e) for e in ds.crashes.values()] == ["subscription #p(1 _) matched infinitely many values"]


def test_during_spawn_creates_and_tears_down_actor():
    log = []

    def demand(f):
        def era(g):
            g.assert_(rec("want", S("x")))
            g.stop_when_message(S("enough"))

        f.react(era)
        f.stop_when_retracted(observe(S("enough")))

    def factory(f):
        def body(g, x):
            log.append(("spawned", x))
            g.on_stop(lambda: log.append(("gone", x)))
            g.on_start(lambda: g.send(S("enough")))

        f.during_spawn(rec("want", CAPTURE), "worker", body)

    ds = ground_run([spawn_actor("demand", demand), spawn_actor("factory", factory)])
    assert log == [("spawned", S("x")), ("gone", S("x"))]
    # worker actor exited once demand went away
    assert not any(n.startswith("worker") for n in ds.living_names())


def test_dispatch_keeps_atom_kinds_apart():
    log = []

    def source(f):
        for x in (1, True, 1.0):

            def era(g, x=x):
                g.assert_(rec("p", x))
                g.stop_when_message(rec("drop", x))

            f.react(era)

    def watcher(f):
        def added(x):
            log.append(("+", type(x), x))
            if len(log) == 3:
                f.send(rec("drop", True))

        f.on_asserted(rec("p", CAPTURE), added)
        f.on_retracted(rec("p", CAPTURE), lambda x: log.append(("-", type(x), x)))

    ground_run([spawn_actor("source", source), spawn_actor("watcher", watcher)])
    assert log == [
        ("+", bool, True),
        ("+", int, 1),
        ("+", float, 1.0),
        ("-", bool, True),
    ]


def test_during_spawn_keeps_atom_kinds_apart():
    spawned = []

    def demand(f):
        f.assert_(rec("hello", 1))
        f.assert_(rec("hello", True))

    def factory(f):
        f.during_spawn(
            rec("hello", CAPTURE), "worker", lambda g, x: spawned.append((type(x), x))
        )

    ds = ground_run([spawn_actor("demand", demand), spawn_actor("factory", factory)])
    assert spawned == [(bool, True), (int, 1)]
    assert len([n for n in ds.living_names() if n.startswith("worker")]) == 2


def test_query_count_keeps_atom_kinds_apart():
    got = []

    def source(f):
        for x in (1, True, 1.0):
            f.assert_(rec("p", x))

    def reader(f):
        count = f.query_count(rec("p", CAPTURE))
        f.on_start(lambda: f.send(S("later")))
        f.on_message(S("later"), lambda: got.append(count.value))
        f.assert_(observe(S("later")))

    ground_run([spawn_actor("source", source), spawn_actor("reader", reader)])
    assert got == [3]


def test_actor_exits_when_root_facets_all_stop():
    def actor(f):
        f.stop_when_message(S("bye"))
        f.on_start(lambda: f.send(S("bye")))

    ds = ground_run([spawn_actor("brief", actor)])
    assert ds.living_names() == set()


def test_adhoc_assertions_survive_facet_stop():
    seen = []

    def asserter(f):
        f.assert_(rec("anchor"))  # keeps the actor alive

        def era(g):
            g.on_start(lambda: f.runtime.assert_value(rec("keep", 1)))
            g.stop_when_message(S("bye"))

        f.react(era)
        f.on_start(lambda: f.send(S("bye")))

    def watcher(f):
        f.on_asserted(rec("keep", CAPTURE), lambda v: seen.append(v))
        f.on_retracted(rec("keep", CAPTURE), lambda v: seen.append(("gone", v)))

    ground_run([spawn_actor("a", asserter), spawn_actor("w", watcher)])
    assert seen == [1]


def test_same_named_supervisors_keep_their_workers_apart():
    log = []

    def demand(f):
        for i in (1, 2):

            def era(g, i=i):
                g.assert_(rec("want", i))
                g.stop_when_message(rec("drop", i))

            f.react(era)

    def supervisor(i):
        def boot(f):
            def body(g):
                log.append(("up", i))
                g.on_stop(lambda: log.append(("down", i)))
                if i == 1:
                    g.on_start(lambda: g.send(rec("drop", 1)))

            f.during_spawn(rec("want", i), "worker", body)

        return boot

    ds = ground_run(
        [
            spawn_actor("demand", demand),
            spawn_actor("sup", supervisor(1)),
            spawn_actor("sup", supervisor(2)),
        ]
    )
    # withdrawing the first demand stops only the first supervisor's worker
    assert sorted(log) == [("down", 1), ("up", 1), ("up", 2)]
    assert len([n for n in ds.living_names() if n.startswith("worker")]) == 1


def test_fresh_tags_differ_across_layers():
    tags = []

    def actor(f):
        tags.append(f.runtime.fresh_tag())

    ground_run(
        [
            spawn_actor("a", actor),
            spawn_dataspace([spawn_actor("a", actor)], name="inner"),
        ]
    )
    assert tags == [("ground", "a#1", 1), ("ground", "inner#2", "a#1", 1)]


def test_facet_with_only_a_start_script_is_pruned():
    log = []

    def actor(f):
        def child(g):
            g.on_start(lambda: log.append("start"))
            g.on_stop(lambda: log.append("stop"))

        f.react(child)

    ds = ground_run([spawn_actor("brief", actor)])
    assert log == ["start", "stop"]
    assert ds.living_names() == set()


def test_stop_handlers_run_parent_first_in_preorder():
    log = []

    def node(name, *kids):
        def body(g):
            g.assert_(rec("node", S(name)))
            g.on_stop(lambda: log.append(name))
            for kid in kids:
                g.react(kid)

        return body

    def actor(f):
        top = node("a", node("b", node("c")), node("d"))

        def root(g):
            top(g)
            g.stop_when_message(S("go"))

        f.react(root)
        f.on_start(lambda: f.send(S("go")))

    ground_run([spawn_actor("tree", actor)])
    assert log == ["a", "b", "c", "d"]


def test_stop_handler_cannot_react_inside_its_stopping_facet():
    def actor(f):
        f.assert_(rec("anchor"))

        def child(g):
            g.stop_when_message(S("go"))
            g.on_stop(lambda: g.react(lambda h: h.assert_(rec("orphan"))))

        f.react(child)
        f.on_start(lambda: f.send(S("go")))

    ds = ground_run([spawn_actor("a", actor)])
    assert any(isinstance(e, RuntimeError) for e in ds.crashes.values())
    assert ds.living_names() == set()


def test_script_scheduled_while_pruning_runs_in_the_same_turn():
    def actor(f):
        f.assert_(rec("here", 1))

        def child(g):
            g.on_start(lambda: None)
            g.on_stop(f.stop)

        f.react(child)

    ds = ground_run([spawn_actor("a", actor)])
    assert ds.living_names() == set()
    assert ds.assertions() is EMPTY


# ---------------------------------------------------------------------------
# The assertion bag against a re-union oracle

#: Assertions that overlap (p(*) covers every p(x); q(1, *) and q(*, 1)
#: share q(1, 1)) or differ only by atom kind (1, True, 1.0, "1").
VALUES = [rec("p", x) for x in (1, True, 1.0, "1", 3, WILDCARD)] + [
    rec("q", 1, WILDCARD),
    rec("q", WILDCARD, 1),
    rec("q", 1, 1),
]
#: What a field-driven assertion may compute; None asserts nothing.
COMPUTED = VALUES + [None]
PATTERNS = [
    rec("p", CAPTURE),
    rec("p", 1),
    rec("p", True),
    rec("q", 1, CAPTURE),
    rec("q", CAPTURE, 1),
]
STEP = S("step")


class BagOracle:
    """Drives one actor through random steps, checking each turn's patch
    against diff(published, adhoc ∪ ⋃ ep.current), the whole-set
    re-union the bag replaces."""

    def __init__(self, rng):
        self.rng = rng
        self.facets = []
        self.fields = []
        self.published = EMPTY
        self.rt = ActorRuntime(("t",), self.boot)
        self.check(self.rt.startup())

    def boot(self, f):
        self.facets.append(f)
        f.on_message(STEP, self.step)

    def check(self, actions):
        want = self.rt.adhoc
        for ep in self.rt.endpoints.values():
            want = trie.union(want, ep.current)
        expected = diff(self.published, want)
        patches = [a for a in actions if isinstance(a, Patch)]
        assert patches == ([] if expected.is_empty() else [expected])
        self.published = want

    def run(self, steps):
        for _ in range(steps):
            self.check(self.rt.handle(Message(STEP)))

    def add_endpoint(self, g):
        rng = self.rng
        kind = rng.randrange(3)
        if kind == 0:
            g.assert_(rng.choice(VALUES))
        elif kind == 1:
            field = g.field(rng.randrange(len(COMPUTED)))
            self.fields.append(field)
            g.assert_(lambda: COMPUTED[field.value])
        else:
            g.on_asserted(rng.choice(PATTERNS), lambda *_: None)

    def grow(self, parent):
        def body(h):
            self.facets.append(h)
            self.add_endpoint(h)

        parent.react(body)

    def step(self):
        # Several changes per turn, so that a key may come and go again
        # before the flush.
        rng = self.rng
        for _ in range(rng.randint(1, 3)):
            live = [g for g in self.facets if g.alive]
            op = rng.randrange(6)
            if op == 0:
                self.add_endpoint(rng.choice(live))
            elif op == 1 and self.fields:
                rng.choice(self.fields).value = rng.randrange(len(COMPUTED))
            elif op == 2 and len(live) > 1:
                rng.choice(live[1:]).stop()
            elif op == 3:
                self.grow(rng.choice(live))
            elif op == 4:
                self.rt.assert_value(rng.choice(VALUES))
            elif op == 5:
                self.rt.retract_value(rng.choice(VALUES))


def test_bag_patches_match_re_union_oracle():
    rng = random.Random(20161)
    for _ in range(150):
        BagOracle(rng).run(25)


def _turn_patches(steps):
    """Patches of the turns of an actor whose step handler runs ``steps``
    in order, one per turn, each given the boot facet."""
    todo = list(steps)
    rt = ActorRuntime(("t",), lambda f: f.on_message(STEP, lambda: todo.pop(0)(f)))
    out = [[a for a in rt.startup() if isinstance(a, Patch)]]
    while todo:
        out.append([a for a in rt.handle(Message(STEP)) if isinstance(a, Patch)])
    return out[1:]


def test_bag_retraction_under_a_standing_wildcard_publishes_nothing():
    facets = []

    def both(f):
        f.assert_(rec("p", WILDCARD))
        f.react(lambda g: (facets.append(g), g.assert_(rec("p", 3))))

    patches = _turn_patches(
        [both, lambda f: facets[0].stop(), lambda f: f.runtime.assert_value(rec("p", 3))]
    )
    assert patches == [[assert_patch(rec("p", WILDCARD))], [], []]


def test_bag_retraction_sharing_a_root_edge_publishes_nothing():
    # The subscription asserts observe(p(1)) too: the retraction and the
    # standing contribution meet only through the observe edge at the root.
    facets = []

    def both(f):
        f.on_asserted(rec("p", 1), lambda: None)
        f.react(lambda g: (facets.append(g), g.assert_(observe(rec("p", 1)))))

    patches = _turn_patches([both, lambda f: facets[0].stop()])
    assert patches == [[assert_patch(observe(rec("p", 1)))], []]


def test_bag_move_under_a_standing_root_default_publishes_nothing():
    # WILDCARD is a root default and no edge, and covers p(1) and p(2).
    # (It first publishes all but the step subscription, already public.)
    fields = []

    def both(f):
        f.assert_(WILDCARD)
        fields.append(f.field(1, "n"))
        f.assert_(lambda: rec("p", fields[0].value))

    patches = _turn_patches([both, lambda f: setattr(fields[0], "value", 2)])
    assert patches == [[diff(trie.compile_pattern(observe(STEP)), trie.universe())], []]


def test_bag_two_to_one_transition_emits_nothing():
    facets = []

    def twice(f):
        for _ in range(2):
            f.react(lambda g: (facets.append(g), g.assert_(rec("p", 1))))

    patches = _turn_patches(
        [twice, lambda f: facets[0].stop(), lambda f: facets[1].stop()]
    )
    assert patches == [[assert_patch(rec("p", 1))], [], [retract_patch(rec("p", 1))]]


def test_bag_keeps_atom_kinds_apart():
    facets = []
    atoms = (1, True, 1.0, "1")

    def each(f):
        for x in atoms:
            f.react(lambda g, x=x: (facets.append(g), g.assert_(rec("p", x))))

    patches = _turn_patches([each, lambda f: facets[1].stop()])
    assert patches == [
        [assert_patch(*(rec("p", x) for x in atoms))],
        [retract_patch(rec("p", True))],
    ]


def test_equal_recomputation_publishes_nothing(monkeypatch):
    # p(v > 0) stays p(True) while v goes from 1 to 2: the endpoint is
    # recomputed to an equal trie, so the flush has nothing to publish
    # and runs no set operation.
    computed = []

    def boot(f):
        v = f.field(1, "v")

        def compute():
            computed.append(v.value)
            return rec("p", v.value > 0)

        f.assert_(compute)
        f.on_message(STEP, lambda: setattr(v, "value", 2))

    rt = ActorRuntime(("t",), boot)
    rt.startup()
    combines = []
    combine = trie.combine
    monkeypatch.setattr(trie, "combine", lambda *a: combines.append(a) or combine(*a))
    assert rt.handle(Message(STEP)) == []
    assert computed == [1, 2] and combines == []


# ---------------------------------------------------------------------------
# Dispatch against the two-probe formula

#: Atoms of every kind, with numeric parts shared across kinds.
KIND_ATOMS = (1, True, 1.0, "1", S("1"), 0, False, 0.0, "a", S("a"))
#: Subscriptions with capture marks, wildcard positions and literals.
DISPATCH_PATTERNS = [
    rec("p", CAPTURE),
    rec("p", 1),
    rec("p", True),
    rec("q", CAPTURE, WILDCARD),
    rec("q", WILDCARD, CAPTURE),
    rec("q", CAPTURE, CAPTURE),
    rec("q", 1.0, CAPTURE),
    rec("q", (CAPTURE,), WILDCARD),
]


def _random_part(rng):
    x = rng.choice(KIND_ATOMS + (WILDCARD, "tuple"))
    return (rng.choice(KIND_ATOMS),) if x == "tuple" else x


def _random_assertions(rng, n):
    out = []
    for _ in range(n):
        if rng.random() < 0.4:
            out.append(rec("p", _random_part(rng)))
        else:
            out.append(rec("q", _random_part(rng), _random_part(rng)))
    return trie.assertion_set(out)


def _random_removal(rng):
    if rng.random() < 0.2:
        # Cofinite: everything (or every q) but a few assertions.
        whole = trie.universe() if rng.random() < 0.5 else trie.compile_pattern(
            rec("q", WILDCARD, WILDCARD)
        )
        return trie.subtract(whole, _random_assertions(rng, rng.randint(1, 4)))
    return _random_assertions(rng, rng.randint(0, 6))


def _two_probe_activations(ep, delta, before, after, seen):
    """The captures ``ep`` activates on by the two-probe formula, over the
    projection's members as the oracle enumerates them (dispatch reads
    its captures with ``trie.captures``, the walk under ``key_set`` too);
    ``seen`` counts the captures on which dropping one of the probes
    would change the answer, and those of a wildcard-free pattern, by
    the rule dispatch reads them with."""
    side = delta.added if ep.on == "asserted" else delta.removed
    if side is EMPTY:
        return []
    pattern = parse_exact(ep.items)[0]
    caps_list = trie_members(trie.project(trie.spec_items(pattern), side))
    if caps_list == "infinite":
        return caps_list
    # With no wildcard in the pattern, dispatch may skip probes: an
    # addition's when the side cannot meet before, a removal's after.
    exact = WILDCARD not in trie.spec_items(pattern)
    out = []
    for caps in caps_list:
        inst = trie.compile_pattern(_instantiate(pattern, caps))
        known_before = trie.intersect(inst, before) is not EMPTY
        known_after = trie.intersect(inst, after) is not EMPTY
        if ep.on == "asserted":
            seen["asserted, known before"] += known_before
            if exact and trie.may_meet(side, before):
                seen["asserted wildcard-free, may meet before"] += 1
            elif exact:
                seen["asserted wildcard-free, disjoint from before"] += 1
            if exact and before is not EMPTY and trie.subtract(before, delta.removed) is EMPTY:
                seen["asserted wildcard-free, patch leaves nothing of before"] += 1
            if known_after and not known_before:
                out.append(caps)
        else:
            seen["retracted, known neither"] += not known_before and not known_after
            seen["retracted, known after"] += known_before and known_after
            seen["retracted wildcard-free"] += exact
            if known_before and not known_after:
                out.append(caps)
    return out


def _leaving_nothing():
    """Patches that leave nothing of a non-empty before, which the random
    draws hold too few of: one removing before itself (the shape of a
    steady round trip, where the removed half is the known trie), one
    removing all but what it adds, one removing every q but what it adds;
    each adds members of other atom kinds beside retracted ones."""
    before = trie.assertion_set([rec("p", 1), rec("q", 1.0, 1)])
    added = trie.assertion_set([rec("p", True), rec("p", 1.0), rec("q", 1.0, True), rec("q", 1, 1)])
    yield before, Patch(added, before)
    added = trie.assertion_set([rec("p", 1), rec("q", 1.0, S("a"))])
    yield trie.assertion_set([rec("p", 0), rec("q", 0, "a")]), Patch(
        added, trie.subtract(trie.universe(), added))
    added = trie.assertion_set([rec("q", 1.0, 0.0), rec("q", (1,), 1), rec("p", False)])
    yield trie.assertion_set([rec("q", 1.0, 0)]), Patch(
        added, trie.subtract(trie.compile_pattern(rec("q", WILDCARD, WILDCARD)), added))


def _kinds(activations):
    if activations == "infinite":
        return activations
    return [tuple(_hashable(c) for c in caps) for caps in activations]


def test_dispatch_matches_two_probe_oracle():
    rng = random.Random(2016)
    seen = Counter()

    def boot(f):
        for pattern in DISPATCH_PATTERNS:
            f.on_asserted(pattern, lambda *_: None)
            f.on_retracted(pattern, lambda *_: None)

    rt = ActorRuntime(("t",), boot)
    rt.startup()
    subs = [ep for ep in rt.endpoints.values() if ep.on is not None]
    got = []
    rt._schedule = lambda _priority, _facet, _handler, match: got.append(parse_exact(match[0]))

    def dispatched(ep, delta, before, after):
        got.clear()
        try:
            rt._dispatch_patch(ep, delta, before, after, trie.subtract(before, delta.removed))
        except InfiniteMatchSet:
            return "infinite"
        return list(got)

    def draws():
        for _ in range(300):
            before = _random_assertions(rng, rng.randint(0, 8))
            yield before, Patch(_random_assertions(rng, rng.randint(0, 6)), _random_removal(rng))
        yield from _leaving_nothing()

    for before, delta in draws():
        after = apply_patch(before, delta)
        for ep in subs:
            want = _two_probe_activations(ep, delta, before, after, seen)
            assert _kinds(dispatched(ep, delta, before, after)) == _kinds(want), (
                ep.on,
                parse_exact(ep.items)[0],
                delta,
                before,
            )
    # Every case that tells the formula's probes apart was drawn.
    assert len(seen) == 7 and min(seen.values()) >= 20, seen


# ---------------------------------------------------------------------------
# Message matching against the structural oracle

LABELS = (S("p"), S("q"))


def _random_value(rng, depth=3):
    if depth == 0 or rng.random() < 0.35:
        return rng.choice(KIND_ATOMS)
    fields = tuple(_random_value(rng, depth - 1) for _ in range(rng.randint(0, 3)))
    return fields if rng.random() < 0.4 else Record(rng.choice(LABELS), fields)


def _pattern_of(rng, v):
    """A pattern ``v`` matches: some parts of ``v`` become WILDCARD or CAPTURE."""
    r = rng.random()
    if r < 0.12:
        return WILDCARD
    if r < 0.3:
        return CAPTURE
    if isinstance(v, Record):
        return Record(v.label, tuple(_pattern_of(rng, f) for f in v.fields))
    if isinstance(v, tuple):
        return tuple(_pattern_of(rng, f) for f in v)
    return v


def _wildcarded(rng, v):
    """``v`` with one part replaced by WILDCARD: a field at some depth of a
    compound, or an atom itself."""
    if isinstance(v, Record):
        label, fields = v.label, v.fields
    elif isinstance(v, tuple):
        label, fields = None, v
    else:
        return WILDCARD
    if not fields:
        return WILDCARD
    i = rng.randrange(len(fields))
    field = WILDCARD if rng.random() < 0.5 else _wildcarded(rng, fields[i])
    fields = fields[:i] + (field,) + fields[i + 1 :]
    return fields if label is None else Record(label, fields)


def _mutated(rng, v):
    """``v`` with one part changed: an atom of another kind or payload, a
    label, or an arity."""
    if isinstance(v, Record):
        label, fields = v.label, v.fields
    elif isinstance(v, tuple):
        label, fields = None, v
    else:
        return rng.choice(KIND_ATOMS)
    if fields and rng.random() < 0.6:
        i = rng.randrange(len(fields))
        fields = fields[:i] + (_mutated(rng, fields[i]),) + fields[i + 1 :]
    else:
        r = rng.random()
        if r < 0.3:
            label = rng.choice((None,) + LABELS)
        elif r < 0.6 and fields:
            fields = fields[:-1]
        elif r < 0.9:
            fields = fields + (rng.choice(KIND_ATOMS),)
        else:
            return rng.choice(KIND_ATOMS)
    return fields if label is None else Record(label, fields)


def test_message_matcher_agrees_with_structural_oracle():
    rng = random.Random(1988)
    outcomes = Counter()
    for _ in range(3000):
        v = _random_value(rng)
        pattern = _pattern_of(rng, v)
        body = _mutated(rng, v) if rng.random() < 0.5 else v
        want = _match(pattern, body)
        got = _captures(trie.spec_items(pattern), body)
        assert (got is None) == (want is None), (pattern, body)
        if want is not None:
            assert _kinds([got]) == _kinds([want]), (pattern, body)
        outcomes[want is not None] += 1
    assert min(outcomes.values()) >= 500, outcomes
    # A body holding wildcards matches just when it meets the pattern:
    # the two compiled patterns intersect.  A capture is what the body
    # holds at the mark, a wildcard under a wildcard of the body.
    outcomes.clear()
    for _ in range(3000):
        v = _random_value(rng)
        pattern = _pattern_of(rng, v)
        body = _wildcarded(rng, _mutated(rng, v) if rng.random() < 0.8 else v)
        items = trie.spec_items(pattern)
        met = trie.intersect(trie.compile_items(items), trie.compile_pattern(body)) is not EMPTY
        got = _captures(items, body)
        assert (got is not None) == met, (pattern, body)
        if met:
            assert len(got) == items.count(CAPTURE), (pattern, body)
            inst = trie.compile_pattern(_instantiate(pattern, got))
            assert trie.intersect(inst, trie.compile_pattern(body)) is not EMPTY, (pattern, body, got)
        outcomes[met] += 1
    assert min(outcomes.values()) >= 500, outcomes


def test_queries_keep_atom_kinds_apart():
    got = []

    def source(f):
        f.assert_(rec("p", 1))
        f.assert_(rec("p", 1.0))

        def hold(g):
            g.assert_(rec("p", True))
            g.stop_when_message(S("drop"))

        f.react(hold)

    def reader(f):
        members = f.query_set(rec("p", CAPTURE))
        table = f.query_hash(rec("p", CAPTURE))
        count = f.query_count(rec("p", CAPTURE))
        value = f.query_value(rec("p", CAPTURE))

        def snap():
            got.append((members.value, table.value, count.value, value.value))

        # The queries update first: their handlers have a lower priority.
        f.on_asserted(rec("p", True), lambda: (snap(), f.send(S("drop"))))
        f.on_retracted(rec("p", True), snap)

    ground_run([spawn_actor("src", source), spawn_actor("rd", reader)])
    (members, table, count, value), (members_after, table_after, count_after, value_after) = got
    assert len(members) == 3 and len(table) == 3
    assert sorted(_hashable(x) for x in members) == [("bool", True), ("float", 1.0), ("int", 1)]
    assert 1 in members and True in members and 1.0 in members
    assert 0 not in members and "1" not in members and S("1") not in members
    assert [_hashable(k) for k in table] == [_hashable(x) for x in members]
    assert all(table[x] == () for x in (1, True, 1.0)) and False not in table
    assert sorted(_hashable(x) for x in members_after) == [("float", 1.0), ("int", 1)]
    assert True not in members_after and True not in table_after and len(table_after) == 2
    assert members_after != members
    assert (count, count_after) == (3, 2)
    # A match's captures activate in trie order: the last one is the newest.
    assert _hashable(value) == _hashable(list(members)[-1])
    assert _hashable(value_after) == _hashable(list(members_after)[-1])


def test_query_hash_sees_a_value_change_kind():
    got = []

    def source(f):
        flipped = f.field(False, "flipped")
        f.assert_(lambda: rec("kv", S("a"), True) if flipped.value else None)

        def hold(g):
            g.assert_(rec("kv", S("a"), 1))
            g.stop_when_message(S("drop"))

        def flip():
            flipped.value = True

        f.react(hold)
        f.on_message(S("flip"), flip)

    def reader(f):
        table = f.query_hash(rec("kv", CAPTURE, CAPTURE))
        value = f.query_value(rec("kv", S("a"), CAPTURE), "default")

        def snap():
            got.append((table.value.get(S("a")), value.value))

        f.on_asserted(rec("kv", S("a"), 1), lambda: f.send(S("flip")))
        f.on_asserted(rec("kv", S("a"), True), lambda: (snap(), f.send(S("drop"))))
        # With both matches for the key standing, dropping the older one
        # leaves the newer: a key, or a query_value, reads its most
        # recently asserted match that still stands.
        f.on_retracted(rec("kv", S("a"), 1), snap)

    ground_run([spawn_actor("src", source), spawn_actor("rd", reader)])
    assert [(type(k).__name__, k, type(v).__name__, v) for k, v in got] == [
        ("bool", True, "bool", True)
    ] * 2
