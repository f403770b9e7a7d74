from dataspace.engine import ground_run, spawn_dataspace
from dataspace.facet import (
    InfiniteMatchSet,
    PRIORITY_QUERY_ADD,
    spawn_actor,
)
from dataspace.values import CAPTURE, Record, Symbol, WILDCARD, observe

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

        def snap():
            got["set"] = members.value
            got["hash"] = dict(table.value)
            got["count"] = count.value

        f.on_start(lambda: f.send(S("later")))
        f.on_message(S("later"), snap)
        f.assert_(observe(S("later")))

    ground_run([spawn_actor("src", source), spawn_actor("rd", reader)])
    assert got["set"] == frozenset({S("a"), S("b")})
    assert got["hash"] == {S("a"): 1, S("b"): 2}
    assert got["count"] == 2


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
    assert "wild#2" in ds.living_names()
    assert "narrow#1" not in ds.living_names()


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
