import random

from dataspace import trie
from dataspace.engine import Dataspace, Message, spawn_dataspace
from dataspace.facet import ActorRuntime, spawn_actor
from dataspace.mux import Mux
from dataspace.patch import EMPTY_PATCH, RETRACT_ALL, Patch, assert_patch, from_sets, observation_bodies, retract_patch
from dataspace.values import CAPTURE, Record, Symbol, WILDCARD, inbound, observe, outbound

from oracles import calls_by_file, count_calls, package_calls

S = Symbol


def pres(x):
    return Record(S("present"), (x,))


def test_events_go_to_interested_streams_only():
    m = Mux()
    watcher, _, _ = m.add_stream(assert_patch(observe(pres(WILDCARD))))
    bystander, _, _ = m.add_stream()
    speaker, _, events = m.add_stream(assert_patch(pres(S("a"))))
    assert events == [(watcher, assert_patch(pres(S("a"))))]


def test_feedback_catches_up_new_interest():
    m = Mux()
    speaker, _, _ = m.add_stream(assert_patch(pres(S("a"))))
    late, _, events = m.add_stream(assert_patch(observe(pres(WILDCARD))))
    assert events == [(late, assert_patch(pres(S("a"))))]


def test_interest_withdrawal_feeds_back_removals():
    m = Mux()
    m.add_stream(assert_patch(pres(S("a"))))
    watcher, _, _ = m.add_stream(assert_patch(observe(pres(WILDCARD))))
    _, events = m.update_stream(watcher, retract_patch(observe(pres(WILDCARD))))
    assert events == [(watcher, retract_patch(pres(S("a"))))]


def test_duplicate_assertions_mask_retraction():
    m = Mux()
    watcher, _, _ = m.add_stream(assert_patch(observe(pres(WILDCARD))))
    s1, _, _ = m.add_stream(assert_patch(pres(S("a"))))
    s2, _, events = m.add_stream(assert_patch(pres(S("a"))))
    assert events == []  # second copy changes nothing visible
    _, events = m.update_stream(s1, retract_patch(pres(S("a"))))
    assert events == []  # still asserted by s2
    _, events = m.update_stream(s2, retract_patch(pres(S("a"))))
    assert events == [(watcher, retract_patch(pres(S("a"))))]


def test_no_op_patch_produces_no_events():
    m = Mux()
    m.add_stream(assert_patch(observe(pres(WILDCARD))))
    s, _, _ = m.add_stream(assert_patch(pres(S("a"))))
    before, routes = m.streams[s], m.routes
    own, events = m.update_stream(s, assert_patch(pres(S("a"))))
    # A patch that changes nothing leaves the stream's set as it was:
    # the same object, not an equal copy.
    assert own is before and m.streams[s] is before and m.routes is routes
    assert events == []


def test_adding_a_stream_with_nothing_to_add_makes_no_walk(monkeypatch):
    m = Mux()
    m.add_stream(assert_patch(observe(pres(WILDCARD))))
    routes = m.routes
    walks = []
    monkeypatch.setattr(trie, "update_routes", lambda *args: walks.append(args))
    assert m.add_stream() == (1, trie.EMPTY, [])
    assert m.add_stream(EMPTY_PATCH) == (2, trie.EMPTY, [])
    assert m.routes is routes and walks == []
    assert m.streams[1] is m.streams[2] is trie.EMPTY


def test_fresh_subtree_audience_is_exact():
    # Nobody holds anything under p/2, so each addition is a fresh
    # subtree there, and its audience is read off the subscriptions at
    # the same depth: observe(p(_, 1)) hears p(2, 1) only, and of an
    # addition that holds wildcards, only the part it meets.
    p = lambda *xs: Record(S("p"), xs)
    for value, heard in (
        (p(2, 1), p(2, 1)),
        (p(1, 3), None),
        (p(2, 3), None),
        (p(2, WILDCARD), p(2, 1)),
        (p(WILDCARD, 3), None),
        (p(WILDCARD, WILDCARD), p(WILDCARD, 1)),
    ):
        m = Mux()
        watcher, _, _ = m.add_stream(assert_patch(observe(p(WILDCARD, 1))))
        _, _, events = m.add_stream(assert_patch(value))
        assert events == ([(watcher, assert_patch(heard))] if heard else []), value


def test_fresh_subtree_under_a_chain_of_defaults_needs_no_meeting(monkeypatch):
    # The relay's interests are a chain of defaults down to a leaf below
    # their label: the join loop reaches that leaf along the addition,
    # so the audience needs no separate meeting walk.
    m = Mux()
    watcher, _, _ = m.add_stream(assert_patch(observe(outbound(WILDCARD))))
    meetings, original = [], trie.leaves_meeting

    def counting(*args):
        meetings.append(args)
        return original(*args)

    monkeypatch.setattr(trie, "leaves_meeting", counting)
    _, _, events = m.add_stream(assert_patch(outbound(pres(1))))
    assert events == [(watcher, assert_patch(outbound(pres(1))))]
    assert meetings == []


def test_events_ascending_stream_order():
    m = Mux()
    ids = [m.add_stream(assert_patch(observe(pres(WILDCARD))))[0] for _ in range(4)]
    speaker, _, events = m.add_stream(assert_patch(pres(S("x"))))
    assert [t for t, _ in events] == sorted(ids)


def test_self_interest_feedback_includes_own_assertion():
    m = Mux()
    s, _, events = m.add_stream(
        from_sets(added=[pres(S("me")), observe(pres(WILDCARD))])
    )
    assert events == [(s, assert_patch(pres(S("me"))))]


def test_remove_stream_retracts_everything():
    m = Mux()
    watcher, _, _ = m.add_stream(assert_patch(observe(pres(WILDCARD))))
    s, _, _ = m.add_stream(
        from_sets(added=[pres(S("a")), pres(S("b"))])
    )
    events = m.remove_stream(s)
    assert events == [
        (watcher, from_sets(removed=[pres(S("a")), pres(S("b"))]))
    ]
    assert s not in m.streams


def _trie_calls(thunk):
    """Run ``thunk``; return its result and how many calls it made into
    the trie module, a measure of its trie work."""
    result, calls = count_calls(thunk)
    return result, calls_by_file(calls)[trie.__file__]


def test_remove_stream_work_does_not_grow_with_what_it_watched():
    work = []
    for k in (10, 100, 1000):
        m = Mux()
        for i in range(k):
            m.add_stream(assert_patch(pres(i)))
        meta, _, _ = m.add_stream(assert_patch(observe(observe(pres(WILDCARD)))))
        leaving, _, _ = m.add_stream(assert_patch(observe(pres(WILDCARD))))
        # What peers heard when removal was an update retracting everything.
        ref = Mux()
        ref.next_id, ref.streams, ref.routes = m.next_id, dict(m.streams), m.routes
        _, ref_events = ref.update_stream(leaving, RETRACT_ALL)
        events, calls = _trie_calls(lambda: m.remove_stream(leaving))
        assert events == [(t, p) for t, p in ref_events if t != leaving]
        assert events == [(meta, retract_patch(observe(pres(WILDCARD))))]
        assert m.routes == ref.routes and m.streams == {
            s: t for s, t in ref.streams.items() if s != leaving
        }
        work.append(calls)
    assert work[0] == work[1] == work[2], work


def test_wildcard_retraction_work_does_not_grow_with_peers():
    # Retracting p(_) removes only what the stream holds under it, so the
    # walk follows the stream's own set there, not the edges of the k
    # peers' assertions or of the k observers' subscriptions.
    work = []
    for k in (10, 100, 1000):
        m = Mux()
        watcher, _, _ = m.add_stream(assert_patch(observe(pres(WILDCARD))))
        for i in range(k):
            m.add_stream(assert_patch(pres(i)))
            m.add_stream(assert_patch(observe(pres(i))))
        # p(3) is also a peer's, p("3") is the holder's alone.
        holder, _, _ = m.add_stream(assert_patch(pres(3), pres("3")))
        ref = Mux()
        ref.next_id, ref.streams, ref.routes = m.next_id, dict(m.streams), m.routes
        ref_own, ref_events = ref.update_stream(holder, retract_patch(pres(3), pres("3")))
        (own, events), calls = _trie_calls(
            lambda: m.update_stream(holder, retract_patch(pres(WILDCARD)))
        )
        assert own == ref_own == ref.streams[holder] and events == ref_events
        assert events == [(watcher, retract_patch(pres("3")))]
        assert m.routes == ref.routes and m.streams == ref.streams
        work.append(calls)
    assert work[0] == work[1] == work[2], work


def test_route_message_concrete_and_wild():
    m = Mux()
    a, _, _ = m.add_stream(assert_patch(observe(pres(S("a")))))
    both, _, _ = m.add_stream(assert_patch(observe(pres(WILDCARD))))
    assert m.route_message(pres(S("a"))) == sorted([a, both])
    assert m.route_message(pres(S("z"))) == [both]
    assert m.route_message(S("unrelated")) == []
    # wildcard in the message body reaches every specific subscriber
    assert m.route_message(pres(WILDCARD)) == sorted([a, both])


ATOMS = (1, True, 1.0, "1", S("1"))
LABELS = (S("a"), S("b"))
#: Parts that make a body neither a value nor a pattern.
MALFORMED = ([1, 2], CAPTURE, float("nan"), object())


def _random_term(rng, depth, extra=()):
    r = rng.random()
    if depth <= 0 or r < 0.35:
        return rng.choice(ATOMS + extra)
    fields = tuple(_random_term(rng, depth - 1, extra) for _ in range(rng.randrange(3)))
    return fields if r < 0.6 else Record(rng.choice(LABELS), fields)


def _route_by_scan(m, body):
    """Routing as a scan over the streams, ignoring the routing index: a
    stream hears the body if one of its subscriptions meets it."""
    pattern = trie.compile_pattern(body)
    return sorted(
        sid for sid, own in m.streams.items()
        if trie.intersect(observation_bodies(own), pattern) is not trie.EMPTY
    )


def _outcome(route, m, body):
    try:
        return route(m, body)
    except Exception as e:
        return type(e)


def test_route_message_agrees_with_per_stream_scan():
    rng = random.Random(4)
    seen = {"routed": 0, "wild": 0, "malformed": 0}
    for _ in range(150):
        m = Mux()
        for _ in range(rng.randrange(1, 5)):
            pats = [_random_term(rng, 3, (WILDCARD, WILDCARD)) for _ in range(rng.randrange(1, 4))]
            subs = [observe(p) for p in pats]
            if rng.random() < 0.05:
                subs.append(WILDCARD)  # asserts everything, observe(...) included
            m.add_stream(from_sets(added=subs + [rng.choice(pats)]))
        for _ in range(40):
            r = rng.random()
            extra = (WILDCARD,) if r < 0.2 else (rng.choice(MALFORMED),) if r < 0.4 else ()
            body = _random_term(rng, 4, extra)
            want = _outcome(_route_by_scan, m, body)
            assert _outcome(Mux.route_message, m, body) == want, body
            if isinstance(want, type):
                seen["malformed"] += 1
            elif any(t is WILDCARD for t in trie.spec_items(body)):
                seen["wild"] += 1
            elif want:
                seen["routed"] += 1
    assert min(seen.values()) > 100, seen


box_state = lambda n: Record(S("box-state"), (n,))
set_box = lambda n: Record(S("set-box"), (n,))


def _box(state, order):
    """A box asserting ``state(n)`` for the last n it was sent in ``order(n)``."""

    def box(f):
        current = f.field(0, "current-value")
        f.assert_(lambda: state(current.value))

        def set_value(n):
            current.value = n

        f.on_message(order(CAPTURE), set_value)

    return box


def _round_trip_trie_work(box_action):
    """Trie work of one box round trip: the client, told to bump, sends
    set-box(n), and the box (spawned by ``box_action``) re-asserts
    box-state(n), which the client learns.  Returns the calls made to
    ``combine``, ``update_routes``, ``leaves_meeting``, ``Branch``,
    ``may_meet`` and the routing walk's visible-half helper, the calls
    made into the trie module, and the calls made into any ``dataspace``
    module, a measure of the round trip's whole kernel work."""
    bump = lambda n: Record(S("bump"), (n,))
    learned = []

    def client(f):
        f.on_message(inbound(bump(CAPTURE)), lambda n: f.send(set_box(n)))
        f.on_asserted(box_state(CAPTURE), learned.append)

    ds = Dataspace([box_action, spawn_actor("client", client)])
    ds.run()
    ds.handle(Message(bump(1)))
    _, calls = count_calls(lambda: ds.handle(Message(bump(2))))
    assert learned == [0, 1, 2]
    by_file = calls_by_file(calls)
    named = {"combine": trie.combine, "update_routes": trie.update_routes,
             "leaves_meeting": trie.leaves_meeting, "Branch": trie.Branch.__init__,
             "may_meet": trie.may_meet, "visible_edge": trie._visible_edge}
    return {name: calls[fn.__code__] for name, fn in named.items()}, by_file[trie.__file__], package_calls(calls)


def test_box_round_trip_trie_work():
    # The counts are deterministic, so the bounds are exact, within a
    # slack of 5: trie work on this path may not creep back, neither as
    # set operations nor inside the mux's routing walk.
    calls, total, kernel = _round_trip_trie_work(spawn_actor("box", _box(box_state, set_box)))
    assert calls["combine"] <= 2 and calls["update_routes"] == 1, calls
    # The routing walk reads the audience as it goes, and hands back a
    # requested half that shows whole instead of rebuilding it; so does
    # the client's intersection with its interests.
    assert calls["leaves_meeting"] == 0 and calls["Branch"] <= 7, calls
    # Every visible half shows whole, so none is copied edge by edge.
    assert calls["visible_edge"] == 0, calls
    # The box's flush compares its old and new state; nothing else may
    # meet: the client's patch leaves nothing of what it knew, and the
    # box's subscription shares no root edge with its state.
    assert calls["may_meet"] == 1, calls
    assert total <= 37, total
    # Nor may the fixed cost of a turn, a flush or a delivery creep back.
    assert kernel <= 94, kernel


def test_relay_round_trip_trie_work():
    # As above, with the box inside a nested dataspace, speaking
    # outbound(box-state(n)) and hearing inbound(set-box(n)): each update
    # crosses the layer once.  The inner relay hears the visible change
    # unrestricted, since dropping it to the outer layer selects what
    # the relay watches anyway.
    box = _box(lambda n: outbound(box_state(n)), lambda n: inbound(set_box(n)))
    calls, total, kernel = _round_trip_trie_work(spawn_dataspace([spawn_actor("box", box)], name="inner"))
    assert calls["combine"] <= 2 and calls["update_routes"] == 2, calls
    assert calls["leaves_meeting"] == 0 and calls["Branch"] <= 16, calls
    assert calls["visible_edge"] == 0, calls
    assert calls["may_meet"] == 1, calls
    assert total <= 56, total
    assert kernel <= 140, kernel


def test_published_trie_reaches_the_subscriber_whole():
    # A peer whose interests cover a visible half hears that half itself,
    # so the client comes to know the box's own compiled trie; the next
    # change removes that same object, and the client's knowledge update
    # makes no set operation walk.
    bump = lambda n: Record(S("bump"), (n,))

    def client(f):
        f.on_message(inbound(bump(CAPTURE)), lambda n: f.send(set_box(n)))
        f.on_asserted(box_state(CAPTURE), lambda n: None)

    ds = Dataspace([spawn_actor("box", _box(box_state, set_box)), spawn_actor("client", client)])
    ds.run()
    box_rt, client_rt = ds.find_actors(ActorRuntime)
    (state,) = [ep for ep in box_rt.endpoints.values() if ep.on is None]
    combines = []
    handle = client_rt.handle

    def counted(event):
        actions, calls = count_calls(lambda: handle(event))
        if isinstance(event, Patch):
            combines.append(calls[trie.combine.__code__])
        return actions

    client_rt.handle = counted
    for n in (1, 2):
        ds.handle(Message(bump(n)))
        assert client_rt.knowledge is state.current
    # The first update still subtracts the catch-up trie set-up rebuilt.
    assert combines[1:] == [0], combines


def test_wildcard_interest_intersected_with_concrete_change():
    m = Mux()
    watcher, _, _ = m.add_stream(
        assert_patch(observe((S("order"), WILDCARD, WILDCARD)))
    )
    _, _, events = m.add_stream(assert_patch((S("order"), 1, S("a"))))
    assert events == [(watcher, assert_patch((S("order"), 1, S("a"))))]


def test_pattern_assertion_delivered_to_meta_interest():
    # interest in interests: observe(observe(x)) learns about subscriptions
    m = Mux()
    meta, _, _ = m.add_stream(assert_patch(observe(observe(pres(WILDCARD)))))
    _, _, events = m.add_stream(assert_patch(observe(pres(S("a")))))
    assert events == [(meta, assert_patch(observe(pres(S("a")))))]


def test_all_assertions_unions_streams():
    m = Mux()
    m.add_stream(assert_patch(pres(S("a"))))
    m.add_stream(assert_patch(pres(S("b"))))
    assert frozenset(trie.key_set(m.all_assertions())) == frozenset(
        {(pres(S("a")),), (pres(S("b")),)}
    )
