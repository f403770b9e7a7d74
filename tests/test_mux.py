import sys

from dataspace import trie
from dataspace.mux import Mux
from dataspace.patch import RETRACT_ALL, assert_patch, from_sets, retract_patch
from dataspace.values import Record, Symbol, WILDCARD, observe

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
    applied, events = m.update_stream(s, assert_patch(pres(S("a"))))
    assert applied.is_empty() and events == []


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
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == trie.__file__:
            calls += 1

    sys.setprofile(count)
    try:
        result = thunk()
    finally:
        sys.setprofile(None)
    return result, calls


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


def test_route_message_concrete_and_wild():
    m = Mux()
    a, _, _ = m.add_stream(assert_patch(observe(pres(S("a")))))
    both, _, _ = m.add_stream(assert_patch(observe(pres(WILDCARD))))
    assert m.route_message(pres(S("a"))) == sorted([a, both])
    assert m.route_message(pres(S("z"))) == [both]
    assert m.route_message(S("unrelated")) == []
    # wildcard in the message body reaches every specific subscriber
    assert m.route_message(pres(WILDCARD)) == sorted([a, both])


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
    assert trie.key_set(m.all_assertions()) == frozenset(
        {(pres(S("a")),), (pres(S("b")),)}
    )
