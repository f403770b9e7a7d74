from hypothesis import given, strategies as st

from dataspace import trie
from dataspace.patch import (
    EMPTY_PATCH,
    Patch,
    aggregate_visibility,
    apply_patch,
    drop_outbound,
    from_sets,
    label_patch,
    lift_inbound,
    limit,
    render,
)
from dataspace.programs import PROGRAMS
from dataspace.trie import EMPTY, assertion_set, search_value, unwrap_trie
from dataspace.values import INBOUND, Symbol, observe, outbound, inbound

import test_acceptance
import test_facet
from oracles import build_universe

S = Symbol
U = build_universe()

value_sets = st.lists(st.sampled_from(U), max_size=6).map(tuple)
patches = st.builds(lambda a, r: from_sets(a, r), value_sets, value_sets)


@given(value_sets, value_sets)
def test_patch_halves_disjoint(a, r):
    p = from_sets(a, r)
    assert trie.intersect(p.added, p.removed) is EMPTY


@given(patches, value_sets)
def test_limit_reports_true_change_only(p, base):
    s = assertion_set(base)
    limited = limit(p, s)
    assert trie.intersect(limited.added, s) is EMPTY
    assert trie.subtract(limited.removed, s) is EMPTY
    assert apply_patch(s, limited) == apply_patch(s, p)
    assert limit(limited, s) == limited


@given(patches, value_sets, value_sets)
def test_visibility_hides_what_others_still_assert(p, before, after):
    b, a = assertion_set(before), assertion_set(after)
    vis = aggregate_visibility(p, b, a)
    assert trie.subtract(vis.added, p.added) is EMPTY
    assert trie.subtract(vis.removed, p.removed) is EMPTY
    assert trie.intersect(vis.added, b) is EMPTY
    assert trie.intersect(vis.removed, a) is EMPTY


def test_visibility_reads_additions_before_and_removals_after():
    p = from_sets([S("x"), S("y")], [S("z"), S("w")])
    before = assertion_set([S("x"), S("z")])
    after = assertion_set([S("w"), S("x"), S("y")])
    assert aggregate_visibility(p, before, after) == from_sets([S("y")], [S("z")])


def test_empty_patch_is_identity():
    s = assertion_set([1, (S("a"),)])
    assert apply_patch(s, EMPTY_PATCH) == s
    assert EMPTY_PATCH.is_empty()


def test_label_and_unwrap_roundtrip():
    p = from_sets([1, (S("a"), 2)], [S("b")])
    labelled = label_patch(p, INBOUND)
    assert unwrap_trie(INBOUND, labelled.added) == p.added
    assert unwrap_trie(INBOUND, labelled.removed) == p.removed


def test_lift_inbound_wraps_everything():
    p = from_sets([S("x")], [S("y")])
    lifted = lift_inbound(p)
    assert search_value(inbound(S("x")), lifted.added) == ()
    assert search_value(inbound(S("y")), lifted.removed) == ()


def test_drop_outbound_translates_layer_boundary():
    p = from_sets(
        [outbound(S("x")), observe(inbound(S("y"))), S("internal")],
        [outbound(S("z"))],
    )
    dropped = drop_outbound(p)
    assert frozenset(trie.key_set(dropped.added)) == frozenset(
        {(S("x"),), (observe(S("y")),)}
    )
    assert frozenset(trie.key_set(dropped.removed)) == frozenset({(S("z"),)})


def test_drop_outbound_cancels_a_swap_that_meets_outside():
    # Different assertions inside the layer, one outer assertion: the
    # swap changes nothing outside, which only normalizing shows.
    swap = from_sets([outbound(observe(S("x")))], [observe(inbound(S("x")))])
    assert not swap.is_empty()
    assert drop_outbound(swap) == EMPTY_PATCH


def test_trusted_patches_are_disjoint(monkeypatch):
    trusted = Patch.disjoint
    made = 0

    def checked(added, removed):
        nonlocal made
        assert trie.intersect(added, removed) is EMPTY
        made += 1
        return trusted(added, removed)

    monkeypatch.setattr(Patch, "disjoint", staticmethod(checked))
    for run in PROGRAMS.values():
        run(lambda _line: None)
    test_acceptance.test_random_programs_match_shadow_model()
    test_facet.test_bag_patches_match_re_union_oracle()
    assert made > 1000, made


def test_render_sorted_and_stable():
    p = from_sets([S("b"), S("a")], [1])
    assert render(p) == "+{a, b}/-{1}"


def test_render_writes_out_a_wide_and_a_deep_member():
    # A member's tokens are read off one chain, so it costs O(its tokens)
    # to enumerate, and no walk recurses per level.
    deep = 1
    for _ in range(1500):
        deep = (deep,)
    p = Patch(assertion_set([tuple(range(3000))]), assertion_set([deep]))
    wide = "(" + " ".join(map(str, range(3000))) + ")"
    assert render(p) == "+{" + wide + "}/-{" + "(" * 1500 + "1" + ")" * 1500 + "}"
