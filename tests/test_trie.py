import itertools
import random

import pytest
from hypothesis import given, seed, settings, strategies as st

from dataspace import trie
from dataspace.engine import ground_run
from dataspace.facet import _instantiate, _spliced, spawn_actor
from dataspace.patch import Patch, aggregate_visibility, apply_patch, limit, observation_bodies
from dataspace.trace import Tracer
from dataspace.trie import (
    EMPTY,
    Branch,
    InfiniteSet,
    Ok,
    assertion_set,
    branch,
    compile_pattern,
    key_set,
    make_tail,
    project,
    spec_items,
    render,
    search_value,
    leaves_meeting,
    union,
    intersect,
    subtract,
    update_routes,
)
from dataspace.values import (
    CAPTURE,
    OBSERVE,
    NotAValue,
    PushTok,
    Record,
    Symbol,
    WILDCARD,
    atom_token,
    decompose,
    observe,
    parse_exact,
)

from oracles import build_universe, count_calls, match, random_pattern, trie_members, _hashable, _match

S = Symbol
U = build_universe()

patterns = st.builds(
    lambda seed: random_pattern(random.Random(seed)), st.integers(0, 10**9)
)
concrete_sets = st.lists(st.sampled_from(U), max_size=8).map(tuple)


def tset(values):
    return frozenset(_hashable(v[0]) for v in values)


def check_wf(t, n):
    """Decide whether ``t`` is n-well-formed: every path to a leaf spells
    exactly ``n`` whole values."""
    if t is EMPTY:
        return True
    if isinstance(t, Ok):
        return n == 0
    if n == 0:
        return False
    return check_wf(t.default, n - 1) and all(
        check_wf(child, n - 1 + tok.arity) for tok, child in t.edges.items()
    )


@given(patterns)
def test_compiled_tries_well_formed(p):
    assert check_wf(compile_pattern(p), 1)


@given(patterns, patterns)
def test_set_ops_preserve_wf_and_canonical_idempotence(p, q):
    a, b = compile_pattern(p), compile_pattern(q)
    for t in (union(a, b), intersect(a, b), subtract(a, b)):
        assert check_wf(t, 1)
    assert union(a, a) == a
    assert intersect(a, a) == a
    assert subtract(a, a) is EMPTY
    assert union(a, EMPTY) == a
    assert intersect(a, EMPTY) is EMPTY


@given(patterns, st.sampled_from(U))
def test_search_agrees_with_matching(p, v):
    t = compile_pattern(p)
    assert (search_value(v, t) is not None) == match(p, v)


@given(patterns, patterns, st.sampled_from(U))
def test_algebra_agrees_with_sets(p, q, v):
    a, b = compile_pattern(p), compile_pattern(q)
    assert (search_value(v, union(a, b)) is not None) == (match(p, v) or match(q, v))
    assert (search_value(v, intersect(a, b)) is not None) == (match(p, v) and match(q, v))
    assert (search_value(v, subtract(a, b)) is not None) == (match(p, v) and not match(q, v))


@given(concrete_sets)
def test_key_set_roundtrip(values):
    t = assertion_set(values)
    got = [tuple(map(_hashable, k)) for k in key_set(t)]
    assert len(got) == len(set(got)) and set(got) == {(_hashable(v),) for v in values}


@given(concrete_sets, concrete_sets)
def test_insertion_order_irrelevant(xs, ys):
    both = list(xs) + list(ys)
    rev = list(reversed(both))
    assert assertion_set(both) == assertion_set(rev)


def test_tries_are_not_hashable():
    # Tries are compared structurally; nothing keys a table by one.
    for t in (EMPTY, trie.UNIT, compile_pattern((S("x"), WILDCARD))):
        with pytest.raises(TypeError):
            hash(t)


def test_key_set_refuses_infinite():
    with pytest.raises(InfiniteSet):
        key_set(compile_pattern((WILDCARD, 1)))


def test_key_set_reads_back_a_deeply_nested_value():
    # Built by hand, so that only the enumeration is under test.
    depth = 1500
    t = Branch(EMPTY, {atom_token(1): trie.UNIT})
    for _ in range(depth):
        t = Branch(EMPTY, {PushTok((None, 1)): t})
    ((v,),) = key_set(t)
    # Unwrapped level by level: == on nested tuples recurses too.
    for _ in range(depth):
        assert type(v) is tuple and len(v) == 1
        (v,) = v
    assert (type(v), v) == (int, 1)


def test_compile_pattern_takes_a_deeply_nested_value():
    depth = 1500
    v = 1
    for _ in range(depth):
        v = (v,)
    t = compile_pattern(v)
    assert search_value(v, t) == ()
    w = WILDCARD
    for _ in range(depth):
        w = (w,)
    assert search_value(v, compile_pattern(w)) == ()


def test_render_takes_a_wide_trie():
    toks = ["⟪1000"] + [str(i) for i in range(1000)]
    want = "".join(f"br(mt, {{{tok}→" for tok in toks) + "ok(())" + "})" * len(toks)
    assert repr(compile_pattern(tuple(range(1000)))) == want


SPEC_ATOMS = st.sampled_from([True, False, 0, 1, -2, 1.0, 0.5, "", "1", S("a"), S("1")])


def _specs(leaves):
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.lists(kids, max_size=3).map(tuple),
            st.builds(
                lambda label, fields: Record(label, tuple(fields)),
                st.sampled_from([S("r"), OBSERVE]),
                st.lists(kids, max_size=3),
            ),
        ),
        max_leaves=10,
    )


concrete_values = _specs(SPEC_ATOMS)
wild_patterns = _specs(st.one_of(SPEC_ATOMS, st.just(WILDCARD)))
subscription_specs = _specs(st.one_of(SPEC_ATOMS, st.just(WILDCARD), st.just(CAPTURE)))


def _replace_leaves(p, leaf):
    if isinstance(p, tuple):
        return tuple(_replace_leaves(f, leaf) for f in p)
    if isinstance(p, Record):
        return Record(p.label, tuple(_replace_leaves(f, leaf) for f in p.fields))
    return leaf(p)


@given(subscription_specs)
def test_subscription_trie_compiles_from_its_items(spec):
    # A subscription asserts observe(spec), its capture marks read as
    # wildcards, compiled from the spec's own items.
    t = trie.compile_items([PushTok((OBSERVE, 1))] + spec_items(spec))
    wild = _replace_leaves(spec, lambda p: WILDCARD if p is CAPTURE else p)
    assert t == compile_pattern(observe(wild))
    assert check_wf(t, 1)


@given(wild_patterns, st.lists(concrete_values, min_size=1, max_size=4), st.lists(concrete_values, max_size=4))
def test_compiled_pattern_agrees_with_matching(p, fillers, others):
    # The pattern with its wildcards filled in matches it; the other
    # values may or may not.
    fill = iter(fillers * 10)
    filled = _replace_leaves(p, lambda q: next(fill, fillers[0]) if q is WILDCARD else q)
    assert match(p, filled)
    t = compile_pattern(p)
    for v in [filled] + others:
        assert (search_value(v, t) == ()) == match(p, v), v


def test_search_key_must_be_one_value():
    t = assertion_set([1])
    for key in ((1, [2]), (1, WILDCARD), CAPTURE):
        with pytest.raises(NotAValue):
            search_value(key, t)


def test_default_fallback_skips_whole_value():
    # A trie of pairs (x, 1) for any x: searching must skip an entire
    # compound first element, not a single token.
    t = compile_pattern((WILDCARD, 1))
    assert search_value(((S("a"), (S("b"),)), 1), t) == ()
    assert search_value(((S("a"),), 2), t) is None


def test_canonical_constructor_prunes_redundant_edges():
    w = compile_pattern(WILDCARD)
    assert isinstance(w, Branch) and not w.edges
    # an edge identical to what the default implies must vanish
    t = branch(Ok(()), {trie.atom_token(1): Ok(())})
    assert t == branch(Ok(()), {})
    assert branch(EMPTY, {}) is EMPTY


def test_make_tail_of_empty_is_empty():
    assert make_tail(3, EMPTY) is EMPTY


def test_projection_selects_captures():
    pres, says = S("present"), S("says")
    store = assertion_set(
        [
            Record(pres, (S("a"),)),
            Record(pres, (S("b"),)),
            Record(says, (S("a"), "hello")),
        ]
    )
    got = key_set(project(spec_items(Record(says, (CAPTURE, CAPTURE))), store))
    assert frozenset(got) == frozenset({(S("a"), "hello")})
    got = key_set(project(spec_items(Record(pres, (CAPTURE,))), store))
    assert frozenset(got) == frozenset({(S("a"),), (S("b"),)})


def test_capture_free_projection_stops_at_its_first_match():
    # Dispatch's known-before probe is such a walk: over a trie of many
    # wide wildcard patterns, re-walking every branch after a match
    # took thousands of calls.
    rng = random.Random(2)
    t = assertion_set(
        [tuple(rng.choice((WILDCARD, 0, 1, 2, 3, 4)) for _ in range(8)) for _ in range(40)]
    )
    got, calls = count_calls(lambda: project(spec_items((WILDCARD,) * 8), t))
    assert got is trie.UNIT
    walked = calls[trie._project.__code__] + calls[trie._combine.__code__]
    assert walked <= 40, walked


def test_key_set_keeps_atom_kinds_apart_in_trie_order():
    p = lambda x: Record(S("p"), (x,))
    got = key_set(project(spec_items(p(CAPTURE)), assertion_set([p(1), p(True), p(1.0)])))
    assert [(type(c), c) for (c,) in got] == [(bool, True), (int, 1), (float, 1.0)]
    got = key_set(assertion_set([S("b"), "a", 3.0, (1,), 2, False]))
    assert [(type(v), v) for (v,) in got] == [
        (bool, False), (int, 2), (float, 3.0), (str, "a"), (Symbol, S("b")), (tuple, (1,))
    ]


def test_pattern_set_reads_defaults_as_wildcards_in_trie_order():
    p = lambda *xs: Record(S("p"), xs)
    t = assertion_set([p(2, 1), p(True, WILDCARD), p(WILDCARD, "x")])
    want = [p(WILDCARD, "x"), p(True, WILDCARD), p(2, 1), p(2, "x")]
    assert [spec_items(v) for (v,) in trie.pattern_set(t)] == [spec_items(v) for v in want]


def test_projection_of_wildcard_capture_is_infinite():
    t = compile_pattern((S("x"), WILDCARD))
    with pytest.raises(InfiniteSet):
        key_set(project(spec_items((S("x"), CAPTURE)), t))


@given(concrete_sets, patterns)
def test_projection_oracle_on_finite_sets(values, p):
    spec = _capture_everything(p)
    t = assertion_set(values)
    expected = set()
    for v in values:
        caps = _match(spec, v)
        if caps is not None:
            expected.add(tuple(_hashable(c) for c in caps))
    got = {
        tuple(_hashable(c) for c in caps) for caps in key_set(project(spec_items(spec), t))
    }
    assert got == expected


def _projected_captures(items, t):
    """The reference: the capture projection, as the oracle enumerates it."""
    members = trie_members(project(items, t))
    return members if members == "infinite" else [tuple(_hashable(c) for c in caps) for caps in members]


def _filled(spec, fillers) -> list:
    """Copies of ``spec``, one per filler, its marks filled in turn from
    the fillers, starting at that one."""
    members = []
    for k in range(len(fillers)):
        fill = itertools.cycle(fillers[k:] + fillers[:k])
        members.append(_replace_leaves(spec, lambda p: next(fill) if p is CAPTURE or p is WILDCARD else p))
    return members


@settings(max_examples=200, deadline=None)
@given(
    # Half the specs lead with a capture, so that the trie holds several.
    st.one_of(subscription_specs, subscription_specs.map(lambda spec: (CAPTURE, spec))),
    st.lists(concrete_values, min_size=2, max_size=5),
    st.integers(-3, 4),
    st.lists(wild_patterns, max_size=3),
)
def test_captures_agree_with_projection(spec, fillers, wild, others):
    # The trie holds copies of the spec with its marks filled in and
    # unrelated patterns.  A WILDCARD filler puts a default under a mark.
    if 0 <= wild < len(fillers):
        fillers[wild] = WILDCARD
    t = assertion_set(_filled(spec, fillers) + others)
    items = spec_items(spec)
    want = _projected_captures(items, t)
    try:
        found = trie.captures(items, t)
    except InfiniteSet:
        assert want == "infinite"
        return
    assert len(set(found)) == len(found)
    assert [tuple(_hashable(c) for c in parse_exact(toks)) for toks in found] == want
    # Splicing a capture's tokens in at the capture marks spells the instance.
    for toks in found:
        assert _spliced(items, toks) == spec_items(_instantiate(spec, parse_exact(toks)))


# Tries with defaults, edges to EMPTY under them, and atoms of every kind.
tries_with_defaults = st.builds(
    lambda xs, ys: subtract(assertion_set(xs), assertion_set(ys)),
    st.lists(wild_patterns, max_size=6),
    st.lists(wild_patterns, max_size=3),
)


@seed(29)
@settings(max_examples=200, deadline=None)
@given(tries_with_defaults, wild_patterns, st.lists(wild_patterns, max_size=2))
def test_capture_free_captures_tell_whether_some_member_matches(t, pattern, others):
    # Dispatch asks whether an instance is known this way.  The pattern
    # is also asked over a trie that holds it, so that both answers show.
    items = spec_items(pattern)
    for u in (t, union(t, assertion_set([pattern] + others))):
        assert trie.captures(items, u) == ([()] if project(items, u) is not EMPTY else [])


@seed(29)
@settings(max_examples=200, deadline=None)
@given(
    tries_with_defaults,
    st.one_of(subscription_specs, subscription_specs.map(lambda spec: (CAPTURE, spec, CAPTURE))),
    st.lists(concrete_values, min_size=2, max_size=5),
)
def test_key_set_and_pattern_set_enumerate_as_the_oracle_does(t, spec, fillers):
    # The trie also holds copies of the spec with its marks filled in, so
    # that its projection holds several members, one value per mark.
    t = union(t, assertion_set(_filled(spec, fillers)))
    for u in (t, project(spec_items(spec), t)):
        try:
            got = [spec_items(m) for m in key_set(u)]
        except InfiniteSet:
            got = "infinite"
        want = trie_members(u)
        assert got == (want if want == "infinite" else [spec_items(m) for m in want])
        want = [spec_items(m) for m in trie_members(u, WILDCARD)]
        assert [spec_items(m) for m in trie.pattern_set(u)] == want


def test_captures_read_several_members_in_trie_order():
    p = lambda *xs: Record(S("p"), xs)
    t = assertion_set([p(S("b"), 1), p((2,), 1.0), p(True, WILDCARD), p("a", 1), p(2, "x")])
    items = spec_items(p(CAPTURE, 1))
    assert [parse_exact(toks) for toks in trie.captures(items, t)] == list(key_set(project(items, t)))
    assert [[(type(c), c) for c in parse_exact(toks)] for toks in trie.captures(items, t)] == [
        [(bool, True)], [(str, "a")], [(Symbol, S("b"))],
    ]
    with pytest.raises(InfiniteSet):
        trie.captures(spec_items(p(1, CAPTURE)), assertion_set([p(WILDCARD, 3), p(1, WILDCARD)]))
    # A default under a wildcard, not a capture, is no infinite set.
    got = trie.captures(spec_items(p(WILDCARD, CAPTURE)), assertion_set([p(WILDCARD, 3), p(1, 2)]))
    assert [parse_exact(toks) for toks in got] == [(2,), (3,)]


def _capture_everything(p):
    # replace each wildcard with a capture so projections stay finite
    if p is WILDCARD:
        return CAPTURE
    if isinstance(p, tuple):
        return tuple(_capture_everything(f) for f in p)
    return p


def test_render_stable_forms():
    assert render(EMPTY) == "mt"
    assert render(Ok(())) == "ok(())"
    t = compile_pattern((WILDCARD, 1))
    assert render(t) == "br(mt, {⟪2→br(br(mt, {1→ok(())}), {})})"


def test_relabel_drops_and_maps():
    t = assertion_set([1, 2])
    r = trie.relabel(lambda _: frozenset({7}), t)
    assert search_value(1, r) == frozenset({7})
    assert trie.relabel(lambda _: None, t) is EMPTY


@given(concrete_sets)
def test_pattern_set_reads_back_finite_sets(values):
    t = assertion_set(values)
    assert trie.pattern_set(t) == key_set(t)


def assert_canonical(t):
    """No branch is empty and no edge is implied by its branch's default."""
    todo = [t]
    while todo:
        t = todo.pop()
        if not isinstance(t, Branch):
            continue
        assert t.edges or t.default is not EMPTY
        for tok, child in t.edges.items():
            assert child != make_tail(tok.arity, t.default)
            todo.append(child)
        todo.append(t.default)


# Many patterns per operand, wildcards included, so that defaults are
# not EMPTY and combine copies, recomputes and prunes edges under them.
wide_operands = st.lists(patterns, min_size=4, max_size=16)
# Values the chains' results are checked on.
WITNESSES = U[::8]


def _mask_memo(witnesses):
    """A function giving the bitmask of ``witnesses`` that some pattern
    matches.  Each pattern's matches are worked out once, keyed by its
    token tuple so that atom kinds stay apart."""
    matches: dict = {}

    def mask(patterns) -> int:
        out = 0
        for p in patterns:
            key = tuple(spec_items(p))
            if key not in matches:
                matches[key] = sum(1 << i for i, v in enumerate(witnesses) if match(p, v))
            out |= matches[key]
        return out

    return mask


_set_op_mask = _mask_memo(WITNESSES)


@given(wide_operands, st.lists(st.tuples(st.integers(0, 2), wide_operands), max_size=6))
def test_set_op_chains_stay_canonical(first, steps):
    t = assertion_set(first)
    inside = _set_op_mask(first)
    for op, ps in steps:
        t = (union, intersect, subtract)[op](t, assertion_set(ps))
        assert_canonical(t)
        assert check_wf(t, 1)
        hit = _set_op_mask(ps)
        inside = (inside | hit, inside & hit, inside & ~hit)[op]
    assert sum(1 << i for i, v in enumerate(WITNESSES) if search_value(v, t) is not None) == inside


# Members of a unit trie: patterns and universe values.
unit_members = st.one_of(patterns, st.sampled_from(U))


@given(st.lists(unit_members, min_size=1, max_size=6), st.lists(unit_members, max_size=6),
       st.lists(st.booleans(), max_size=6))
def test_set_ops_hand_back_the_left_operand_they_keep_whole(xs, ys, shared):
    # b holds some of a's members, so that an operation often keeps a
    # whole; then it returns a itself, not an equal copy.  (b is not
    # pinned: a leaf of the result is a's, never b's.)
    a = assertion_set(xs)
    b = assertion_set([x for x, keep in zip(xs, shared) if keep] + ys)
    for op in (union, intersect, subtract):
        t = op(a, b)
        assert t is a or t != a, op.__name__


#: One atom of each kind, all equal as Python numbers or spelled alike.
KINDS = (1, True, 1.0, "1", S("1"))
P = S("p")


def _kind_pattern(rng, depth=2):
    r = rng.random()
    if r < 0.15:
        return WILDCARD
    if depth == 0 or r < 0.5:
        return rng.choice(KINDS)
    fields = tuple(_kind_pattern(rng, depth - 1) for _ in range(rng.randrange(3)))
    return fields if r < 0.75 else Record(P, fields)


def _kind_compounds(parts):
    singles = [(x,) for x in parts]
    pairs = [(x, y) for x in parts for y in parts]
    return [c for fields in [()] + singles + pairs for c in (fields, Record(P, fields))]


_SHALLOW = [c for c in _kind_compounds(KINDS) if len(decompose(c)[1]) <= 1]
#: Values the routing walk's results are checked on: every atom kind,
#: flat compounds over them, compounds nesting those, and subscriptions
#: to some of them, nested ones included.
KIND_WITNESSES = (
    list(KINDS) + _kind_compounds(KINDS)
    + [c for x in _SHALLOW for c in ((x,), Record(P, (x,)))]
)
KIND_WITNESSES += [observe(x) for x in KIND_WITNESSES[::3]] + [observe(observe(x)) for x in KINDS]
#: Every witness the routing walk is checked on.
ROUTE_WITNESSES = KIND_WITNESSES + WITNESSES
kind_patterns = st.builds(lambda seed: _kind_pattern(random.Random(seed)), st.integers(0, 10**9))
#: Operands mix kind-mixed patterns with the wider-shaped ``patterns`` and
#: with subscriptions (``observe``, once or twice, of either), as many per
#: operand as ``wide_operands`` so that defaults are not EMPTY and the
#: walk chooses which edges to visit under them.
route_operands = st.lists(
    st.one_of(
        kind_patterns,
        patterns,
        st.one_of(kind_patterns, patterns).map(observe),
        kind_patterns.map(lambda p: observe(observe(p))),
    ),
    min_size=4,
    max_size=16,
)


_witness_mask = _mask_memo(ROUTE_WITNESSES)


def _leaves(t):
    """Union of a routing trie's leaf sets."""
    out, todo = set(), [t]
    while todo:
        t = todo.pop()
        if isinstance(t, Ok):
            out |= t.value
        elif isinstance(t, Branch):
            todo.append(t.default)
            todo.extend(t.edges.values())
    return out


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3), route_operands, route_operands), max_size=8))
def test_route_chains_stay_canonical(steps):
    # update_routes against limit, aggregate_visibility, apply_patch and
    # leaves_meeting, and the routing trie against a leaf-set map over
    # witness values.  The walk writes into none of its operands, though
    # a visible half it rebuilds starts from a copy of the request's edges.
    routes = EMPTY
    own = {sid: EMPTY for sid in range(4)}
    want = [set() for _ in ROUTE_WITNESSES]
    for op, sid, adds, removes in steps:
        if op == 0:
            adds, removes = [], [WILDCARD]
        requested = Patch(assertion_set(adds), assertion_set(removes))
        interests = observation_bodies(routes)
        operands = (routes, own[sid], requested.added, requested.removed, interests)
        before = [render(t) for t in operands]
        out = update_routes(routes, own[sid], sid, requested.added, requested.removed, interests)
        assert [render(t) for t in operands] == before
        for t in out[:4]:
            assert_canonical(t)
            assert check_wf(t, 1)
        routes_new, own_new, appeared, vanished, audience = out
        assert audience == leaves_meeting(interests, appeared, vanished)
        applied = limit(requested, own[sid])
        assert own_new == apply_patch(own[sid], applied)
        # The walk hands back the own set itself exactly when it changes nothing.
        assert (own_new is own[sid]) == applied.is_empty()
        visible = aggregate_visibility(applied, routes, routes_new)
        assert (appeared, vanished) == (visible.added, visible.removed)
        # A requested half comes back itself exactly when all of it shows.
        assert (appeared is requested.added) == (appeared == requested.added)
        assert (vanished is requested.removed) == (vanished == requested.removed)
        assert leaves_meeting(routes, appeared, vanished) == (
            _leaves(intersect(routes, appeared)) | _leaves(intersect(routes, vanished))
        )
        routes, own[sid] = routes_new, own_new
        add_mask, remove_mask = _witness_mask(adds), _witness_mask(removes)
        for i, ids in enumerate(want):
            add, remove = add_mask >> i & 1, remove_mask >> i & 1
            if remove and not add:
                ids.discard(sid)
            elif add and not remove:
                ids.add(sid)
        for v, ids in zip(ROUTE_WITNESSES, want):
            assert (search_value(v, routes) or set()) == ids, v
        for s, held in own.items():
            assert held == trie.relabel(lambda ids: () if s in ids else None, routes)


def test_update_routes_hands_back_the_halves_that_show_whole():
    # Where every requested addition becomes visible, the visible-added
    # half is ``added`` itself, not a rebuilt copy, and so for removals
    # that all vanish.  Where part of a half was already held, by the
    # stream or by another, the walk rebuilds the part that shows.
    p = lambda x: Record(S("p"), (x,))
    own = {0: EMPTY, 1: EMPTY}
    routes = EMPTY

    def update(sid, adds, removes):
        nonlocal routes
        requested = Patch(assertion_set(adds), assertion_set(removes))
        interests = observation_bodies(routes)
        out = update_routes(routes, own[sid], sid, requested.added, requested.removed, interests)
        routes_new, own_new, appeared, vanished, _ = out
        visible = aggregate_visibility(limit(requested, own[sid]), routes, routes_new)
        assert (appeared, vanished) == (visible.added, visible.removed)
        routes, own[sid] = routes_new, own_new
        return requested, appeared, vanished

    update(1, [p(9), S("q")], [])
    requested, appeared, _ = update(0, [p(1), p(2)], [])
    assert appeared is requested.added
    requested, appeared, _ = update(0, [p(2), p(3)], [])  # p(2) already held
    assert appeared is not requested.added and appeared == assertion_set([p(3)])
    requested, appeared, _ = update(0, [p(9), p(4)], [])  # p(9) held by stream 1
    assert appeared is not requested.added and appeared == assertion_set([p(4)])
    requested, appeared, _ = update(0, [p(WILDCARD)], [])  # beside p(9) and held ones
    assert appeared is not requested.added
    requested, _, vanished = update(0, [], [p(WILDCARD), p(1)])
    assert vanished is not requested.removed  # stream 1 still holds p(9)
    requested, _, vanished = update(0, [p(5), p(6)], [])
    requested, _, vanished = update(0, [], [p(5), p(6)])
    assert vanished is requested.removed
    # The first hidden edge comes, in visit order, after edges that show:
    # the half is then a copy of the request's edges, kept up to that edge.
    last_field = lambda half: list(next(iter(half.edges.values())).edges)[-1]
    requested, appeared, _ = update(0, [p(7), p(8), p(9)], [])  # p(9) held by stream 1
    assert last_field(requested.added) == atom_token(9)
    assert appeared is not requested.added and appeared == assertion_set([p(7), p(8)])
    update(1, [p(6)], [])
    update(0, [p(5), p(6)], [])
    requested, _, vanished = update(0, [], [p(6), p(5)])  # stream 1 still holds p(6)
    assert last_field(requested.removed) == atom_token(6)
    assert vanished is not requested.removed and vanished == assertion_set([p(5)])


def test_tokens_keep_atom_kinds_apart():
    atoms = (1, 1.0, True, "1", Symbol("1"))
    keys = {atom_token(a): i for i, a in enumerate(atoms)}
    assert len(keys) == len(atoms)
    assert [keys[atom_token(a)] for a in atoms] == list(range(len(atoms)))
    pushes = {PushTok((None, 0)): 0, PushTok((None, 1)): 1, PushTok((S("a"), 1)): 2}
    assert len(pushes) == 3 and pushes[spec_items((2,))[0]] == 1


def test_wide_tuple_assertion_publishes():
    wide = tuple(range(900))
    ds = ground_run([spawn_actor("wide", lambda f: f.assert_(wide))])
    assert search_value(wide, ds.assertions()) == ()


def test_wide_subscription_is_delivered():
    # Projection walks one frame per token, so a subscription as wide as
    # an assertion the mux routes is delivered to its handler.
    wide = tuple(range(900))
    for tracer in (None, Tracer()):
        got = []

        def watcher(f):
            f.on_asserted(tuple([CAPTURE] * len(wide)), lambda *caps: got.append(caps))

        ds = ground_run(
            [spawn_actor("wide", lambda f: f.assert_(wide)), spawn_actor("watcher", watcher)],
            tracer=tracer,
        )
        assert ds.crashes == {}
        assert got == [wide]
