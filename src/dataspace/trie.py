"""Canonical assertion tries.

A trie indexes sets of assertion values by their token serialization.
There are three node shapes: the empty trie, a leaf carrying a value,
and a branch with a default subtree (the wildcard continuation, which
consumes one whole value) plus token-labeled edges.  Canonical form
drops edges indistinguishable from the default and collapses empty
branches, so two canonical tries denote the same set exactly when they
are structurally equal.  The empty trie reads as a branch with no edges
and an empty default, so a walk may take a node's ``edges`` and
``default`` without first testing it for emptiness.

The kernel's operations are the set operations ``union``,
``intersect`` and ``subtract`` (all through ``combine``: where both
operands hold a leaf, the left one, dropped by a subtraction), the
routing walk ``update_routes``, and the read-only walks ``search_value``
(one value's leaf), ``leaves_meeting`` and ``captures`` (the member walk).

A pattern compiles to a chain, one node per pre-order item
(``values.spec_items``, the one walk from a value or pattern to its
tokens): a token is an edge and a wildcard a default.  ``compile_items``
builds it as a right fold over the items, reading a capture mark as a
wildcard, and neither it nor ``spec_items`` recurses, so a pattern of any
depth compiles (``test_compile_pattern_takes_a_deeply_nested_value``).
``compile_pattern`` is that fold for a plain pattern; a facet endpoint
compiles the trie it asserts from the items it walks its pattern into,
and a subscription's projections walk the same items.

Equality is structural, with an identity fast path, and walks the two
tries with an explicit stack, so deep tries compare without recursion;
so does ``render`` (not gated).  Canonical form is kept per rebuilt
edge: ``combine`` checks only the edges it recomputes (not gated),
because an edge copied unchanged from a canonical operand, under that
operand's own default, stays canonical.  An edge is redundant when its
child is ``make_tail(arity, default)``; ``_redundant`` finds that by
walking the child, without building the tail.

A set operation hands back the left operand it keeps whole: where the
node it would build has that operand's own default and the same child
object on every edge, ``combine`` returns the operand, not a copy.
Told by identity, with no equality walk, this holds at every depth, so
``union(a, b)``, ``intersect(a, b)`` and ``subtract(a, b)`` are ``a``
itself whenever they equal ``a``, and a caller handed the result can
tell it unchanged with ``is``
(``test_set_ops_hand_back_the_left_operand_they_keep_whole``).

A routing trie has frozensets of stream ids as leaves.
``update_routes`` applies one stream's patch to it in a single walk
(``test_box_round_trip_trie_work``) with four results: the new routing
trie, the stream's new own set (the old one itself if the patch changes
nothing), and the part of the change that becomes visible, added and
removed; it also collects the audience, the leaf sets of a second
routing trie (the standing subscriptions) at the values that become
visible or invisible.  A visible half is the patch's own node, not
rebuilt, until the walk meets an edge whose visible part is not the
patch's child there (told by identity); from that edge on it is a copy
of the patch's edge map, set or dropped edge by edge.  So where all of a
half shows, the walk hands back the half itself and builds no edge map
for it (``test_update_routes_hands_back_the_halves_that_show_whole``).
The walk gathers the audience as it goes, at the leaves it reaches;
``leaves_meeting`` reads which leaf sets a probe meets without building
an intersection (not gated).

One walk reads a trie's members: ``captures`` follows a spec's compiled
pre-order items (``spec_items``) down the trie with its own stack, and
spells each match's captures as a flat token tuple without building the
projected trie (``test_presence_dispatch_builds_no_projection``).
Facet dispatch reads captures with it and asks it whether an instance
is known (capture-free items, answered at the first match; not gated);
``key_set`` and ``pattern_set`` are it with a capture mark per value.
``project`` builds the projected trie, one frame per token; no runtime
path calls it, and it stays as the reference dispatch is checked
against and as a span target of the benchmark.

``combine``, ``project`` and ``update_routes`` recurse through
module-level helpers that take their context as arguments.  A nested
function that calls itself is a reference cycle (it holds its own
closure cell) that only the cyclic collector frees, so its garbage
would make that collector run over the whole heap now and then; the
walkers define none, and an event leaves the collector nothing
(``test_event_path_leaves_no_cyclic_garbage``).

Edge labels are tokens (see ``values``): tuples, so an edge lookup
hashes and compares in C (not gated).
"""
from __future__ import annotations

from typing import Callable, Iterable

from .values import (
    ATOM_KIND_OF_TYPE,
    PushTok,
    Record,
    UNARY_TOKS,
    Value,
    WILDCARD,
    CAPTURE,
    atom_token,
    parse_exact,
    serialize,
    spec_items,
    token_sort_key,
)


class InfiniteSet(ValueError):
    """Raised when enumerating a trie that is not structurally finite."""


class Trie:
    __slots__ = ()
    __hash__ = None  # a value compared structurally, not a key


class _Empty(Trie):
    __slots__ = ()
    edges: dict = {}  # never written to

    def __repr__(self) -> str:
        return "mt"


EMPTY = _Empty()
_Empty.default = EMPTY


class Ok(Trie):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Ok) and self.value == other.value)

    def __repr__(self) -> str:
        return f"ok({_format_leaf(self.value)})"


class Branch(Trie):
    __slots__ = ("default", "edges")

    def __init__(self, default: Trie, edges: dict):
        # Trusts its input: callers pass canonical nodes, or go through branch().
        self.default = default
        self.edges = edges

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Branch) and _same(self, other))

    def __repr__(self) -> str:
        return render(self)


UNIT = Ok(())


def _same(a: Trie, b: Trie) -> bool:
    """Structural equality of two tries, without recursion."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        if type(a) is not type(b):
            return False
        if type(a) is Ok:
            if a.value != b.value:
                return False
            continue
        if len(a.edges) != len(b.edges):
            return False
        for tok, child in a.edges.items():
            other = b.edges.get(tok)
            if other is None:
                return False
            todo.append((child, other))
        todo.append((a.default, b.default))
    return True


def _format_leaf(value) -> str:
    if value == ():
        return "()"
    if isinstance(value, frozenset):
        return "{" + ",".join(str(x) for x in sorted(value)) + "}"
    return repr(value)


def make_tail(n: int, t: Trie) -> Trie:
    """Wrap ``t`` in ``n`` wildcard layers, each consuming one value."""
    if t is EMPTY:
        return EMPTY
    for _ in range(n):
        t = Branch(t, {})
    return t


def _redundant(child: Trie, arity: int, default: Trie) -> bool:
    """Whether an edge of this arity to ``child`` is implied by ``default``,
    that is, ``child == make_tail(arity, default)``."""
    if default is EMPTY:
        return child is EMPTY
    for _ in range(arity):
        if type(child) is not Branch or child.edges:
            return False
        child = child.default
    return child is default or child == default


def branch(default: Trie, edges: dict) -> Trie:
    """Canonicalizing branch constructor."""
    pruned = None
    for tok, child in edges.items():
        if _redundant(child, tok.arity, default):
            if pruned is None:
                pruned = dict(edges)
            del pruned[tok]
    if pruned is not None:
        edges = pruned
    if not edges and default is EMPTY:
        return EMPTY
    return Branch(default, edges)


# ---------------------------------------------------------------------------
# Pattern compilation


def compile_pattern(pattern) -> Trie:
    """Compile a wildcard-capable pattern into a canonical unit trie, the
    fold of its pre-order items.  Raises ValueError for a capture mark or
    for a part that is neither a pattern nor a value, and NotAValue for
    NaN."""
    items = spec_items(pattern)
    if CAPTURE in items:
        raise ValueError("capture marks are not allowed in plain patterns")
    return compile_items(items)


def compile_items(items: list) -> Trie:
    """The unit trie of a pattern's pre-order items (``spec_items``), a
    capture mark read as a wildcard: a right fold, one chain node per
    item, each canonical as built (its continuation is never EMPTY)."""
    k = UNIT
    for item in reversed(items):
        k = Branch(k, {}) if item is WILDCARD or item is CAPTURE else Branch(EMPTY, {item: k})
    return k


def assertion_set(values: Iterable[Value]) -> Trie:
    """Build a unit trie holding the given values (or patterns)."""
    t = EMPTY
    for v in values:
        t = union(t, compile_pattern(v))
    return t


# ---------------------------------------------------------------------------
# Search


def search_value(v: Value, t: Trie):
    """Look up one value, walking ``t`` along the value itself (an edge
    or the default per part); returns the leaf value or None.  Edges are
    looked up with plain ``(kind, atom)`` and ``(label, arity)`` tuples,
    which hash and compare equal to the stored tokens, so no token
    object is made on the way but for an atom outside
    ``ATOM_KIND_OF_TYPE``.

    Every part of ``v`` is checked (``serialize``), also below a
    default and past the point where the trie runs out, so a non-value
    (a wildcard among them) raises NotAValue whatever ``t`` holds.  The
    walk keeps its own stack, so a deep value does not recurse.
    """
    todo = [v]
    while todo:
        v = todo.pop()
        if type(t) is not Branch:
            # Out of trie, or a leaf before the value ends: no match.
            t = EMPTY
            serialize(v)
            continue
        if isinstance(v, tuple):
            label, fields = None, v
        elif isinstance(v, Record):
            label, fields = v.label, v.fields
        else:
            # An atom of a listed type is looked up in one step; any other
            # part (a float, a subclass, a non-value) goes through
            # atom_token, which checks it.
            kind = ATOM_KIND_OF_TYPE.get(type(v))
            child = t.edges.get((kind, v) if kind is not None else atom_token(v))
            t = t.default if child is None else child
            continue
        child = t.edges.get((label, len(fields)))
        if child is None:
            serialize(v)  # the default consumes the whole value
            t = t.default
        else:
            t = child
            todo.extend(reversed(fields))
    return t.value if type(t) is Ok else None


# ---------------------------------------------------------------------------
# Set operations

def combine(t1: Trie, t2: Trie, keep_left: bool = True, keep_right: bool = True) -> Trie:
    """Generic structural set operation on two tries of equal depth.

    ``keep_left`` and ``keep_right`` state whether a subtree present on
    only that side is kept unchanged or dropped.  Where both sides hold
    a leaf, the result is the left leaf, or EMPTY when only one side is
    kept (a subtraction).  The walk recurses through ``_combine``, which
    takes the flags as arguments, so a call leaves no reference cycle
    behind (see the module docstring).  A result equal to ``t1`` is
    ``t1`` itself: a node whose default and every edge came back as
    ``t1``'s own objects is returned as it was, not rebuilt.  (A leaf is
    taken from ``t1``, so a result equal to ``t2`` is not always ``t2``.)
    """
    return _combine(t1, t2, keep_left, keep_right)


def _combine(a: Trie, b: Trie, keep_left: bool, keep_right: bool) -> Trie:
    if a is EMPTY:
        return b if keep_right else EMPTY
    if b is EMPTY:
        return a if keep_left else EMPTY
    if type(a) is Ok or type(b) is Ok:
        return a if keep_left == keep_right else EMPTY
    w, bw = a.default, b.default
    # A default with EMPTY on the other side is kept or dropped whole.
    if bw is EMPTY:
        w = w if keep_left else EMPTY
    elif w is EMPTY:
        w = bw if keep_right else EMPTY
    else:
        w = _combine(w, bw, keep_left, keep_right)
    # Iterate the smaller edge map; ties go to the left operand.
    left_small = len(a.edges) <= len(b.edges)
    small, large = (a, b) if left_small else (b, a)
    small_edges, large_edges = small.edges, large.edges
    if small.default is not EMPTY:
        edges = {}
        for tok, child in large_edges.items():
            if tok not in small_edges:
                n = tok.arity
                tail = make_tail(n, small.default) if n else small.default
                child = (_combine(tail, child, keep_left, keep_right) if left_small
                         else _combine(child, tail, keep_left, keep_right))
                if child is not EMPTY if w is EMPTY else not _redundant(child, n, w):
                    edges[tok] = child
    elif keep_right if left_small else keep_left:
        # The large side's edges carry over unchanged, and w is its
        # default, so they stay canonical: only the small side's
        # edges, recomputed below, are checked.
        edges = dict(large_edges)
    else:
        edges = {}
    for tok, child in small_edges.items():
        n = tok.arity
        other = large_edges.get(tok) or (
            make_tail(n, large.default) if n and large.default is not EMPTY else large.default
        )
        # Where the large side holds nothing, the child is kept or dropped whole.
        if other is EMPTY:
            child = child if (keep_left if left_small else keep_right) else EMPTY
        else:
            child = (_combine(child, other, keep_left, keep_right) if left_small
                     else _combine(other, child, keep_left, keep_right))
        if child is not EMPTY if w is EMPTY else not _redundant(child, n, w):
            edges[tok] = child
        elif tok in edges:
            del edges[tok]
    if w is a.default and len(edges) == len(a.edges):
        # As many edges as a, under a's default: a itself if each is a's
        # own child (a missing one reads as None).
        a_edges = a.edges
        for tok, child in edges.items():
            if a_edges.get(tok) is not child:
                break
        else:
            return a
    if not edges and w is EMPTY:
        return EMPTY
    return Branch(w, edges)


# union, intersect and subtract answer at once when an operand is EMPTY
# or both are the same trie.


def union(t1: Trie, t2: Trie) -> Trie:
    if t1 is EMPTY or t1 is t2:
        return t2
    if t2 is EMPTY:
        return t1
    return combine(t1, t2)


def intersect(t1: Trie, t2: Trie) -> Trie:
    if t1 is EMPTY or t2 is EMPTY:
        return EMPTY
    if t1 is t2:
        return t1
    return combine(t1, t2, False, False)


def subtract(t1: Trie, t2: Trie) -> Trie:
    if t1 is EMPTY or t1 is t2:
        return EMPTY
    if t2 is EMPTY:
        return t1
    return combine(t1, t2, True, False)


def may_meet(t1: Trie, t2: Trie) -> bool:
    """Whether two canonical tries may share a member.

    A cheap, conservative test: it follows the edges both tries share
    and answers False only when every such path ends before reaching a
    leaf or a default (a wildcard) on either side, so that the sets are
    certainly disjoint.
    """
    todo = [(t1, t2)]
    while todo:
        a, b = todo.pop()
        if a is EMPTY or b is EMPTY:
            continue
        if type(a) is not Branch or type(b) is not Branch:
            return True
        if a.default is not EMPTY or b.default is not EMPTY:
            return True
        if len(a.edges) > len(b.edges):
            a, b = b, a
        large = b.edges
        for tok, child in a.edges.items():
            other = large.get(tok)
            if other is not None:
                todo.append((child, other))
    return False


def universe(n: int = 1) -> Trie:
    """The trie accepting every sequence of ``n`` values."""
    return make_tail(n, UNIT)


def relabel(f: Callable, t: Trie) -> Trie:
    """Map (or drop) leaf values; f returns the new leaf value or None."""
    if t is EMPTY:
        return EMPTY
    if type(t) is Ok:
        new = f(t.value)
        return EMPTY if new is None else Ok(new)
    default = t.default
    if default is not EMPTY:
        default = relabel(f, default)
    edges = {}
    for tok, child in t.edges.items():
        edges[tok] = relabel(f, child)
    return branch(default, edges)


# ---------------------------------------------------------------------------
# Routing tries
#
# A routing trie maps each assertion to the frozenset of ids of the
# streams asserting it.  One stream's own set is the unit trie of the
# assertions whose leaf sets hold its id.


def update_routes(routes: Trie, own: Trie, sid, added: Trie, removed: Trie, interests: Trie) -> tuple:
    """Apply stream ``sid``'s requested change to a routing trie, in one walk.

    ``own`` is the stream's own set, ``added``/``removed`` are the
    requested halves, and ``interests`` is the routing trie the audience
    is read from (the mux passes ``observation_bodies(routes)``).
    Returns four canonical tries and a set, ``(routes_new, own_new,
    visible_added, visible_removed, audience)``.  Pointwise, for each
    value x:

    - x in ``own`` and in ``removed``: ``sid`` leaves x's leaf set and
      the own set; x is visible if the leaf set empties;
    - x not in ``own`` and in ``added``: ``sid`` joins x's leaf set and
      the own set; x is visible if the leaf set was empty;
    - otherwise nothing changes at x.

    A subtree the walk leaves unchanged is returned as it came, so
    ``own_new`` is ``own`` itself exactly when ``limit`` of the request
    against ``own`` is empty; where ``own`` is empty, the new own set
    is the addition itself, not a copy.  So is a visible half: at a node
    whose visible default is the request's own, the half stays the
    request's node until an edge first comes back other than the
    request's child there (told by identity, which walks no subtree);
    only then is the request's edge map copied, and that edge and every
    later one set or dropped.  So ``visible_added`` is ``added`` exactly
    when every addition shows, and ``visible_removed`` is ``removed``
    when every removal vanishes.  The
    audience is the union of ``interests``' leaf sets at the visible
    values, ``leaves_meeting(interests, visible_added, visible_removed)``.

    The walk goes down the edges of ``added`` and ``removed``.  Under a
    removal wildcard it also goes down ``own``'s edges, since only what
    the stream holds can be removed.  It goes down the edges of
    ``routes`` and ``interests`` only under an addition wildcard or
    where ``own`` has a default; elsewhere the visible change has no
    default, so an edge of ``interests`` off the walk meets none of it.
    Where neither half has a default, those of ``routes`` and ``own``
    carry over.  Other edges carry over unchanged, under an unchanged
    default, so they stay canonical; rebuilt edges are checked with
    ``_redundant``, as in ``combine``.  An update thus visits O(|patch| +
    |own set under its removal wildcards| + |edges of routes and
    interests under its addition wildcards|) nodes, plus the fan-out of
    each node it rebuilds, whose ``routes`` and ``own`` edges it copies:
    one value asserted beside k siblings costs O(k).  A visible half
    adds a copy only at a node where part of the request does not show;
    where all of it shows, it costs one identity test per edge.  Where
    ``own`` is empty (a join, or a part of ``added`` new to the stream),
    nothing can be removed and the stream comes to hold exactly the
    addition, so the walk takes a leaner branch there that carries only
    ``routes``, ``added`` and ``interests``; it builds the visible
    addition by the same rule.  Where ``routes`` is empty too, the same
    branch walks the addition, the empty trie reading as a branch with
    no edges: at each leaf the addition reaches, the value shows and
    ``interests``' leaf set there joins the audience.
    """
    ids = frozenset((sid,))
    audience: set = set()
    return *_update_routes(routes, own, added, removed, interests, ids, audience), audience


def _update_routes(r: Trie, o: Trie, a: Trie, d: Trie, c: Trie, ids: frozenset, audience: set) -> tuple:
    if o is EMPTY:
        # Holding nothing here, the stream removes nothing and comes to
        # hold exactly ``a``: only the routing trie and the visible
        # addition are worked out, below ``a``'s edges and, under its
        # default, those of ``r`` and ``c``.
        if a is EMPTY:
            return r, o, EMPTY, EMPTY
        if type(a) is Ok:
            if type(r) is Ok:
                return Ok(r.value | ids), a, EMPTY, EMPTY
            # Nobody holds the value, so it shows.
            if c is not EMPTY:
                audience.update(c.value)
            return Ok(ids), a, a, EMPTY
        r_edges, rw = r.edges, r.default
        a_edges, aw = a.edges, a.default
        c_edges, cw = c.edges, c.default
        if aw is EMPTY:
            wr, wva, visit = rw, EMPTY, a_edges
        else:
            wr, _, wva, _ = _update_routes(rw, EMPTY, aw, EMPTY, cw, ids, audience)
            visit = {**a_edges, **r_edges, **c_edges}
        # eva is None while the visible half is still ``a`` itself.
        er, eva = r_edges.copy(), None if wva is aw else {}
        for tok in visit:
            n = tok.arity
            # A missing edge reads as its default's tail; ``a`` has one
            # for every visited token.
            ka = a_edges.get(tok) or (make_tail(n, aw) if n else aw)
            kr, _, kva, _ = _update_routes(
                r_edges.get(tok) or (make_tail(n, rw) if n and rw is not EMPTY else rw),
                EMPTY,
                ka,
                EMPTY,
                c_edges.get(tok) or (make_tail(n, cw) if n and cw is not EMPTY else cw),
                ids, audience,
            )
            if kr is EMPTY if wr is EMPTY else _redundant(kr, n, wr):
                er.pop(tok, None)
            else:
                er[tok] = kr
            if kva is not ka or eva is not None:
                eva = _visible_edge(eva, a_edges, tok, n, kva, wva)
        return (
            Branch(wr, er),
            a,
            a if eva is None else Branch(wva, eva) if eva or wva is not EMPTY else EMPTY,
            EMPTY,
        )
    if a is EMPTY and d is EMPTY:
        return r, o, EMPTY, EMPTY
    if type(r) is Ok:
        if d is EMPTY:
            return r, o, EMPTY, EMPTY  # held already
        left = r.value - ids
        if left:
            return Ok(left), EMPTY, EMPTY, EMPTY
        if c is not EMPTY:
            audience.update(c.value)
        return EMPTY, EMPTY, EMPTY, d
    r_edges, rw = r.edges, r.default
    o_edges, ow = o.edges, o.default
    a_edges, aw = a.edges, a.default
    d_edges, dw = d.edges, d.default
    c_edges, cw = c.edges, c.default
    # A dict, not a set, so that edges are visited in a fixed order.
    visit = {**a_edges, **d_edges}
    if aw is EMPTY and dw is EMPTY:
        wr, wo, wva, wvd = rw, ow, EMPTY, EMPTY
    else:
        wr, wo, wva, wvd = _update_routes(rw, ow, aw, dw, cw, ids, audience)
        visit.update(o_edges)
        if aw is not EMPTY or ow is not EMPTY:
            visit.update(r_edges)
            visit.update(c_edges)
    same = wo is ow
    # eva, evd are None while a visible half is still the request's node.
    er, eo = r_edges.copy(), o_edges.copy()
    eva = None if wva is aw else {}
    evd = None if wvd is dw else {}
    for tok in visit:
        n = tok.arity
        # A missing edge reads as its default's tail (a trie is never falsy).
        ko = o_edges.get(tok) or (make_tail(n, ow) if n and ow is not EMPTY else ow)
        ka = a_edges.get(tok) or (make_tail(n, aw) if n and aw is not EMPTY else aw)
        kd = d_edges.get(tok) or (make_tail(n, dw) if n and dw is not EMPTY else dw)
        kr, kn, kva, kvd = _update_routes(
            r_edges.get(tok) or (make_tail(n, rw) if n and rw is not EMPTY else rw),
            ko,
            ka,
            kd,
            c_edges.get(tok) or (make_tail(n, cw) if n and cw is not EMPTY else cw),
            ids, audience,
        )
        if kva is not ka or eva is not None:
            eva = _visible_edge(eva, a_edges, tok, n, kva, wva)
        if kvd is not kd or evd is not None:
            evd = _visible_edge(evd, d_edges, tok, n, kvd, wvd)
        if kn is ko and wo is ow:
            continue  # unchanged here, under unchanged defaults
        same = False
        if kr is EMPTY if wr is EMPTY else _redundant(kr, n, wr):
            er.pop(tok, None)
        else:
            er[tok] = kr
        if kn is EMPTY if wo is EMPTY else _redundant(kn, n, wo):
            eo.pop(tok, None)
        else:
            eo[tok] = kn
    if same:
        return r, o, EMPTY, EMPTY
    return (
        Branch(wr, er) if er or wr is not EMPTY else EMPTY,
        Branch(wo, eo) if eo or wo is not EMPTY else EMPTY,
        a if eva is None else Branch(wva, eva) if eva or wva is not EMPTY else EMPTY,
        d if evd is None else Branch(wvd, evd) if evd or wvd is not EMPTY else EMPTY,
    )


def _visible_edge(edges, request_edges: dict, tok, n: int, child: Trie, w: Trie) -> dict:
    """Set or drop edge ``tok`` of a visible half under its default ``w``
    and hand back the half's edge map, a copy of the request's edge map
    ``request_edges`` if ``edges`` is None (the half was the request's)."""
    if edges is None:
        edges = request_edges.copy()
    if child is not EMPTY if w is EMPTY else not _redundant(child, n, w):
        edges[tok] = child
    else:
        edges.pop(tok, None)
    return edges


def leaves_meeting(t: Trie, *probes: Trie) -> set:
    """The union of ``t``'s leaf values on paths that some probe also
    reaches: the leaves of ``intersect(t, probe)``, without building it."""
    acc: set = set()
    todo = [(t, p) for p in probes]
    while todo:
        a, b = todo.pop()
        if a is EMPTY or b is EMPTY:
            continue
        if type(a) is Ok:
            acc.update(a.value)
            continue
        aw, bw = a.default, b.default
        a_edges, b_edges = a.edges, b.edges
        todo.append((aw, bw))
        if aw is EMPTY and bw is EMPTY:
            for tok in a_edges if len(a_edges) <= len(b_edges) else b_edges:
                if tok in a_edges and tok in b_edges:
                    todo.append((a_edges[tok], b_edges[tok]))
        else:
            # An edge on one side meets the other side's default.
            toks = {**(a_edges if bw is not EMPTY else {}), **(b_edges if aw is not EMPTY else {})}
            for tok in toks:
                n = tok.arity
                todo.append((
                    a_edges.get(tok) or make_tail(n, aw),
                    b_edges.get(tok) or make_tail(n, bw),
                ))
    return acc


# ---------------------------------------------------------------------------
# Projection


def project(items: list, t: Trie) -> Trie:
    """Select assertions matching a spec (its ``spec_items``) and keep
    only captured positions: a unit trie over n-value sequences, n being
    the number of capture marks; with none, ``UNIT`` exactly when some
    member of ``t`` matches.  ``_project`` follows the items, one frame
    per token, counting the whole values a wildcard or capture mark has
    left to consume, and is passed ``items`` and ``end``, so it closes
    over nothing.  A wildcard stops at its first branch that gives
    ``UNIT``, which only a capture-free rest of the items can give."""
    return _project(items, len(items), 0, t, 0)


def _project(items: list, end: int, i: int, t: Trie, n: int) -> Trie:
    # n > 0: items[i - 1] is a wildcard or capture mark with n whole
    # values left to consume.
    while not n:
        if i == end:
            return UNIT if type(t) is Ok else EMPTY
        if type(t) is not Branch:
            return EMPTY
        item = items[i]
        i += 1
        if item is WILDCARD or item is CAPTURE:
            n = 1
        else:
            child = t.edges.get(item)
            t = make_tail(item.arity, t.default) if child is None else child
    if type(t) is not Branch:
        return EMPTY
    n -= 1
    if items[i - 1] is CAPTURE:
        edges = {}
        for tok, child in t.edges.items():
            edges[tok] = _project(items, end, i, child, n + tok.arity)
        return branch(_project(items, end, i, t.default, n), edges)
    acc = _project(items, end, i, t.default, n)
    for tok, child in t.edges.items():
        # Only a capture-free rest of the items gives UNIT, and a
        # capture-free walk that has matched cannot grow any more.
        if acc is UNIT:
            break
        acc = union(acc, _project(items, end, i, child, n + tok.arity))
    return acc


def captures(items: list, t: Trie, wild=None) -> list:
    """The captures of a spec's items in ``t``, read off ``t`` in one walk.

    Each member of ``project(items, t)`` comes back once, as the flat
    tuple of its captures' tokens, in trie order (a default first, then
    the edges in token order), which ``values.parse_exact`` reads into
    the value tuples ``key_set(project(items, t))`` gives.  Items with no
    capture mark give ``[()]`` at their first match, or ``[]``.  A
    default a capture takes on the way to a match reads back as the
    token ``wild``, or raises InfiniteSet if ``wild`` is None.  The walk
    follows the items as ``_project`` does, with its own stack of ``(item
    index, node, values left to consume, captured tokens)``, the tokens a
    chain of ``(token, rest)`` pairs made a tuple only at a match, so a
    member costs O(its tokens); a wildcard keeps no token.
    """
    end = len(items)
    found: dict = {}  # token tuple -> None: deduplicated, in walk order
    todo = [(0, t, 0, None)]
    while todo:
        i, t, n, chain = todo.pop()
        while not n:
            if i == end:
                if type(t) is Ok:
                    if chain is None:
                        return [()]  # no capture mark: the first match answers
                    tok, chain = chain
                    if chain is None:  # one token, as an atom's capture is
                        toks = (tok,)
                    else:
                        toks = [tok]
                        while chain is not None:
                            tok, chain = chain
                            toks.append(tok)
                        toks.reverse()
                        toks = tuple(toks)
                    if None in toks:
                        raise InfiniteSet("a capture matches infinitely many values")
                    found[toks] = None
                break
            if type(t) is not Branch:
                break
            item = items[i]
            i += 1
            if item is WILDCARD or item is CAPTURE:
                n = 1
            else:
                child = t.edges.get(item)
                t = make_tail(item.arity, t.default) if child is None else child
        else:
            # items[i - 1] is a wildcard or capture mark with n whole
            # values left to consume.
            if type(t) is not Branch:
                continue
            n -= 1
            cap = items[i - 1] is CAPTURE
            if t.default is not EMPTY:
                todo.append((i, t.default, n, (wild, chain) if cap else chain))
            for tok, child in t.edges.items():
                todo.append((i, child, n + tok.arity, (tok, chain) if cap else chain))
    if len(found) < 2:
        return list(found)
    return sorted(found, key=_tokens_key)


def _tokens_key(toks: tuple) -> list:
    # A default, read back as WILDCARD, sorts before every token.
    return [(-1,) if tok is WILDCARD else tok.sort_key() for tok in toks]


# ---------------------------------------------------------------------------
# Enumeration: ``captures`` with a capture mark per value of a member


def key_set(t: Trie) -> tuple:
    """Enumerate a structurally finite trie: its members as value tuples,
    in trie order.  Raises InfiniteSet at a default."""
    return tuple(map(parse_exact, captures([CAPTURE] * _width(t), t)))


def pattern_set(t: Trie) -> tuple:
    """Enumerate a trie built from finitely many patterns, as key_set does,
    except that a default reads back as a wildcard: this tolerates
    cofinite sets, as long as the branch structure is finite."""
    return tuple(map(parse_exact, captures([CAPTURE] * _width(t), t, WILDCARD)))


def _width(t: Trie) -> int:
    """How many values each member of ``t`` spans, read along one path."""
    n = left = 0  # values begun, and whole values the current one still owes
    while type(t) is Branch:
        if not left:
            n += 1
            left = 1
        if t.default is EMPTY:
            tok = next(iter(t.edges))
            left += tok.arity
            t = t.edges[tok]
        else:
            t = t.default
        left -= 1
    return n


# ---------------------------------------------------------------------------
# Rendering


def render(t: Trie) -> str:
    """Stable debug rendering: mt, ok(α), br(default, {tok→…}).  The
    walk keeps its own stack of tries and text still to write."""
    out: list = []
    todo: list = [t]
    while todo:
        t = todo.pop()
        if type(t) is str:
            out.append(t)
        elif t is EMPTY:
            out.append("mt")
        elif type(t) is Ok:
            out.append(f"ok({_format_leaf(t.value)})")
        else:
            parts: list = ["br(", t.default, ", {"]
            for i, tok in enumerate(sorted(t.edges, key=token_sort_key)):
                parts += [", " if i else "", f"{tok!r}→", t.edges[tok]]
            parts.append("})")
            todo.extend(reversed(parts))
    return "".join(out)


def wrap_trie(label, t: Trie) -> Trie:
    """Wrap every member of a 1-value trie in a unary labeled record."""
    if t is EMPTY:
        return EMPTY
    return Branch(EMPTY, {UNARY_TOKS.get(label) or PushTok((label, 1)): t})


def unwrap_trie(label, t: Trie) -> Trie:
    """The set {c | label(c) ∈ t}; one edge hop thanks to implicit pops."""
    if type(t) is not Branch:
        return EMPTY
    child = t.edges.get(UNARY_TOKS.get(label) or PushTok((label, 1)))
    if child is not None:
        return child
    return EMPTY if t.default is EMPTY else Branch(t.default, {})
