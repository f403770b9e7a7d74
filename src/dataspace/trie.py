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
``intersect`` and ``subtract`` (all through ``combine``), ``project``,
the routing walk ``update_routes``, and the read-only walks
``search_value`` (one value's leaf), ``leaves_meeting`` and
``captures`` (a projection's members, without building it).

A pattern compiles to a chain, one node per pre-order item
(``spec_items``): a token is an edge and a wildcard a default.
``compile_items`` builds it as a right fold over the items, reading a
capture mark as a wildcard, and neither it nor ``spec_items``
recurses, so a pattern of any depth compiles.  ``compile_pattern`` is
that fold for a plain pattern, and a subscription compiles the trie it
asserts from the items its projections walk.

Equality is structural, with an identity fast path, and walks the two
tries with an explicit stack, so deep tries compare without recursion;
so does ``render``.
Canonical form is kept per rebuilt edge: ``combine`` checks
only the edges it recomputes, because an edge copied unchanged from a
canonical operand, under that operand's own default, stays canonical.
An edge is redundant when its child is ``make_tail(arity, default)``;
``_redundant`` finds that by walking the child, without building the
tail.

A routing trie has frozensets of stream ids as leaves.
``update_routes`` applies one stream's patch to it in a single walk
with four results: the new routing trie, the stream's new own set (the
old one itself if the patch changes nothing), and the part of the
change that becomes visible, added and removed; it also collects the
audience, the leaf sets of a second routing trie (the standing
subscriptions) at the values that become visible or invisible.
``leaves_meeting`` reads which leaf sets a probe meets without
building an intersection.

``project`` reads the captures of a pattern off a trie in one direct
walk over the pattern's compiled pre-order items (``spec_items``), one
frame per token it goes down; with no captures, it answers whether some
member matches.  A subscriber compiles its items once per change of its
pattern, not once per projection.  ``captures`` walks the same way with
its own stack, but collects the captured tokens of each match: it
returns the members ``key_set(project(items, t))`` would spell, in the
same order, as flat token tuples, without building the projected trie
or re-reading its paths.  Facet dispatch reads an endpoint's captures
with ``captures`` and asks ``project`` only the capture-free question
(is this instance known?).  ``project`` with ``key_set`` stays the
reference that ``test_dispatch_matches_two_probe_oracle`` checks
dispatch against, and the benchmark's spans wrap both by name.

``combine``, ``project`` and ``update_routes`` recurse through
module-level helpers that take their context as arguments.  A nested
function that calls itself is a reference cycle (it holds its own
closure cell) that only the cyclic collector frees, so its garbage
would make that collector run over the whole heap now and then; the
walkers define none, and an event leaves the collector nothing.

Edge labels are tokens (see ``values``): tuples, so an edge lookup
hashes and compares in C.
"""
from __future__ import annotations

from functools import partial
from typing import Callable, Iterable

from .values import (
    ATOM_KIND_OF_TYPE,
    INBOUND,
    OBSERVE,
    OUTBOUND,
    AtomTok,
    PushTok,
    Record,
    Value,
    WILDCARD,
    CAPTURE,
    atom_kind,
    atom_token,
    check_value,
    parse_exact,
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

    Every part of ``v`` is checked, also below a default and past the
    point where the trie runs out, so a non-value (a wildcard among
    them) raises NotAValue whatever ``t`` holds.  The walk keeps its
    own stack, so a deep value does not recurse.
    """
    todo = [v]
    while todo:
        v = todo.pop()
        if type(t) is not Branch:
            # Out of trie, or a leaf before the value ends: no match.
            t = EMPTY
            check_value(v)
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
            check_value(v)  # the default consumes the whole value
            t = t.default
        else:
            t = child
            todo.extend(reversed(fields))
    return t.value if type(t) is Ok else None


# ---------------------------------------------------------------------------
# Set operations

def combine(t1: Trie, t2: Trie, f: Callable, keep_left: bool = True, keep_right: bool = True) -> Trie:
    """Generic structural set operation on two tries of equal depth.

    ``f`` combines leaves (both arguments are Ok nodes).  ``keep_left``
    and ``keep_right`` state whether a subtree present on only that side
    is kept unchanged or dropped.  The walk recurses through
    ``_combine``, which takes ``f`` and the one-sided flags as
    arguments, so a call leaves no reference cycle behind (see the
    module docstring).
    """
    return _combine(t1, t2, f, keep_left, keep_right)


def _combine(a: Trie, b: Trie, f: Callable, keep_left: bool, keep_right: bool) -> Trie:
    if a is EMPTY:
        return b if keep_right else EMPTY
    if b is EMPTY:
        return a if keep_left else EMPTY
    if type(a) is Ok or type(b) is Ok:
        return f(a, b)
    w = a.default
    if w is not EMPTY or b.default is not EMPTY:
        w = _combine(w, b.default, f, keep_left, keep_right)
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
                child = (_combine(tail, child, f, keep_left, keep_right) if left_small
                         else _combine(child, tail, f, keep_left, keep_right))
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
        child = (_combine(child, other, f, keep_left, keep_right) if left_small
                 else _combine(other, child, f, keep_left, keep_right))
        if child is not EMPTY if w is EMPTY else not _redundant(child, n, w):
            edges[tok] = child
        elif tok in edges:
            del edges[tok]
    if not edges and w is EMPTY:
        return EMPTY
    return Branch(w, edges)


def _leaf_left(a: Ok, _b: Ok) -> Trie:
    return a


def _leaf_none(_a: Ok, _b: Ok) -> Trie:
    return EMPTY


def _tag(ids: frozenset, _leaf) -> frozenset:
    return ids


# union, intersect and subtract answer at once when an operand is EMPTY
# or both are the same trie.


def union(t1: Trie, t2: Trie) -> Trie:
    if t1 is EMPTY or t1 is t2:
        return t2
    if t2 is EMPTY:
        return t1
    return combine(t1, t2, _leaf_left)


def intersect(t1: Trie, t2: Trie) -> Trie:
    if t1 is EMPTY or t2 is EMPTY:
        return EMPTY
    if t1 is t2:
        return t1
    return combine(t1, t2, _leaf_left, False, False)


def subtract(t1: Trie, t2: Trie) -> Trie:
    if t1 is EMPTY or t1 is t2:
        return EMPTY
    if t2 is EMPTY:
        return t1
    return combine(t1, t2, _leaf_none, True, False)


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
        child = relabel(f, child)
        if not _redundant(child, tok.arity, default):
            edges[tok] = child
    if not edges and default is EMPTY:
        return EMPTY
    return Branch(default, edges)


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
    is the addition itself, not a copy.  The audience is the union of
    ``interests``' leaf sets at the visible values,
    ``leaves_meeting(interests, visible_added, visible_removed)``.

    The walk goes down the edges of ``added`` and ``removed``.  Under a
    removal wildcard it also goes down ``own``'s edges, since only what
    the stream holds can be removed.  It goes down the edges of
    ``routes`` and ``interests`` only under an addition wildcard or
    where ``own`` has a default; elsewhere the visible change has no
    default, so an edge of ``interests`` off the walk meets none of it.
    Where neither half has a default, those of ``routes`` and ``own``
    carry over.  Other edges carry over unchanged, under an unchanged
    default, so they stay canonical; rebuilt edges are checked with
    ``_redundant``, as in ``combine``.  An update thus costs O(|patch| +
    |own set under its removal wildcards| + |edges of routes and
    interests under its addition wildcards|).  Where ``routes`` is
    empty, so is the own set: the additions are taken whole, and their
    audience read with ``leaves_meeting``.  The walk recurses through
    ``_update_routes``, which takes ``ids`` and ``audience`` as
    arguments, so a call leaves no reference cycle behind (see the
    module docstring).
    """
    ids = frozenset((sid,))
    audience: set = set()
    return *_update_routes(routes, own, added, removed, interests, ids, audience), audience


def _update_routes(r: Trie, o: Trie, a: Trie, d: Trie, c: Trie, ids: frozenset, audience: set) -> tuple:
    if o is EMPTY:
        d = EMPTY  # nothing to remove
    if a is EMPTY and d is EMPTY:
        return r, o, EMPTY, EMPTY
    if r is EMPTY:
        if type(c) is Ok:
            audience.update(c.value)
        elif c is not EMPTY:
            audience.update(leaves_meeting(c, a))
        return Ok(ids) if type(a) is Ok else relabel(partial(_tag, ids), a), a, a, EMPTY
    if type(r) is Ok:
        if d is not EMPTY:
            left = r.value - ids
            if left:
                return Ok(left), EMPTY, EMPTY, EMPTY
            if c is not EMPTY:
                audience.update(c.value)
            return EMPTY, EMPTY, EMPTY, d
        if o is EMPTY:
            return Ok(r.value | ids), a, EMPTY, EMPTY
        return r, o, EMPTY, EMPTY
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
    er, eo, eva, evd = dict(r_edges), dict(o_edges), {}, {}
    for tok in visit:
        n = tok.arity
        # A missing edge reads as its default's tail (a trie is never falsy).
        ko = o_edges.get(tok) or (make_tail(n, ow) if n and ow is not EMPTY else ow)
        kr, kn, kva, kvd = _update_routes(
            r_edges.get(tok) or (make_tail(n, rw) if n and rw is not EMPTY else rw),
            ko,
            a_edges.get(tok) or (make_tail(n, aw) if n and aw is not EMPTY else aw),
            d_edges.get(tok) or (make_tail(n, dw) if n and dw is not EMPTY else dw),
            c_edges.get(tok) or (make_tail(n, cw) if n and cw is not EMPTY else cw),
            ids, audience,
        )
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
        if kva is not EMPTY if wva is EMPTY else not _redundant(kva, n, wva):
            eva[tok] = kva
        if kvd is not EMPTY if wvd is EMPTY else not _redundant(kvd, n, wvd):
            evd[tok] = kvd
    if same:
        return r, o, EMPTY, EMPTY
    return (
        Branch(wr, er) if er or wr is not EMPTY else EMPTY,
        # Holding nothing here, the stream comes to hold exactly ``a``.
        a if o is EMPTY else Branch(wo, eo) if eo or wo is not EMPTY else EMPTY,
        Branch(wva, eva) if eva or wva is not EMPTY else EMPTY,
        Branch(wvd, evd) if evd or wvd is not EMPTY else EMPTY,
    )


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


def spec_items(spec) -> list:
    """A projection spec's pre-order items: tokens, ``WILDCARD`` and
    ``CAPTURE``.  A subscription's items are made once, when its pattern
    is resolved; every projection of it walks them, and they compile to
    its trie (``compile_items``).  The walk keeps its own stack, and
    works out each atom's kind once."""
    items: list = []
    todo = [spec]
    while todo:
        p = todo.pop()
        kind = ATOM_KIND_OF_TYPE.get(type(p))
        if kind is not None:
            items.append(AtomTok((kind, p)))
        elif p is WILDCARD or p is CAPTURE:
            items.append(p)
        elif isinstance(p, Record):
            fields = p.fields
            items.append(PushTok((p.label, len(fields))))
            todo += fields[::-1]
        elif isinstance(p, tuple):
            items.append(PushTok((None, len(p))))
            todo += p[::-1]
        else:
            kind = atom_kind(p)
            if kind is None:
                raise ValueError(f"not a pattern: {p!r}")
            items.append(AtomTok((kind, p)))
    return items


def project(items: list, t: Trie) -> Trie:
    """Select assertions matching a spec and keep only captured positions.

    ``items`` are the spec's ``spec_items``.  The result is a unit trie
    over n-value sequences, n being the number of capture marks among
    them; with none, it is ``UNIT`` exactly when some member of ``t``
    matches.  ``_project`` follows the items, one frame per token, and
    counts the whole values a wildcard or capture mark has left to
    consume; it is passed ``items`` and ``end``, so it closes over nothing.
    """
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
        acc = union(acc, _project(items, end, i, child, n + tok.arity))
    return acc


def captures(items: list, t: Trie) -> list:
    """The captures of a spec's items in ``t``, read off ``t`` in one walk.

    Each member of ``project(items, t)`` comes back once, as the flat
    tuple of its captures' tokens, in trie order: the order
    ``key_set(project(items, t))`` gives, which ``values.parse_exact``
    turns into the same value tuples.  Raises InfiniteSet where a
    capture meets a default that leads to a match, as ``key_set`` does.
    The walk follows the items as ``_project`` does, keeping its own
    stack of ``(item index, node, values left to consume, tokens
    captured so far, whether a capture took a default)``; a wildcard
    consumes a value's tokens without keeping them.
    """
    end = len(items)
    found: dict = {}  # token tuple -> None: deduplicated, in walk order
    todo = [(0, t, 0, (), False)]
    while todo:
        i, t, n, toks, wild = todo.pop()
        while not n:
            if i == end:
                if type(t) is Ok:
                    if wild:
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
                todo.append((i, t.default, n, toks, wild or cap))
            for tok, child in t.edges.items():
                todo.append((i, child, n + tok.arity, toks + (tok,) if cap else toks, wild))
    if len(found) < 2:
        return list(found)
    return sorted(found, key=_tokens_key)


def _tokens_key(toks: tuple) -> list:
    return [tok.sort_key() for tok in toks]


# ---------------------------------------------------------------------------
# Enumeration


def key_set(t: Trie) -> tuple:
    """Enumerate a structurally finite trie: its members as value tuples,
    in trie (``token_sort_key``) order.  Raises InfiniteSet at a default."""
    return _members(t, None)


def pattern_set(t: Trie) -> tuple:
    """Enumerate a trie built from finitely many patterns, as key_set does,
    except that a default reads back as a wildcard: this tolerates
    cofinite sets, as long as the branch structure is finite."""
    return _members(t, WILDCARD)


def _members(t: Trie, wild) -> tuple:
    # Pre-order with an explicit stack: the default first, then the edges
    # in token order.
    out: list = []
    todo = [(t, ())]
    while todo:
        t, prefix = todo.pop()
        if type(t) is Ok:
            out.append(parse_exact(prefix))
        elif t is not EMPTY:
            edges = t.edges
            for tok in sorted(edges, key=token_sort_key, reverse=True):
                todo.append((edges[tok], prefix + (tok,)))
            if t.default is not EMPTY:
                if wild is None:
                    raise InfiniteSet("trie is not structurally finite")
                todo.append((t.default, prefix + (wild,)))
    return tuple(out)


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


#: The unary push tokens of the labels that cross layers, made once.
_UNARY = {label: PushTok((label, 1)) for label in (OBSERVE, INBOUND, OUTBOUND)}


def wrap_trie(label, t: Trie) -> Trie:
    """Wrap every member of a 1-value trie in a unary labeled record."""
    if t is EMPTY:
        return EMPTY
    return Branch(EMPTY, {_UNARY.get(label) or PushTok((label, 1)): t})


def unwrap_trie(label, t: Trie) -> Trie:
    """The set {c | label(c) ∈ t}; one edge hop thanks to implicit pops."""
    if type(t) is not Branch:
        return EMPTY
    child = t.edges.get(_UNARY.get(label) or PushTok((label, 1)))
    if child is not None:
        return child
    return EMPTY if t.default is EMPTY else Branch(t.default, {})
