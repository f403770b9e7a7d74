"""Facet-structured actors: conversational state as a tree of endpoints.

An actor here is a tree of facets.  Each facet owns endpoints: standing
assertions (possibly computed from fields), event handlers, and
stop-triggers.  A facet's endpoints live and die with it; stopping a
facet retracts everything underneath and runs its stop handlers.  The
runtime turns incoming patches and messages into handler activations,
tracks field reads through a dataflow graph so computed assertions stay
current, and emits the minimal patch describing what changed during the
turn.

The runtime keeps the endpoints of its living facets in one table in
creation order, and an incoming event is dispatched to them in that
order.  Stopping a facet runs the stop handlers of its subtree parent
first, in pre-order.  A facet left with no children, no endpoints and
no pending scripts is inert and stops at the end of the turn.  Within
one endpoint, a patch's captures activate in trie order, atom kinds
apart.  An ``asserted`` capture fires if its instance was not known
before (it is known after, which holds the additions); a ``retracted``
one, if known before and not after (a removal need not have been known).
Both are read over the subscription's compiled items (``Endpoint.items``,
from ``trie.spec_items``), made once each time the endpoint's pattern
is resolved; a pattern holding no ``Field`` is never resolved, and is
its own resolved pattern.  The captures come straight off the patch
side, in one walk (``trie.captures``), each as the flat tuple of its
tokens, which ``values.parse_exact`` reads into values only for an
activation.  An instance's items are the endpoint's with those tokens
spliced in at the capture marks; they hold no captures, so their
projection (``trie.project``) onto what is known is ``UNIT`` exactly
when the instance is known.  The trie the endpoint asserts is compiled
from the same items under an ``observe`` push token
(``trie.compile_items`` reads the capture marks as wildcards), with no
wildcarded copy of the pattern built.  A message is matched against
the same items, in one pass over the body: atoms by kind and payload,
compounds by label and arity.

What an actor publishes is the union of its contributions: the
actor-level ``adhoc`` set and each living endpoint's trie
(``Endpoint.current``).  A contributor's first change since the last
flush notes what it contributed before, so ``_flush`` reads the change
off the notes: the contributors whose trie is now structurally unequal
to their note (tries are canonical and keep atom kinds apart, so that is
set inequality).  It probes each pair with ``trie.may_meet`` before it
compares them, as disjoint tries are unequal, and probes no EMPTY trie.
Added is the union of their new tries less all that stood before (the
notes and the unchanged contributions); removed, the union of their
notes less all that stands now.  Removal is therefore exact under
overlap: retracting ``p(3)`` while ``p(*)`` stands, or while another
contributor also asserts ``p(3)``, publishes nothing.  A flush where
nothing changed, such as an assertion recomputed to an equal trie, only
compares: it publishes no patch and runs no set operation.  With no
note and no damage there is nothing to flush, and none is run, neither
at the end of a turn nor before an action is emitted.
"""
from __future__ import annotations

import heapq
from collections.abc import Mapping
from typing import Callable, Dict, List, Optional

from . import trie
from .dataflow import Graph
from .engine import Actor, Message, QUIT, Spawn
from .patch import Patch, apply_patch
from .trie import EMPTY, InfiniteSet, Trie
from .values import (
    CAPTURE,
    OBSERVE,
    AtomTok,
    NotAValue,
    PushTok,
    Record,
    Symbol,
    Value,
    WILDCARD,
    atom_kind,
    check_value,
    decompose,
    format_value,
    is_compound,
    observe,
    parse_exact,
    serialize,
    values_equal,
)

PRIORITY_QUERY_RETRACT = 0
PRIORITY_QUERY_ADD = 1
PRIORITY_DEFAULT = 2

_INSTANCE = Symbol("instance")
#: The item of an ``observe(…)`` record's push token: a subscription
#: asserts its items under it.
_OBSERVE = PushTok((OBSERVE, 1))


class InfiniteMatchSet(Exception):
    """A subscription matched an infinite set of concrete values."""


class Field:
    """A mutable cell whose reads are tracked for dataflow repair."""

    __slots__ = ("_runtime", "name", "_value")

    def __init__(self, runtime: "ActorRuntime", name: str, value):
        self._runtime = runtime
        self.name = name
        self._value = value

    @property
    def value(self):
        self._runtime.graph.record_observation(self)
        return self._value

    @value.setter
    def value(self, new):
        if _same(new, self._value):
            return
        self._value = new
        self._runtime.graph.record_damage(self)

    def __repr__(self) -> str:
        return f"<field {self.name}={self._value!r}>"


def _same(a, b) -> bool:
    """Whether assigning ``a`` over ``b`` changes nothing.  Compound
    values compare kind-faithfully, so ``(1,)`` is not ``(True,)``;
    anything else compares by its own equality, within one type (a
    query's ``KindDict`` or its ``keys()`` keep kinds apart too)."""
    if not (type(a) is type(b) and a == b):
        return False
    if not is_compound(a):
        return True
    try:
        check_value(a)
        check_value(b)
    except NotAValue:
        return True
    return values_equal(a, b)


class KindDict(Mapping):
    """A query's read-only mapping.  Keys are keyed by their token tuple
    (``serialize``), so atom kinds stay apart: 1, True and 1.0 are three
    keys, and lookups and ``in`` tell them apart too; so does ``keys()``,
    the read-only set a ``query_set`` holds.  Equal mappings have
    kind-faithfully equal values too."""

    __slots__ = ("_entries",)

    def __init__(self, entries: dict):
        self._entries = entries  # key's token tuple -> (key, value)

    def __getitem__(self, key):
        entry = self._entries.get(tuple(serialize(key)))
        if entry is None:
            raise KeyError(key)
        return entry[1]

    def __iter__(self):
        return (key for key, _ in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        if type(other) is not KindDict:
            return Mapping.__eq__(self, other)
        mine, theirs = self._entries, other._entries
        return mine.keys() == theirs.keys() and all(
            values_equal(v, theirs[t][1]) for t, (_, v) in mine.items()
        )


class Endpoint:
    __slots__ = (
        "eid",
        "facet",
        "kind",  # "assert" | "sub"
        "compute",  # assert: () -> value or None
        "pattern",  # sub: pattern possibly containing Field refs
        "holds_field",  # sub: whether some part of pattern is a Field
        "on",  # sub: "asserted" | "retracted" | "message"
        "handler",  # sub: fn(*captures)
        "priority",
        "current",  # trie contributed to the actor's published set
        "current_pattern",  # sub: pattern with Field refs resolved
        "items",  # sub: trie.spec_items(current_pattern)
    )

    def __init__(self, eid, facet, kind):
        self.eid = eid
        self.facet = facet
        self.kind = kind
        self.compute = None
        self.pattern = None
        self.holds_field = False
        self.on = None
        self.handler = None
        self.priority = PRIORITY_DEFAULT
        self.current = EMPTY
        self.current_pattern = None
        self.items = None

    @property
    def order_key(self):
        return (0, self.eid)


class Facet:
    def __init__(self, runtime: "ActorRuntime", parent: Optional["Facet"]):
        self.runtime = runtime
        self.parent = parent
        self.children: List[Facet] = []
        self.endpoints: List[Endpoint] = []
        self.stop_handlers: List[Callable] = []
        self.alive = True
        self.pending_scripts = 0
        if parent is not None:
            parent.children.append(self)

    # -- state --------------------------------------------------------------

    def field(self, initial, name: str = "field") -> Field:
        return Field(self.runtime, name, initial)

    # -- endpoints ----------------------------------------------------------

    def assert_(self, value_or_fn) -> Endpoint:
        """Maintain an assertion, recomputed when the fields it reads change."""
        ep = self.runtime._new_endpoint(self, "assert")
        if callable(value_or_fn):
            ep.compute = value_or_fn
        elif _holds_field(value_or_fn):
            ep.compute = lambda: _resolve(value_or_fn)
        else:
            ep.compute = lambda: value_or_fn
        self.runtime._refresh_endpoint(ep)
        return ep

    def on_asserted(self, pattern, handler, priority=PRIORITY_DEFAULT) -> Endpoint:
        return self.runtime._add_sub(self, pattern, "asserted", handler, priority)

    def on_retracted(self, pattern, handler, priority=PRIORITY_DEFAULT) -> Endpoint:
        return self.runtime._add_sub(self, pattern, "retracted", handler, priority)

    def on_message(self, pattern, handler) -> Endpoint:
        return self.runtime._add_sub(self, pattern, "message", handler)

    def stop_when_asserted(self, pattern, continuation=None) -> Endpoint:
        return self.runtime._add_stop(self, pattern, "asserted", continuation)

    def stop_when_retracted(self, pattern, continuation=None) -> Endpoint:
        return self.runtime._add_stop(self, pattern, "retracted", continuation)

    def stop_when_message(self, pattern, continuation=None) -> Endpoint:
        return self.runtime._add_stop(self, pattern, "message", continuation)

    def on_start(self, fn) -> None:
        self.runtime._schedule(PRIORITY_DEFAULT, self, fn)

    def on_stop(self, fn) -> None:
        self.stop_handlers.append(fn)

    # -- structure ----------------------------------------------------------

    def react(self, body: Callable[["Facet"], None]) -> "Facet":
        return self.runtime._add_facet(self, body)

    def stop(self, continuation: Optional[Callable] = None) -> None:
        self.runtime._schedule(PRIORITY_DEFAULT, None, self.runtime._stop_facet, (self, continuation))

    def during(self, pattern, body: Callable) -> Endpoint:
        """Scoped reaction: run ``body`` in a child facet for each match,
        stopping the child when the match is withdrawn."""

        def on_add(*caps):
            inst = _instantiate(pattern, caps)

            def child(f: Facet):
                f.stop_when_retracted(inst)
                body(f, *caps)

            self.react(child)

        return self.on_asserted(pattern, on_add)

    def during_spawn(self, pattern, name: str, body: Callable) -> Endpoint:
        """Like during, but each match gets a whole actor of its own.

        The new actor marks itself with a fresh instance record; the
        match's facet keeps an interest in that marker alive for as long
        as the match stands, and the actor stops when the interest
        disappears.
        """

        def serve(f: Facet, *caps):
            marker = Record(_INSTANCE, (self.runtime.fresh_tag(),))
            f.assert_(observe(marker))

            def child(g: Facet):
                g.assert_(marker)
                g.stop_when_retracted(observe(marker))
                body(g, *caps)

            f.spawn(name, child)

        return self.during(pattern, serve)

    # -- actions ------------------------------------------------------------

    def send(self, body: Value) -> None:
        self.runtime._emit(Message(body))

    def spawn(self, name: str, boot: Callable[["Facet"], None]) -> None:
        self.runtime._emit(spawn_actor(name, boot))

    # -- queries ------------------------------------------------------------

    def query_set(self, pattern, name="query-set") -> Field:
        f = self.field(KindDict({}).keys(), name)
        members: dict = {}  # token tuple -> (member, member)

        def add(*caps):
            v = caps[0] if len(caps) == 1 else caps
            members[tuple(serialize(v))] = (v, v)
            f.value = KindDict(dict(members)).keys()

        def rem(*caps):
            members.pop(tuple(serialize(caps[0] if len(caps) == 1 else caps)), None)
            f.value = KindDict(dict(members)).keys()

        self.on_asserted(pattern, add, PRIORITY_QUERY_ADD)
        self.on_retracted(pattern, rem, PRIORITY_QUERY_RETRACT)
        return f

    def query_value(self, pattern, default=None, name="query-value") -> Field:
        f = self.field(default, name)

        def add(*caps):
            f.value = caps[0] if len(caps) == 1 else caps

        def rem(*_caps):
            f.value = default

        self.on_asserted(pattern, add, PRIORITY_QUERY_ADD)
        self.on_retracted(pattern, rem, PRIORITY_QUERY_RETRACT)
        return f

    def query_count(self, pattern, name="query-count") -> Field:
        f = self.field(0, name)
        members: set = set()  # token tuples, so atom kinds stay apart

        def add(*caps):
            key = tuple(serialize(caps))
            if key not in members:
                members.add(key)
                f.value = len(members)

        def rem(*caps):
            members.discard(tuple(serialize(caps)))
            f.value = len(members)

        self.on_asserted(pattern, add, PRIORITY_QUERY_ADD)
        self.on_retracted(pattern, rem, PRIORITY_QUERY_RETRACT)
        return f

    def query_hash(self, pattern, name="query-hash") -> Field:
        f = self.field(KindDict({}), name)
        entries: dict = {}  # key's token tuple -> (key, value)

        def add(key, *rest):
            entries[tuple(serialize(key))] = (key, rest[0] if len(rest) == 1 else rest)
            f.value = KindDict(dict(entries))

        def rem(key, *_rest):
            entries.pop(tuple(serialize(key)), None)
            f.value = KindDict(dict(entries))

        self.on_asserted(pattern, add, PRIORITY_QUERY_ADD)
        self.on_retracted(pattern, rem, PRIORITY_QUERY_RETRACT)
        return f


class ActorRuntime(Actor):
    def __init__(self, path: tuple, boot: Callable[[Facet], None]):
        self.path = path  # identity assigned by the engine
        self._boot = boot
        self.knowledge: Trie = EMPTY
        self.graph = Graph()
        self.root = Facet(self, None)
        self.endpoints: Dict[int, Endpoint] = {}  # of living facets, by eid
        self.adhoc: Trie = EMPTY
        # Contributor (an endpoint, or None for adhoc) -> what it
        # contributed at the last flush, noted on its first change since.
        self._was: Dict[Optional[Endpoint], Trie] = {}
        self._queue: list = []
        self._seq = 0
        self._eid = 0
        self._tag = 0
        self._actions: List[object] = []

    def fresh_tag(self) -> tuple:
        """A value no other tag in any layer equals."""
        self._tag += 1
        return self.path + (self._tag,)

    # -- engine interface ---------------------------------------------------

    def startup(self) -> List[object]:
        return self._turn(None)

    def handle(self, event) -> List[object]:
        return self._turn(event)

    def _turn(self, event) -> List[object]:
        self._actions = []
        if event is None:
            self._add_facet(self.root, self._boot)
        elif isinstance(event, Patch):
            before = self.knowledge
            after = apply_patch(before, event)
            self.knowledge = after
            for ep in self.endpoints.values():
                if ep.kind == "sub" and ep.on != "message":
                    self._dispatch_patch(ep, event, before, after)
        elif isinstance(event, Message):
            for ep in self.endpoints.values():
                if ep.on == "message":
                    self._dispatch_message(ep, event.body)
        # Pruning runs stop handlers, which may schedule more scripts:
        # drain and prune again until the queue stays empty.
        while self._queue:
            idle: List[Facet] = []
            while self._queue:
                _, _, facet, fn, args = heapq.heappop(self._queue)
                if facet is not None:
                    facet.pending_scripts -= 1
                    if facet.pending_scripts == 0 and not facet.endpoints:
                        idle.append(facet)
                    if not facet.alive:
                        continue
                fn(*args)
            for facet in idle:
                self._maybe_prune(facet)
        if self._was or self.graph.damaged:
            self._flush()
        actions = self._actions
        self._actions = []
        if not self.root.children:
            # The actor quits: the root facet lets go of its runtime, the
            # last cycle left between them.
            self.root.runtime = None
            actions.append(QUIT)
        return actions

    # -- endpoint plumbing --------------------------------------------------

    def _new_endpoint(self, facet: Facet, kind: str) -> Endpoint:
        if not facet.alive:
            raise RuntimeError("cannot add endpoints to a stopped facet")
        ep = Endpoint(self._eid, facet, kind)
        self._eid += 1
        facet.endpoints.append(ep)
        self.endpoints[ep.eid] = ep
        return ep

    def _add_sub(self, facet, pattern, on, handler, priority=PRIORITY_DEFAULT) -> Endpoint:
        ep = self._new_endpoint(facet, "sub")
        ep.pattern = pattern
        ep.holds_field = _holds_field(pattern)
        ep.on = on
        ep.handler = handler
        ep.priority = priority
        self._refresh_endpoint(ep)
        if on == "asserted" and self.knowledge is not EMPTY:
            # Catch-up: the world as already known counts as newly asserted.
            self._dispatch_patch(ep, Patch(self.knowledge, EMPTY), EMPTY, self.knowledge)
        return ep

    def _add_stop(self, facet, pattern, on, continuation) -> Endpoint:
        def fire(*_caps):
            self._stop_facet(facet, continuation)

        return self._add_sub(facet, pattern, on, fire)

    def _refresh_endpoint(self, ep: Endpoint) -> None:
        if ep.kind == "assert":
            v = self.graph.with_subject(ep, ep.compute)
            new = EMPTY if v is None else trie.compile_pattern(v)
        else:
            pat = ep.pattern
            if ep.holds_field:  # resolved, with its reads recorded
                pat = self.graph.with_subject(ep, lambda: _resolve(ep.pattern))
            ep.current_pattern = pat
            ep.items = trie.spec_items(pat)
            new = trie.compile_items([_OBSERVE] + ep.items)
        self._was.setdefault(ep, ep.current)
        ep.current = new

    # -- dispatch -----------------------------------------------------------

    def _dispatch_patch(self, ep: Endpoint, delta: Patch, before: Trie, after: Trie) -> None:
        side = delta.added if ep.on == "asserted" else delta.removed
        if side is EMPTY:
            return
        items = ep.items
        try:
            found = trie.captures(items, side)
        except InfiniteSet:
            raise InfiniteMatchSet(
                f"subscription {format_value(_wildify(ep.current_pattern))} matched "
                "infinitely many values"
            )
        for toks in found:
            # A capture-free projection is EMPTY exactly when no member matches.
            inst = _spliced(items, toks)
            if trie.project(inst, before) is EMPTY:
                if ep.on == "asserted":  # known after: it comes from delta.added
                    self._activate(ep, parse_exact(toks))
            elif ep.on == "retracted" and trie.project(inst, after) is EMPTY:
                self._activate(ep, parse_exact(toks))

    def _dispatch_message(self, ep: Endpoint, body: Value) -> None:
        caps = _captures(ep.items, body)
        if caps is not None:
            self._activate(ep, tuple(caps))

    def _activate(self, ep: Endpoint, caps: tuple) -> None:
        # The turn loop drops the script if ep's facet has stopped by then.
        self._schedule(ep.priority, ep.facet, ep.handler, caps)

    def _schedule(self, priority: int, facet: Optional[Facet], fn: Callable, args: tuple = ()) -> None:
        # An entry holds the script's function and arguments, not a closure.
        if facet is not None:
            facet.pending_scripts += 1
        heapq.heappush(self._queue, (priority, self._seq, facet, fn, args))
        self._seq += 1

    # -- facet lifecycle ----------------------------------------------------

    def _add_facet(self, parent: Facet, body: Callable[[Facet], None]) -> Facet:
        if not parent.alive:
            # Nothing would ever stop it, so its endpoints would outlive
            # the whole subtree.
            raise RuntimeError("cannot add a facet to a stopped facet")
        facet = Facet(self, parent)
        body(facet)
        self._maybe_prune(facet)
        return facet

    def _stop_facet(self, facet: Facet, continuation: Optional[Callable] = None) -> None:
        if not facet.alive or facet is self.root:
            return
        subtree: List[Facet] = []  # pre-order: parents before children
        stack = [facet]
        while stack:
            f = stack.pop()
            subtree.append(f)
            stack.extend(reversed(f.children))
        for f in subtree:
            f.alive = False
            for ep in f.endpoints:
                del self.endpoints[ep.eid]
                self.graph.forget_subject(ep)
                self._was.setdefault(ep, ep.current)
                ep.current = EMPTY
        for f in subtree:
            for h in f.stop_handlers:
                h()
        # A stopped facet is done with its endpoints, handlers and
        # children.  They and their closures refer back to it, so
        # dropping them lets reference counting free the subtree.
        for f in subtree:
            f.endpoints, f.stop_handlers, f.children = [], [], []
        parent = facet.parent
        if parent is not None and facet in parent.children:
            parent.children.remove(facet)
        if continuation is not None:
            continuation()
        self._maybe_prune(parent)

    def _maybe_prune(self, facet: Optional[Facet]) -> None:
        """Stop ``facet`` if it has become inert: nothing left to do or wait for."""
        if (
            facet is not None
            and facet is not self.root
            and facet.alive
            and not facet.children
            and not facet.endpoints
            and facet.pending_scripts == 0
        ):
            self._stop_facet(facet)

    # -- output -------------------------------------------------------------

    def assert_value(self, v: Value) -> None:
        """Actor-level assertion outliving any facet."""
        self._was.setdefault(None, self.adhoc)
        self.adhoc = trie.union(self.adhoc, trie.compile_pattern(v))

    def retract_value(self, v: Value) -> None:
        self._was.setdefault(None, self.adhoc)
        self.adhoc = trie.subtract(self.adhoc, trie.compile_pattern(v))

    def _emit(self, action) -> None:
        if self._was or self.graph.damaged:
            self._flush()
        self._actions.append(action)

    def _flush(self) -> None:
        if self.graph.damaged:
            self.graph.repair_damage(self._refresh_endpoint)
        if not self._was:
            return
        was, self._was = self._was, {}
        # Who changed: probe before comparing, as disjoint tries are unequal.
        went: set = set()
        came = gone = EMPTY
        for who, old in was.items():
            new = self.adhoc if who is None else who.current  # EMPTY once stopped
            if old is new:
                continue
            probe = old is not EMPTY and new is not EMPTY and trie.may_meet(old, new)
            if not probe or old != new:
                went.add(who)
                came, gone, meets = trie.union(came, new), trie.union(gone, old), probe
        if not went:
            return
        # A lone changed pair was probed above, a union is probed here;
        # after this, came and gone are disjoint, and so are the halves.
        if meets if len(went) == 1 else trie.may_meet(came, gone):
            came, gone = trie.subtract(came, gone), trie.subtract(gone, came)
        # Before: the notes (a stopped endpoint's among them) and the
        # unchanged others; now: the new tries and the same others.
        others = [self.adhoc] if None not in went else []
        others += [ep.current for ep in self.endpoints.values() if ep not in went]
        delta = Patch.disjoint(_uncovered(came, others), _uncovered(gone, others))
        if not delta.is_empty():
            self._actions.append(delta)


def spawn_actor(name: str, boot: Callable[[Facet], None]) -> Spawn:
    def make(identity):
        rt = ActorRuntime(identity, boot)
        return rt, rt.startup()

    return Spawn(make, name)


# ---------------------------------------------------------------------------
# Pattern helpers


def _rebuild(pattern, leaf: Callable):
    """Copy ``pattern``, replacing each non-compound part ``p`` by ``leaf(p)``.

    ``leaf`` sees the parts in pre-order.  The open compounds are kept on
    an explicit stack, as ``values.parse_exact`` keeps them, so a deep
    pattern takes no Python frame per level.
    """
    fields: list = []  # where the next rebuilt part goes
    stack: list = []  # per open compound: its label, its arity, the fields it goes into
    todo = [pattern]
    while todo:
        p = todo.pop()
        if is_compound(p):
            label, parts = decompose(p)
            stack.append((label, len(parts), fields))
            fields = []
            todo += parts[::-1]
        else:
            fields.append(leaf(p))
        # Close every compound whose fields are all rebuilt.
        while stack and len(fields) == stack[-1][1]:
            label, _, outer = stack.pop()
            outer.append(tuple(fields) if label is None else Record(label, tuple(fields)))
            fields = outer
    return fields[0]


def _holds_field(pattern) -> bool:
    """Whether some part of ``pattern`` is a ``Field``."""
    todo = [pattern]
    while todo:
        p = todo.pop()
        if isinstance(p, Field):
            return True
        if is_compound(p):
            todo += decompose(p)[1]
    return False


def _resolve(pattern):
    """Replace embedded Field references with their current values."""
    return _rebuild(pattern, lambda p: p.value if isinstance(p, Field) else p)


def _wildify(pattern):
    """Capture marks become plain wildcards for subscription purposes."""
    return _rebuild(pattern, lambda p: WILDCARD if p is CAPTURE else p)


def _instantiate(pattern, caps):
    caps = list(caps)
    result = _rebuild(pattern, lambda p: caps.pop(0) if p is CAPTURE else p)
    assert not caps, "capture arity mismatch"
    return result


def _spliced(items: list, toks: tuple) -> list:
    """Spec items with each capture mark replaced by its capture's tokens,
    read off ``toks``, the flat token tuple ``trie.captures`` gives: one
    whole value per mark."""
    out: list = []
    j = 0
    for item in items:
        if item is CAPTURE:
            start, n = j, 1
            while n:
                n += toks[j].arity - 1
                j += 1
            out += toks[start:j]
        else:
            out.append(item)
    return out


def _captures(items: list, body) -> Optional[list]:
    """Match a value against spec items: the captured values in order, or
    None.  One pass over the items, walking the body in pre-order with
    an explicit stack: atoms compare by kind and payload, compounds by
    label and arity."""
    caps: list = []
    todo = [body]
    for item in items:
        v = todo.pop()
        if item is CAPTURE:
            caps.append(v)
        elif item is WILDCARD:
            continue
        elif type(item) is AtomTok:
            if v != item[1] or atom_kind(v) != item[0]:
                return None
        else:
            label, arity = item
            if isinstance(v, Record):
                if v.label is not label:
                    return None
                v = v.fields
            elif label is not None or not isinstance(v, tuple):
                return None
            if len(v) != arity:
                return None
            todo.extend(reversed(v))
    return caps


def _uncovered(t: Trie, cover) -> Trie:
    """``t`` less whatever the tries of ``cover`` hold; an EMPTY one is not probed."""
    for k in cover:
        if t is EMPTY:
            break
        if k is not EMPTY and trie.may_meet(t, k):
            t = trie.subtract(t, k)
    return t
