"""Facet-structured actors: conversational state as a tree of endpoints.

An actor here is a tree of facets.  Each facet owns endpoints: standing
assertions (possibly computed from fields), event handlers, and
stop-triggers.  A facet's endpoints live and die with it; stopping a
facet retracts everything underneath and runs its stop handlers.  The
runtime turns incoming patches and messages into handler activations,
tracks field reads through a dataflow graph so computed assertions stay
current, and emits the minimal patch describing what changed during the
turn.

Every endpoint is one computation (``Endpoint.compute``) and one walk
of its result into pre-order items, the package's one pattern walk
(``values.spec_items``, with its own stack), run under the endpoint as
its own dataflow subject, so the fields they read re-run them when they
change.  The walk reads each ``Field`` it meets in place, so no copy of
the pattern is built.  An assertion computes its value and compiles its
items, which may hold no capture mark; one whose whole pattern reads as
None asserts nothing.  A subscription computes its pattern, keeps its
items and asserts the ``observe`` of them.

The runtime keeps the endpoints of its living facets in one table in
creation order, and an incoming event is dispatched to them in that
order.  Stopping a facet runs the stop handlers of its subtree parent
first, in pre-order.  A facet left with no children, no endpoints and
no pending scripts is inert and stops at the end of the turn.  Within
one endpoint, a patch's captures activate in trie order, atom kinds
apart.  An ``asserted`` capture fires if its instance was not known
before (it is known after, which holds the additions); a ``retracted``
one, if known before and not after (a removal need not have been known).
Both are read over the subscription's items (``Endpoint.items``), made
once each time the endpoint computes its pattern.  Dispatch reads tries
with one member walk, ``trie.captures``: over the patch side, it gives
the captures, each as the flat tuple of its tokens, the actor's one
identity for a match; over an instance's items (the endpoint's with
those tokens spliced in at the capture marks, so capture-free), whether
what is known holds it.  An activation gets the match as dispatch found
it: its tokens and the items they were found over.  A user's handler
(``Facet.on_asserted``, ``on_retracted``) hears the captures read as
values (``values.parse_exact``); a query keys its table on the tokens;
and a ``during`` child watches the match it was made for, those items
with the tokens spliced in, read back as a value, which holds no
``Field``.  So the child watches that match, whatever the fields in the
pattern read by the time its activation runs.  Items with no ``WILDCARD``
(``Endpoint.exact``) make each instance one member of the patch side,
so fewer probes are needed, as the patch's halves are disjoint: a
removal is not known after, and an addition was known before just when
what the patch leaves of prior knowledge holds it.  That is what was
known less the removed half, the subtraction the turn's knowledge update
makes anyway; when it is EMPTY, as when the patch retracts all that was
known, or ``trie.may_meet`` finds the side disjoint from it, every
capture fires unprobed.  The trie the endpoint asserts is compiled from
the same items under an ``observe`` push token (``trie.compile_items``
reads the capture marks as wildcards), with no wildcarded copy of the
pattern built.  The turn matches a message against the same items of
each message endpoint (``_captures``, one pass over the body: atoms by
kind and payload, compounds by label and arity) and schedules a match's
handler with its captures.  A wildcard in the body meets whatever item
stands at its position: an atom item matches it, and a compound item
reads it as that many wildcard fields, so a capture mark at or under it
captures ``WILDCARD``.  A handler fires, then, for each message the mux
routes to it.

A patch subscription's view is what the actor knows as its items read
it: the capture-token tuples ``trie.captures`` finds over them in the
knowledge.  When a refresh finds the items changed (there are none
before the first), and something is known, the view moves: an
``asserted`` endpoint hears each tuple found only under the new items,
a ``retracted`` one each found only under the old, with the items it
was found over, in endpoint order as for a patch.  So a new
subscription hears what is already known, and a query over a field
keeps only the matches of its pattern as it stands.  A turn repairs its
damaged endpoints whenever its queue runs empty, so the activations a
move schedules run in the same turn, and ``_emit`` repairs them before
it emits an action.

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
notes less all that stands now.  A lone changed contributor's tries are
taken as they are, with no union; then one loop over the unchanged
contributions, ``adhoc`` first, takes each off both halves, and stops
once both are EMPTY.  Removal is therefore exact under overlap:
retracting ``p(3)`` while ``p(*)`` stands, or while another contributor
also asserts ``p(3)``, publishes nothing.  The loop walks only a
contribution that can meet the change at the root: one of them has a
root default, or they share a root edge, told by one ``isdisjoint`` of
the contribution's root edge keys against the change's, collected once
per flush.  So a subscription, under ``observe``, costs no walk when
only plain assertions change.  A flush where nothing changed, such as
an assertion recomputed to an equal trie, only compares: it publishes
no patch and runs no set operation.  ``_flush`` only publishes, and is
run only when a contributor has a note.

The four queries (``Facet.query_set``, ``query_value``, ``query_count``
and ``query_hash``) are four views of one table per query, which maps
each standing match's capture token tuple, as dispatch found it, to its
captures, read once when the match is added; the table keeps them in
the order they were asserted.  One add/rem handler pair, retract first,
keeps it and damages the query's field through the dataflow graph when
it changes.  The view is built anew when the field is next read after a
change, not once per capture, so a value a reader kept stays as it was.
"""
from __future__ import annotations

import heapq
from collections.abc import Mapping
from itertools import chain
from typing import Callable, Dict, List, Optional

from . import trie
from .dataflow import Graph
from .engine import Actor, Message, QUIT, Spawn
from .patch import Patch
from .trie import EMPTY, InfiniteSet, Trie
from .values import (
    CAPTURE,
    OBSERVE_TOK,
    AtomTok,
    NotAValue,
    Record,
    Symbol,
    Value,
    WILDCARD,
    atom_kind,
    format_value,
    observe,
    parse_exact,
    serialize,
    spec_items,
    values_equal,
)

PRIORITY_QUERY_RETRACT = 0
PRIORITY_QUERY_ADD = 1
PRIORITY_DEFAULT = 2

_INSTANCE = Symbol("instance")
#: A query field's value while its view waits to be built.
_STALE = object()


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
    """Whether assigning ``a`` over ``b`` changes nothing: both of one type,
    and equal, a compound as token sequences (kind-faithfully, so ``(1,)``
    is not ``(True,)``, and without recursion), anything else by ``==``."""
    if type(a) is not type(b):
        return False
    if not isinstance(a, (tuple, Record)):
        return a == b
    try:
        return values_equal(a, b)
    except NotAValue:
        return a == b


class KindDict(Mapping):
    """A query's read-only mapping, of the ``(key, value)`` pairs it is
    made from; a later pair for a key replaces an earlier one.  Keys are
    keyed by their token tuple (``serialize``), so atom kinds stay apart:
    1, True and 1.0 are three keys, and lookups and ``in`` tell them
    apart too; so does ``keys()``, the read-only set a ``query_set``
    holds.  It equals a mapping of its length whose every key it finds,
    with a kind-faithfully equal value (``_same``), so ``{True: "a"}``
    does not equal ``KindDict([(1, "a")])``."""

    __slots__ = ("_entries",)

    def __init__(self, pairs):
        self._entries = {tuple(serialize(k)): (k, v) for k, v in pairs}

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
        if not isinstance(other, Mapping):
            return NotImplemented
        if len(other) != len(self._entries):
            return False
        for key, value in other.items():
            try:
                mine = self[key]
            except (KeyError, NotAValue):  # not a key here, or not a value
                return False
            if not _same(mine, value):
                return False
        return True


class Endpoint:
    __slots__ = (
        "eid",
        "facet",
        "compute",  # () -> assert: value or None; sub: pattern; either may hold Fields
        "on",  # None marks an assertion; sub: "asserted" | "retracted" | "message"
        # sub: on a message, fn(*captures); else fn(toks, items), the match
        # as dispatch finds it: its capture tokens, the items they fill
        "handler",
        "priority",
        "current",  # trie contributed to the actor's published set
        "items",  # sub: spec_items of the computed pattern
        "exact",  # sub: no WILDCARD among items
    )

    def __init__(self, eid, facet):
        self.eid = eid
        self.facet = facet
        self.compute = None
        self.on = None
        self.handler = None
        self.priority = PRIORITY_DEFAULT
        self.current = EMPTY
        self.items = None
        self.exact = False

    @property
    def order_key(self):
        return (0, self.eid)

    def __repr__(self) -> str:
        return f"<{self.on or 'assert'} endpoint #{self.eid}>"


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
        compute = value_or_fn if callable(value_or_fn) else lambda: value_or_fn
        return self.runtime._new_endpoint(self, compute)

    def on_asserted(self, pattern, handler, priority=PRIORITY_DEFAULT) -> Endpoint:
        hear = lambda toks, _items: handler(*parse_exact(toks))
        return self.runtime._add_sub(self, pattern, "asserted", hear, priority)

    def on_retracted(self, pattern, handler, priority=PRIORITY_DEFAULT) -> Endpoint:
        hear = lambda toks, _items: handler(*parse_exact(toks))
        return self.runtime._add_sub(self, pattern, "retracted", hear, priority)

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
        """Scoped reaction: run ``body`` in a child facet for each match.
        The child belongs to the match dispatch found, and stops when that
        match is retracted, whatever the fields in ``pattern`` read when
        the child is made or after."""

        def on_add(toks, items):
            # The match as dispatch found it: the items it was found over
            # with its capture tokens spliced in.
            match = parse_exact(_spliced(items, toks))[0]
            caps = parse_exact(toks)

            def child(f: Facet):
                f.stop_when_retracted(match)
                body(f, *caps)

            self.react(child)

        return self.runtime._add_sub(self, pattern, "asserted", on_add)

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
        """The set of the pattern's standing matches, each read as its
        capture, or as the tuple of its captures if it has several."""
        return _Query(self, pattern, name, lambda ms: KindDict((m, m) for m in map(_member, ms)).keys())

    def query_value(self, pattern, default=None, name="query-value") -> Field:
        """The most recently asserted match that still stands, read as
        in ``query_set``, or ``default`` while none stands."""
        return _Query(self, pattern, name, lambda ms: _member(ms[-1]) if ms else default)

    def query_count(self, pattern, name="query-count") -> Field:
        """The number of the pattern's standing matches."""
        return _Query(self, pattern, name, len)

    def query_hash(self, pattern, name="query-hash") -> Field:
        """A ``KindDict`` from each standing match's first capture to the
        rest, read as in ``query_set``.  A key reads its most recently
        asserted match that still stands."""
        return _Query(self, pattern, name, lambda ms: KindDict((m[0], _member(m[1:])) for m in ms))


class _Query(Field):
    """A query's field: its value is ``view`` of its table's captures,
    which it keys on each match's capture tokens."""

    __slots__ = ("_matches", "_view")

    def __init__(self, facet: Facet, pattern, name: str, view: Callable[[list], object]):
        super().__init__(facet.runtime, name, _STALE)
        self._matches: dict = {}
        self._view = view
        self._runtime._add_sub(facet, pattern, "asserted", self._add, PRIORITY_QUERY_ADD)
        self._runtime._add_sub(facet, pattern, "retracted", self._rem, PRIORITY_QUERY_RETRACT)

    @property
    def value(self):
        if self._value is _STALE:
            self._value = self._view(list(self._matches.values()))
        return super().value

    def _add(self, toks, _items):
        self._matches[toks] = parse_exact(toks)
        self._value = _STALE
        self._runtime.graph.record_damage(self)

    def _rem(self, toks, _items):
        if self._matches.pop(toks, None) is not None:
            self._value = _STALE
            self._runtime.graph.record_damage(self)


def _member(caps: tuple):
    """How a query reads one match: its capture, or the tuple of its captures."""
    return caps[0] if len(caps) == 1 else caps


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
            # The knowledge update in its two steps: what the patch
            # leaves of the knowledge is what dispatch probes additions
            # against.
            before = self.knowledge
            kept = trie.subtract(before, event.removed)
            after = self.knowledge = trie.union(kept, event.added)
            for ep in self.endpoints.values():
                if ep.on == "asserted" or ep.on == "retracted":
                    self._dispatch_patch(ep, event, before, after, kept)
        elif isinstance(event, Message):
            for ep in self.endpoints.values():
                if ep.on == "message":
                    caps = _captures(ep.items, event.body)
                    if caps is not None:
                        self._schedule(ep.priority, ep.facet, ep.handler, caps)
        # Pruning runs stop handlers, which may schedule more scripts, and
        # a repair may move a subscription's view, which schedules its
        # activations: drain, prune and repair until nothing is left.
        while self._queue or self.graph.damaged:
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
            if not self._queue and self.graph.damaged:
                self.graph.repair_damage(self._refresh_endpoint)
        if self._was:
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

    def _new_endpoint(self, facet: Facet, compute: Callable, on=None, handler=None,
                      priority=PRIORITY_DEFAULT) -> Endpoint:
        if not facet.alive:
            raise RuntimeError("cannot add endpoints to a stopped facet")
        ep = Endpoint(self._eid, facet)
        self._eid += 1
        facet.endpoints.append(ep)
        self.endpoints[ep.eid] = ep
        ep.compute, ep.on, ep.handler, ep.priority = compute, on, handler, priority
        self.graph.with_subject(ep, lambda: self._refresh_endpoint(ep))
        return ep

    def _add_sub(self, facet, pattern, on, handler, priority=PRIORITY_DEFAULT) -> Endpoint:
        return self._new_endpoint(facet, lambda: pattern, on, handler, priority)

    def _add_stop(self, facet, pattern, on, continuation) -> Endpoint:
        def fire(*_caps):
            self._stop_facet(facet, continuation)

        return self._add_sub(facet, pattern, on, fire)

    def _refresh_endpoint(self, ep: Endpoint) -> None:
        # This runs with ep as the graph's subject (a repair, or
        # _new_endpoint, makes it so), so the fields its pattern's walk
        # reads in place are ep's dependencies.
        spec = ep.compute()
        while isinstance(spec, Field):
            spec = spec.value
        if ep.on is not None:
            items = spec_items(spec, Field)  # None is no pattern
            old, ep.items, ep.exact = ep.items, items, WILDCARD not in items
            new = trie.compile_items([OBSERVE_TOK] + items)
            if ep.on != "message" and items != old and self.knowledge is not EMPTY:
                self._move_view(ep, old, items)
        elif spec is None:  # the whole pattern: an assertion of nothing
            new = EMPTY
        else:
            items = spec_items(spec, Field)
            if CAPTURE in items:
                raise ValueError("capture marks are not allowed in plain patterns")
            new = trie.compile_items(items)
        self._was.setdefault(ep, ep.current)
        ep.current = new

    def _move_view(self, ep: Endpoint, old: Optional[list], new: list) -> None:
        """A patch subscription's items moved from ``old`` (None at its
        creation) to ``new``: its view of what is known, the capture-token
        tuples found over its items, moves with them.  An ``asserted``
        endpoint hears each tuple found only under the new items, a
        ``retracted`` one each found only under the old, with the items
        it was found over."""
        items, other = (new, old) if ep.on == "asserted" else (old, new)
        if items is None:
            return
        try:
            found = trie.captures(items, self.knowledge)
        except InfiniteSet:
            raise _infinite(items)
        if found and other is not None:
            try:
                stays = set(trie.captures(other, self.knowledge))
            except InfiniteSet:
                raise _infinite(other)
            found = [toks for toks in found if toks not in stays]
        for toks in found:
            self._schedule(ep.priority, ep.facet, ep.handler, (toks, items))

    # -- dispatch -----------------------------------------------------------

    def _dispatch_patch(self, ep: Endpoint, delta: Patch, before: Trie, after: Trie, kept: Trie) -> None:
        # kept: what the patch leaves of before (before less delta.removed),
        # as the turn's knowledge update made it.
        asserted = ep.on == "asserted"
        side = delta.added if asserted else delta.removed
        if side is EMPTY:
            return
        items = ep.items
        try:
            found = trie.captures(items, side)
        except InfiniteSet:
            raise _infinite(items)
        if not found:
            return
        # An addition is known after, and an exact removal is not.  An
        # exact addition, its halves being disjoint, was known before just
        # when what the patch leaves of before holds it.
        if asserted:
            known = before
            if ep.exact:
                known = kept if kept is not EMPTY and trie.may_meet(side, kept) else EMPTY
            for toks in found:
                if known is EMPTY or not trie.captures(_spliced(items, toks), known):
                    self._schedule(ep.priority, ep.facet, ep.handler, (toks, items))
        else:
            for toks in found:
                inst = _spliced(items, toks)
                if trie.captures(inst, before) and (ep.exact or not trie.captures(inst, after)):
                    self._schedule(ep.priority, ep.facet, ep.handler, (toks, items))

    def _schedule(self, priority: int, facet: Optional[Facet], fn: Callable, args: tuple = ()) -> None:
        # An entry holds the script's function and arguments, not a closure
        # (for an activation, the handler and its match; the turn loop drops
        # it if the facet has stopped by then).
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
        if self.graph.damaged:
            self.graph.repair_damage(self._refresh_endpoint)
        if self._was:
            self._flush()
        self._actions.append(action)

    def _flush(self) -> None:
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
                if went:
                    came, gone = trie.union(came, new), trie.union(gone, old)
                else:
                    came, gone, meets = new, old, probe
                went.add(who)
        if not went:
            return
        # A lone changed pair was probed above, a union is probed here;
        # after this, came and gone are disjoint, and so are the halves.
        if meets if len(went) == 1 else trie.may_meet(came, gone):
            came, gone = trie.subtract(came, gone), trie.subtract(gone, came)
        # Before: the notes (a stopped endpoint's among them) and the
        # unchanged others; now: the new tries and the same others.  So
        # each unchanged contribution is taken off both halves, where it
        # can meet them at the root: through a root default on either
        # side, or a root edge it shares with the change as it was here.
        wild = came.default is not EMPTY or gone.default is not EMPTY
        roots = came.edges.keys() | gone.edges.keys()
        for who in chain((None,), self.endpoints.values()):
            if came is EMPTY and gone is EMPTY:
                return
            if who in went:
                continue
            k = self.adhoc if who is None else who.current
            if k is EMPTY or not wild and k.default is EMPTY and k.edges.keys().isdisjoint(roots):
                continue
            if came is not EMPTY and trie.may_meet(came, k):
                came = trie.subtract(came, k)
            if gone is not EMPTY and trie.may_meet(gone, k):
                gone = trie.subtract(gone, k)
        if came is not EMPTY or gone is not EMPTY:
            self._actions.append(Patch.disjoint(came, gone))


def spawn_actor(name: str, boot: Callable[[Facet], None]) -> Spawn:
    def make(identity):
        rt = ActorRuntime(identity, boot)
        return rt, rt.startup()

    return Spawn(make, name)


# ---------------------------------------------------------------------------
# Pattern helpers


def _infinite(items: list) -> InfiniteMatchSet:
    """The error for a subscription over ``items`` whose captures met a
    default (``trie.InfiniteSet``), naming the subscription as asserted:
    capture marks read as wildcards."""
    sub = parse_exact([WILDCARD if i is CAPTURE else i for i in items])[0]
    return InfiniteMatchSet(f"subscription {format_value(sub)} matched infinitely many values")


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


def _captures(items: list, body) -> Optional[tuple]:
    """Match a message body against spec items: the captured values in
    order, as a tuple, or None.  One pass over the items, walking the body in
    pre-order with an explicit stack: atoms compare by kind and payload,
    compounds by label and arity.  A ``WILDCARD`` in the body meets any
    item, a compound one as that many wildcard fields, so a capture mark
    under it captures ``WILDCARD``; it is tested for only where a
    comparison has failed."""
    caps: list = []
    todo = [body]
    for item in items:
        v = todo.pop()
        if item is CAPTURE:
            caps.append(v)
        elif item is WILDCARD:
            continue
        elif type(item) is AtomTok:
            if (v != item[1] or atom_kind(v) != item[0]) and v is not WILDCARD:
                return None
        else:
            label, arity = item
            if isinstance(v, Record):
                if v.label is not label:
                    return None
                v = v.fields
            elif label is not None or not isinstance(v, tuple):
                if v is not WILDCARD:
                    return None
                v = (WILDCARD,) * arity
            if len(v) != arity:
                return None
            todo.extend(reversed(v))
    return tuple(caps)
