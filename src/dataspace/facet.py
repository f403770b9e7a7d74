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
no pending scripts is inert and stops at the end of the turn.
"""
from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional

from . import trie
from .dataflow import Graph
from .engine import Actor, Message, QUIT, Spawn
from .patch import Patch, apply_patch, diff
from .trie import EMPTY, InfiniteSet, Trie
from .values import (
    CAPTURE,
    Record,
    Symbol,
    Value,
    WILDCARD,
    decompose,
    format_value,
    is_atom,
    is_compound,
    observe,
    values_equal,
)

PRIORITY_QUERY_RETRACT = 0
PRIORITY_QUERY_ADD = 1
PRIORITY_DEFAULT = 2

_INSTANCE = Symbol("instance")


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
    return type(a) is type(b) and a == b


class Endpoint:
    __slots__ = (
        "eid",
        "facet",
        "kind",  # "assert" | "sub"
        "compute",  # assert: () -> value or None
        "pattern",  # sub: pattern possibly containing Field refs
        "on",  # sub: "asserted" | "retracted" | "message"
        "handler",  # sub: fn(*captures)
        "guard",  # sub: optional fn(*captures) -> bool
        "priority",
        "current",  # trie contributed to the actor's published set
        "current_pattern",  # sub: pattern with Field refs resolved
    )

    def __init__(self, eid, facet, kind):
        self.eid = eid
        self.facet = facet
        self.kind = kind
        self.compute = None
        self.pattern = None
        self.on = None
        self.handler = None
        self.guard = None
        self.priority = PRIORITY_DEFAULT
        self.current = EMPTY
        self.current_pattern = None

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
        else:
            ep.compute = lambda: _resolve(value_or_fn)
        self.runtime._refresh_endpoint(ep)
        return ep

    def on_asserted(self, pattern, handler, priority=PRIORITY_DEFAULT) -> Endpoint:
        return self.runtime._add_sub(self, pattern, "asserted", handler, priority)

    def on_retracted(self, pattern, handler, priority=PRIORITY_DEFAULT) -> Endpoint:
        return self.runtime._add_sub(self, pattern, "retracted", handler, priority)

    def on_message(self, pattern, handler, guard=None) -> Endpoint:
        ep = self.runtime._add_sub(self, pattern, "message", handler)
        ep.guard = guard
        return ep

    def stop_when_asserted(self, pattern, continuation=None) -> Endpoint:
        return self.runtime._add_stop(self, pattern, "asserted", continuation)

    def stop_when_retracted(self, pattern, continuation=None) -> Endpoint:
        return self.runtime._add_stop(self, pattern, "retracted", continuation)

    def stop_when_message(self, pattern, continuation=None) -> Endpoint:
        return self.runtime._add_stop(self, pattern, "message", continuation)

    def on_start(self, fn) -> None:
        self.runtime._schedule(PRIORITY_DEFAULT, self, lambda: fn())

    def on_stop(self, fn) -> None:
        self.stop_handlers.append(fn)

    # -- structure ----------------------------------------------------------

    def react(self, body: Callable[["Facet"], None]) -> "Facet":
        return self.runtime._add_facet(self, body)

    def stop(self, continuation: Optional[Callable] = None) -> None:
        self.runtime._schedule(
            PRIORITY_DEFAULT, None, lambda: self.runtime._stop_facet(self, continuation)
        )

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
        supervising facet keeps an interest in that marker alive for as
        long as the match stands, and the actor stops when the interest
        disappears.
        """

        def on_add(*caps):
            inst = _instantiate(pattern, caps)
            marker = Record(_INSTANCE, (self.runtime.fresh_tag(),))

            def supervisor(f: Facet):
                f.stop_when_retracted(inst)
                f.assert_(observe(marker))

            def child(f: Facet):
                f.assert_(marker)
                f.stop_when_retracted(observe(marker))
                body(f, *caps)

            self.react(supervisor)
            self.spawn(name, child)

        return self.on_asserted(pattern, on_add)

    # -- actions ------------------------------------------------------------

    def send(self, body: Value) -> None:
        self.runtime._emit(Message(body))

    def spawn(self, name: str, boot: Callable[["Facet"], None]) -> None:
        self.runtime._emit(spawn_actor(name, boot))

    def spawn_raw(self, spawn: Spawn) -> None:
        self.runtime._emit(spawn)

    # -- queries ------------------------------------------------------------

    def query_set(self, pattern, name="query-set") -> Field:
        f = self.field(frozenset(), name)

        def add(*caps):
            f.value = f.value | {caps[0] if len(caps) == 1 else caps}

        def rem(*caps):
            f.value = f.value - {caps[0] if len(caps) == 1 else caps}

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
        members: set = set()

        def add(*caps):
            if caps not in members:
                members.add(caps)
                f.value = len(members)

        def rem(*caps):
            members.discard(caps)
            f.value = len(members)

        self.on_asserted(pattern, add, PRIORITY_QUERY_ADD)
        self.on_retracted(pattern, rem, PRIORITY_QUERY_RETRACT)
        return f

    def query_hash(self, pattern, name="query-hash") -> Field:
        f = self.field({}, name)

        def add(key, *rest):
            d = dict(f.value)
            d[key] = rest[0] if len(rest) == 1 else rest
            f.value = d

        def rem(key, *_rest):
            d = dict(f.value)
            d.pop(key, None)
            f.value = d

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
        self.published: Trie = EMPTY
        self.adhoc: Trie = EMPTY
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
        idle: List[Facet] = []
        while self._queue:
            _, _, facet, thunk = heapq.heappop(self._queue)
            if facet is not None:
                facet.pending_scripts -= 1
                if facet.pending_scripts == 0:
                    idle.append(facet)
                if not facet.alive:
                    continue
            thunk()
        for facet in idle:
            self._maybe_prune(facet)
        self._flush()
        actions = self._actions
        self._actions = []
        if not self.root.children:
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
            ep.current = EMPTY if v is None else trie.compile_pattern((), v)
        else:
            pat = self.graph.with_subject(ep, lambda: _resolve(ep.pattern))
            ep.current_pattern = pat
            ep.current = trie.compile_pattern((), observe(_wildify(pat)))

    # -- dispatch -----------------------------------------------------------

    def _dispatch_patch(self, ep: Endpoint, delta: Patch, before: Trie, after: Trie) -> None:
        side = delta.added if ep.on == "asserted" else delta.removed
        if side is EMPTY:
            return
        pattern = ep.current_pattern
        try:
            keys = trie.key_set(trie.project(pattern, side))
        except InfiniteSet:
            raise InfiniteMatchSet(
                f"subscription {format_value(_wildify(pattern))} matched "
                "infinitely many values"
            )
        for caps in sorted(keys, key=_caps_order):
            inst = trie.compile_pattern((), _instantiate(pattern, caps))
            known_before = trie.intersect(inst, before) is not EMPTY
            known_after = trie.intersect(inst, after) is not EMPTY
            if ep.on == "asserted" and known_after and not known_before:
                self._activate(ep, caps)
            elif ep.on == "retracted" and known_before and not known_after:
                self._activate(ep, caps)

    def _dispatch_message(self, ep: Endpoint, body: Value) -> None:
        caps = _match(ep.current_pattern, body)
        if caps is None:
            return
        if ep.guard is not None and not ep.guard(*caps):
            return
        self._activate(ep, tuple(caps))

    def _activate(self, ep: Endpoint, caps: tuple) -> None:
        # The turn loop drops the script if ep's facet has stopped by then.
        self._schedule(ep.priority, ep.facet, lambda: ep.handler(*caps))

    def _schedule(self, priority: int, facet: Optional[Facet], thunk: Callable) -> None:
        if facet is not None:
            facet.pending_scripts += 1
        heapq.heappush(self._queue, (priority, self._seq, facet, thunk))
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
        for f in subtree:
            for h in f.stop_handlers:
                h()
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
        self.adhoc = trie.union(self.adhoc, trie.compile_pattern((), v))

    def retract_value(self, v: Value) -> None:
        self.adhoc = trie.subtract(self.adhoc, trie.compile_pattern((), v))

    def _emit(self, action) -> None:
        self._flush()
        self._actions.append(action)

    def _flush(self) -> None:
        self.graph.repair_damage(self._repair_subject)
        desired = self.adhoc
        for ep in self.endpoints.values():
            desired = trie.union(desired, ep.current)
        delta = diff(self.published, desired)
        if delta.is_non_empty():
            self._actions.append(delta)
            self.published = desired

    def _repair_subject(self, subject) -> None:
        if isinstance(subject, Endpoint):
            self._refresh_endpoint(subject)


def spawn_actor(name: str, boot: Callable[[Facet], None]) -> Spawn:
    def make(identity):
        rt = ActorRuntime(identity, boot)
        return rt, rt.startup()

    return Spawn(make, name)


# ---------------------------------------------------------------------------
# Pattern helpers


def _rebuild(pattern, leaf: Callable):
    """Copy ``pattern``, replacing each non-compound part ``p`` by ``leaf(p)``."""
    if is_compound(pattern):
        label, fields = decompose(pattern)
        out = tuple(_rebuild(f, leaf) for f in fields)
        return out if label is None else Record(label, out)
    return leaf(pattern)


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


def _match(pattern, value):
    """Structural match; returns the list of captured values or None."""
    caps: list = []

    def go(p, v) -> bool:
        if p is CAPTURE:
            caps.append(v)
            return True
        if p is WILDCARD:
            return True
        if is_atom(p):
            return is_atom(v) and values_equal(p, v)
        if is_compound(p):
            if not is_compound(v):
                return False
            lp, fp = decompose(p)
            lv, fv = decompose(v)
            if lp is not lv or len(fp) != len(fv):
                return False
            return all(go(a, b) for a, b in zip(fp, fv))
        raise ValueError(f"not a pattern: {p!r}")

    return caps if go(pattern, value) else None


def _caps_order(caps: tuple):
    return tuple(format_value(c) for c in caps)
