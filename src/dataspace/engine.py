"""The actor engine: dataspaces, spawning, messages, and layering.

A dataspace holds a mux plus the actors connected to it.  Actions are
interpreted one at a time from a FIFO queue; each interpreted action
yields events that are delivered to audiences in ascending stream
order, and the actions those deliveries produce join the back of the
queue.  A dataspace is itself an actor: stream 0 is the relay to its
container, which translates between the layer's own vocabulary and the
``outbound``/``inbound`` wrappers used across the boundary.

The relay subscribes to ``outbound(_)`` and ``observe(inbound(_))``
(``relay_interests``, one trie every layer shares, installed by a
trusted disjoint patch), exactly the parts of a patch that
``patch.drop_outbound`` reads.  The mux therefore hands the relay the
whole visible change without intersecting it with those interests
(``Mux(relay=META)``), and ``_outward`` selects them as it translates.
The two must select the same parts: if ``drop_outbound`` read a part
the relay does not watch, the container would hear changes to it.
``tests/test_engine.py::test_relay_translation_needs_no_restriction``
checks that translating a patch equals translating its intersection
with the relay's interests.  ``drop_outbound`` normalizes its result
only when a side holds an ``observe(inbound(_))`` part, the one part
that can cancel against the other side; a patch of ``outbound`` parts
alone translates with no set operation past the unwrapping.

Setting up pays only for what the newcomer asserts.  The mux of a layer
holding its relay's interests alone is built once per process, and each
layer starts from a copy of it (``Mux.copy``); a spawned actor's stream
is added with nothing in it, which makes no walk.  An untraced layer
makes no trace call: not per action, delivery, spawn, crash or exit.

An actor fails one way, through ``_crash``: a handler or boot that
raises, a turn or startup that is not an iterable of actions, a
non-action, or a patch or message body the mux refuses.  The fault is
kept in ``crashes``, printed (and traced), and the actor ends at once:
it hears nothing more, and its peers hear its assertions retracted.  A
turn's actions are drained before any is queued, so a turn that fails
part way queues none.  A ``QUIT`` from an ended actor changes nothing;
the container's faults raise.

Messages and spawn requests, like patches, are immutable slotted
objects (``values.Frozen``).
"""
from __future__ import annotations

import sys
from collections import deque
from typing import Callable, List, Optional, Tuple

from . import trie
from .patch import (
    EMPTY_PATCH,
    Patch,
    apply_patch,
    diff,
    drop_message,
    drop_outbound,
    lift_inbound,
    lift_message,
    render,
)
from .mux import Mux, StreamId
from .trace import Tracer
from .values import Frozen, NotAValue, Value, WILDCARD, format_value, inbound, observe, outbound


class Message(Frozen):
    __slots__ = ("body",)

    def __init__(self, body: Value):
        _set_body(self, body)

    def _state(self) -> tuple:
        return (self.body,)


_set_body = Message.body.__set__


class Spawn(Frozen):
    """Request to create an actor; ``boot(identity)`` returns (handler,
    startup actions).

    The engine assigns the identity: the spawning dataspace's path plus
    the new actor's ``name#sid``, unique across nested layers.
    """

    __slots__ = ("boot", "name")

    def __init__(self, boot: Callable, name: str = "actor"):
        object.__setattr__(self, "boot", boot)
        object.__setattr__(self, "name", name)

    def _state(self) -> tuple:
        return (self.boot, self.name)


#: Marker an actor includes in its returned actions to terminate itself.
QUIT = object()

Action = object  # Patch | Message | Spawn | QUIT
Event = object  # Patch | Message


class Actor:
    """Interface for things connected to a dataspace."""

    def handle(self, event: Event) -> List[Action]:
        raise NotImplementedError


META = 0  # stream id of the relay to the containing layer


class Dataspace(Actor):
    #: The relay subscribes on behalf of the container: it must see
    #: outbound assertions and interest in inbound ones.  Every layer
    #: shares this one trie, and the mux state built from it.
    relay_interests = trie.assertion_set(
        [observe(outbound(WILDCARD)), observe(observe(inbound(WILDCARD)))]
    )
    #: The mux of a layer holding its relay's interests and nothing
    #: else, built once and never changed: every layer starts from a copy.
    _relay_only = Mux(relay=META)
    _relay_only.add_stream(Patch.disjoint(relay_interests, trie.EMPTY))

    def __init__(
        self,
        boot_actions: List[Action],
        name: str = "ds",
        tracer: Optional[Tracer] = None,
        path: Tuple[str, ...] = (),
    ):
        self.tracer = tracer
        self.path = path + (name,)
        self.mux = self._relay_only.copy()
        self.actors: dict = {}
        self.names: dict = {META: "<relay>"}
        self.crashes: dict = {}
        self.pending: deque = deque()
        for a in boot_actions:
            self._enqueue(META, a, -1)

    # -- container side -----------------------------------------------------

    def handle(self, event: Event) -> List[Action]:
        if isinstance(event, Patch):
            self._enqueue(META, lift_inbound(event), -1)
        elif isinstance(event, Message):
            self._enqueue(META, Message(lift_message(event.body)), -1)
        else:
            raise TypeError(f"not an event: {event!r}")
        return self.run()

    # -- internals ----------------------------------------------------------

    def _trace(self, kind: str, who, payload, cause: int = -1) -> int:
        """Record a trace event, rendering ``payload`` (an action, an
        event or a text).  Callers must check that a tracer is set."""
        path = self.path + ((self.names.get(who, str(who)),) if who is not None else ())
        try:
            text = _describe(payload)
        except NotAValue:  # a message body that is not a value
            text = "<not a value>"
        return self.tracer.record(kind, path, text, cause)

    def _enqueue(self, author: StreamId, action: Action, cause: int) -> None:
        seq = -1 if self.tracer is None else self._trace("action-produced", author, action, cause)
        self.pending.append((author, action, seq))

    def run(self) -> List[Action]:
        """Interpret queued actions until inert; returns actions for the container."""
        outward: List[Action] = []
        while self.pending:
            author, action, cause = self.pending.popleft()
            seq = -1 if self.tracer is None else self._trace("action-interpreted", author, action, cause)
            if isinstance(action, Patch):
                self._interpret_patch(author, action, seq, outward)
            elif isinstance(action, Message):
                self._interpret_message(author, action, seq, outward)
            elif isinstance(action, Spawn):
                self._interpret_spawn(action, seq)
            elif action is _RETIRE:
                self._interpret_retire(author, seq, outward)
            elif action is QUIT:
                self._kill(author, seq)
            else:
                self._crash(author, TypeError(f"not an action: {action!r}"), seq)
        return outward

    def _interpret_patch(self, author, action: Patch, cause, outward) -> None:
        try:
            _, events = self.mux.update_stream(author, action)
        except Exception as e:
            # A patch the mux cannot take (one too deep for its trie
            # walkers, say) changed nothing.
            self._crash(author, e, cause)
            return
        for target, delta in events:
            self._deliver(target, delta, cause, outward)

    def _interpret_retire(self, author, cause, outward) -> None:
        for target, delta in self.mux.remove_stream(author):
            self._deliver(target, delta, cause, outward)
        del self.names[author]

    def _interpret_message(self, author, action: Message, cause, outward) -> None:
        try:
            targets = self.mux.route_message(action.body)
        except Exception as e:  # a body that is neither a value nor a pattern
            self._crash(author, e, cause)
            return
        for target in targets:
            self._deliver(target, action, cause, outward)

    def _interpret_spawn(self, action: Spawn, cause) -> None:
        sid, _, _ = self.mux.add_stream(EMPTY_PATCH)
        self.names[sid] = f"{action.name}#{sid}"
        seq = -1 if self.tracer is None else self._trace("actor-spawned", sid, action.name, cause)
        self.actors[sid] = None  # booting: alive, but hears nothing yet
        try:
            self.actors[sid], startup = action.boot(self.path + (self.names[sid],))
            if type(startup) is not list:
                startup = list(startup)  # drained first: a faulty one queues nothing
            front = [(sid, a, -1 if self.tracer is None else self._trace("action-produced", sid, a, seq))
                     for a in startup]
        except Exception as e:
            self._crash(sid, e, seq)
            return
        self.pending.extendleft(reversed(front))

    def _deliver(self, target: StreamId, event: Event, cause, outward) -> None:
        if target == META:
            out = _outward(event)
            if out is not None:
                if self.tracer is not None:
                    self._trace("event-delivered", META, out, cause)
                outward.append(out)
            return
        handler = self.actors.get(target)
        if handler is None:
            return  # exited actors receive nothing further
        seq = -1 if self.tracer is None else self._trace("event-delivered", target, event, cause)
        try:
            actions = handler.handle(event)
            if type(actions) is not list:
                actions = list(actions)  # drained first: a failed turn queues nothing
            for a in actions:
                self.pending.append((target, a, -1 if self.tracer is None
                                     else self._trace("action-produced", target, a, seq)))
        except Exception as e:
            self._crash(target, e, seq)

    def _crash(self, sid: StreamId, e: Exception, cause) -> None:
        """An actor's fault ends it at once; the container's is raised.
        A fault in what an ended actor left queued is still reported."""
        if sid == META:
            raise e
        self.crashes[sid] = e
        print(f"actor {self.names[sid]} crashed: {e!r}", file=sys.stderr)
        if self.tracer is not None:
            cause = self._trace("actor-crashed", sid, repr(e), cause)
        self._kill(sid, cause)

    def _kill(self, sid: StreamId, cause) -> None:
        if sid not in self.actors:
            return  # already ended: a later QUIT or fault ends nothing twice
        del self.actors[sid]
        seq = -1
        if self.tracer is not None:
            self._trace("actor-exited", sid, "", cause)
            seq = self._trace("action-produced", sid, _RETIRE, cause)
        # The retraction of a dead actor's assertions survives its death,
        # after every action it queued: it is its stream's last action.
        self.pending.append((sid, _RETIRE, seq))

    # -- inspection ---------------------------------------------------------

    def assertions(self) -> trie.Trie:
        """Everything currently asserted, relay bookkeeping excluded."""
        return self.mux.all_assertions(META)

    def layer_assertions(self) -> trie.Trie:
        """All assertions in this layer, relay mirror included, synthetic
        relay subscriptions excluded."""
        return trie.subtract(self.mux.all_assertions(), self.relay_interests)

    def find_actors(self, cls) -> list:
        return [a for a in self.actors.values() if isinstance(a, cls)]

    def living_names(self) -> set:
        return {self.names[sid] for sid in self.actors}


_RETIRE = object()


def _outward(event: Event):
    if isinstance(event, Patch):
        translated = drop_outbound(event)
        return None if translated.is_empty() else translated
    body = drop_message(event.body)
    return Message(body) if body is not None else None


def _describe(action) -> str:
    if isinstance(action, str):
        return action
    if isinstance(action, Patch):
        return render(action)
    if isinstance(action, Message):
        return "<" + format_value(action.body) + ">"
    if isinstance(action, Spawn):
        return f"spawn {action.name}"
    if action is QUIT:
        return "quit"
    if action is _RETIRE:
        return "retire"
    return repr(action)


def spawn_dataspace(boot_actions: List[Action], name: str = "ds") -> Spawn:
    """A spawn request for a nested dataspace layer."""

    def boot(identity):
        ds = Dataspace(boot_actions, name=identity[-1], path=identity[:-1])
        return ds, ds.run()

    return Spawn(boot, name)


# ---------------------------------------------------------------------------
# Ground layer


def ground_run(boot_actions: List[Action], injector=None, tracer: Optional[Tracer] = None) -> Dataspace:
    """Run a dataspace at ground level until it and its injector are quiet.

    The injector is the source of external events: its ``next_event()``
    returns the next event to deliver, or None when it is quiet.
    """
    ds = Dataspace(boot_actions, name="ground", tracer=tracer)
    ds.run()
    if injector is not None:
        while True:
            event = injector.next_event()
            if event is None:
                break
            ds.handle(event)
    return ds


# ---------------------------------------------------------------------------
# Full-state adapter


class FullStateActor(Actor):
    """Adapts a behavior that thinks in complete assertion sets.

    The wrapped behavior receives the full set of assertions it can see
    and replies with the full set it wants to assert; this adapter turns
    those into incremental patches, suppressing no-op updates.
    """

    def __init__(self, behavior: Callable, state, initial: trie.Trie = trie.EMPTY):
        self.behavior = behavior
        self.state = state
        self.seen = trie.EMPTY
        self.published = initial

    def handle(self, event: Event) -> List[Action]:
        if isinstance(event, Patch):
            self.seen = apply_patch(self.seen, event)
            result = self.behavior(self.state, self.seen, None)
        else:
            result = self.behavior(self.state, self.seen, event.body)
        if result is None:
            return []
        self.state, wanted, messages = result
        actions: List[Action] = []
        delta = diff(self.published, wanted)
        if not delta.is_empty():
            actions.append(delta)
        self.published = wanted
        actions.extend(Message(m) for m in messages)
        return actions

    def boot_actions(self) -> List[Action]:
        if self.published is trie.EMPTY:
            return []
        return [Patch(self.published, trie.EMPTY)]


def spawn_full_state(behavior, state, initial: trie.Trie = trie.EMPTY, name="actor") -> Spawn:
    def boot(_identity):
        actor = FullStateActor(behavior, state, initial)
        return actor, actor.boot_actions()

    return Spawn(boot, name)
