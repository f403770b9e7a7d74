"""The multiplexer: one shared assertion store for many streams.

Each connected stream owns a set of assertions.  Applying a patch from
one stream yields the events every stream should observe: other streams
see the portion of the change that is (a) newly visible past everyone
else's assertions and (b) covered by their own subscriptions, while the
updating stream additionally receives feedback for subscriptions it just
added or removed.

An update makes one walk over the routing index (``trie.update_routes``;
``test_box_round_trip_trie_work``), down the stream's own set and the
two halves of its patch together.  The walk moves the stream's id into
or out of the index's leaf sets where the patch changes the stream's own
set, and reads what became visible or invisible off those leaf sets (an
assertion shows when its leaf set fills from empty, and goes when it
empties).  A half of the patch that shows whole comes back as it came,
not rebuilt: the walk copies a half's edge map only at a node where one
of its edges first differs
(``test_update_routes_hands_back_the_halves_that_show_whole``).  If the
walk hands back the old own set itself, the patch changed nothing and
the update ends there.  The subscriptions the stream adds and drops are
the differences of its subscriptions (``observation_bodies``) after and
before, worked out only when those are not the same object.  Retracting
a wildcard can remove only what the stream holds, so under a removal
wildcard the walk follows the stream's own set, not the index
(``test_wildcard_retraction_work_does_not_grow_with_peers``).
``trie.update_routes`` gives the cost, which counts the fan-out of each
index node the walk rebuilds, as a rebuilt node copies its edges (not
gated).  ``remove_stream``, which retracts the universe, costs
O(|own set|) (``test_remove_stream_work_does_not_grow_with_what_it_watched``).

The audience of a change, the streams whose subscriptions meet the
visible change, is read by the same walk: it carries a fifth cursor down
the subscriptions standing before the update (``observation_bodies`` of
the index) and collects their leaf sets wherever a value becomes visible
or invisible.  It visits the subscriptions' edges only where it visits
the index's (under an addition wildcard, or where the stream's own set
has a default), so a removal wildcard still costs only what the stream
holds.  The updating stream is served in the same pass as its peers, in
stream order, and only when it is in that audience or its subscriptions
change; otherwise its feedback is empty, so none is worked out (not
gated).  A peer hears the visible change intersected with its
subscriptions; where they cover a visible half, that half comes back
from ``trie.intersect`` as itself, so a peer hears the publisher's own
trie, and a later patch that removes it removes the very object the peer
holds (``test_published_trie_reaches_the_subscriber_whole``).  Every
delta is built as a trusted disjoint patch (see ``patch``).

A mux built with ``relay=sid`` serves stream ``sid`` as its layer's
relay to the containing layer: in the audience, the relay hears the
whole visible change, not its intersection with its subscriptions.  This
is exact for the engine's relay, because all it does with what it hears
is ``patch.drop_outbound``, which reads only the ``outbound(_)`` and
``observe(inbound(_))`` parts of a patch, and those are exactly what the
relay subscribes to: translating the intersection gives what translating
the whole change gives.  Every other peer, and the relay when it is the
author, is served exactly.

A message is routed by value: the index is walked along the message
body, with no token list or ``observe(body)`` built (not gated).  A body
holding a wildcard is compiled as a pattern, and its audience is every
subscription it could meet, read by ``trie.leaves_meeting``; a facet
actor fires the handlers of those subscriptions, each capture under a
wildcard of the body read as ``WILDCARD``.  A body that is neither a
value nor a pattern makes ``compile_pattern`` raise ValueError.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from . import trie
from .patch import EMPTY_PATCH, Patch, RETRACT_ALL, observation_bodies
from .trie import EMPTY, Trie
from .values import NotAValue, Value

StreamId = int


class Mux:
    """Routing state: per-stream assertion sets plus a combined index.

    The index maps each assertion to the frozenset of stream ids
    currently asserting it, so candidate audiences for a change are
    found by one walk along the change instead of a scan over all
    streams.  ``relay``, if given, is the stream that hears the visible
    change unrestricted; ``Mux()`` has none.  Adding a stream whose
    initial patch adds nothing makes no walk: a fresh stream holds
    nothing a removal could take.  ``copy`` gives a mux in the same state
    that changes apart from this one, sharing its immutable tries.
    """

    __slots__ = ("next_id", "streams", "routes", "relay")

    def __init__(self, relay: Optional[StreamId] = None):
        self.next_id: StreamId = 0
        self.streams: Dict[StreamId, Trie] = {}
        self.routes: Trie = EMPTY
        self.relay = relay

    def copy(self) -> "Mux":
        """A mux in this one's state that changes apart from it.  The
        tries are immutable, so they are shared; only ``streams`` is
        copied."""
        twin = Mux(self.relay)
        twin.next_id = self.next_id
        twin.streams = dict(self.streams)
        twin.routes = self.routes
        return twin

    def add_stream(self, initial: Patch = EMPTY_PATCH) -> Tuple[StreamId, Trie, List[Tuple[StreamId, Patch]]]:
        sid = self.next_id
        self.next_id += 1
        self.streams[sid] = EMPTY
        if initial.added is EMPTY:
            # A fresh stream holds nothing to remove: no walk.
            return sid, EMPTY, []
        own, events = self._update(sid, initial, feedback=True)
        return sid, own, events

    def remove_stream(self, sid: StreamId) -> List[Tuple[StreamId, Patch]]:
        # The departing stream hears nothing, so its feedback is not worked out.
        _, events = self._update(sid, RETRACT_ALL, feedback=False)
        del self.streams[sid]
        return events

    def all_assertions(self, hide: Optional[StreamId] = None) -> Trie:
        """Every assertion some stream holds, except those held by ``hide`` alone."""
        return trie.relabel(lambda ids: () if ids - {hide} else None, self.routes)

    def update_stream(self, sid: StreamId, requested: Patch) -> Tuple[Trie, List[Tuple[StreamId, Patch]]]:
        """Apply a stream's patch; returns the stream's assertion set
        after it (the one before, the same object, if the patch changes
        nothing) and the events it yields, ordered by stream.  Nothing
        changes if the trie work raises, so a caller may drop the patch
        and carry on."""
        return self._update(sid, requested, feedback=True)

    def _update(
        self, sid: StreamId, requested: Patch, feedback: bool
    ) -> Tuple[Trie, List[Tuple[StreamId, Patch]]]:
        old = self.streams[sid]
        routes_old = self.routes
        # The audience, the streams whose subscriptions meet the visible
        # change, is read off the subscriptions standing before: one the
        # patch adds meets it only through the author's feedback below.
        routes_new, own_new, appeared, vanished, audience = trie.update_routes(
            routes_old, old, sid, requested.added, requested.removed, observation_bodies(routes_old)
        )
        if own_new is old:
            return old, []

        came = gone = EMPTY
        if feedback:
            # A part of the own set the walk left alone is the same object.
            subs_new = observation_bodies(own_new)
            if old is EMPTY:
                came = subs_new  # held nothing: every subscription is new
            else:
                subs_old = observation_bodies(old)
                if subs_new is not subs_old:
                    came, gone = trie.subtract(subs_new, subs_old), trie.subtract(subs_old, subs_new)
            # The author hears feedback only if it is in the audience or
            # its subscriptions change.  Its kept subscriptions, those of
            # ``old`` less ``gone``, meet the visible change only if some
            # observe(c) with c changed is in ``old``, and then routes_old
            # holds observe(c) tagged with sid: sid is in the audience.
            if came is not EMPTY or gone is not EMPTY:
                audience.add(sid)
        else:
            audience.discard(sid)

        events: List[Tuple[StreamId, Patch]] = []
        for peer in sorted(audience):
            if peer == sid:
                # Subscriptions the stream keeps hear what became visible;
                # those it adds catch up on what stands after, those it drops
                # let go of what stood before; one that held nothing only catches up.
                if old is EMPTY:
                    delta = Patch.disjoint(trie.intersect(came, routes_new), EMPTY)
                else:
                    kept = trie.subtract(subs_old, gone)
                    delta = Patch.disjoint(
                        trie.union(trie.intersect(appeared, kept), trie.intersect(came, routes_new)),
                        trie.union(trie.intersect(vanished, kept), trie.intersect(gone, routes_old)),
                    )
            elif peer == self.relay:
                # The relay's translation selects its interests itself.
                delta = Patch.disjoint(appeared, vanished)
            else:
                interests = observation_bodies(self.streams[peer])
                delta = Patch.disjoint(
                    trie.intersect(appeared, interests),
                    trie.intersect(vanished, interests),
                )
            if not delta.is_empty():
                events.append((peer, delta))

        self.streams[sid] = own_new
        self.routes = routes_new
        return own_new, events

    def route_message(self, body: Value) -> List[StreamId]:
        """Stream ids subscribed to a message body, ascending.

        The routing index is walked along the body itself: the
        ``observe`` edge, then an edge or the default per part of the
        body.  The walk refuses a body that is not a value.  Such a body
        is compiled as a pattern instead, and its audience read off the
        index's subscriptions with ``trie.leaves_meeting``; one with
        wildcards meets every subscription it could meet, and
        ``compile_pattern`` raises ValueError on anything else.
        """
        interests = observation_bodies(self.routes)
        try:
            ids = trie.search_value(body, interests)
        except NotAValue:
            ids = trie.leaves_meeting(interests, trie.compile_pattern(body))
        return sorted(ids) if ids else []
