"""The multiplexer: one shared assertion store for many streams.

Each connected stream owns a set of assertions.  Applying a patch from
one stream yields the events every stream should observe: other streams
see the portion of the change that is (a) newly visible past everyone
else's assertions and (b) covered by their own subscriptions, while the
updating stream additionally receives feedback for subscriptions it just
added or removed.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

from . import trie
from .patch import (
    EMPTY_PATCH,
    Patch,
    RETRACT_ALL,
    aggregate_visibility,
    apply_patch,
    limit,
    observation_bodies,
)
from .trie import EMPTY, Trie
from .values import OBSERVE, Value, WILDCARD, observe

StreamId = int


def _only_left(a: trie.Ok, _b) -> Trie:
    return a


class Mux:
    """Routing state: per-stream assertion sets plus a combined index.

    The index maps each assertion to the frozenset of stream ids
    currently asserting it, so candidate audiences for a change are
    found by one intersection instead of a scan over all streams.
    """

    __slots__ = ("next_id", "streams", "routes")

    def __init__(self):
        self.next_id: StreamId = 0
        self.streams: Dict[StreamId, Trie] = {}
        self.routes: Trie = EMPTY

    def add_stream(self, initial: Patch = EMPTY_PATCH) -> Tuple[StreamId, Patch, List[Tuple[StreamId, Patch]]]:
        sid = self.next_id
        self.next_id += 1
        self.streams[sid] = EMPTY
        applied, events = self.update_stream(sid, initial)
        return sid, applied, events

    def remove_stream(self, sid: StreamId) -> List[Tuple[StreamId, Patch]]:
        _, events = self.update_stream(sid, RETRACT_ALL)
        del self.streams[sid]
        return [(target, p) for target, p in events if target != sid]

    def all_assertions(self) -> Trie:
        return trie.relabel(lambda ids: () if ids else None, self.routes)

    def update_stream(self, sid: StreamId, requested: Patch) -> Tuple[Patch, List[Tuple[StreamId, Patch]]]:
        old = self.streams[sid]
        applied = limit(requested, old)
        if applied.is_empty():
            return applied, []

        routes_old = self.routes
        others_old = trie.relabel(
            lambda ids: () if ids - {sid} else None, routes_old
        )
        visible = aggregate_visibility(applied, others_old)

        new = apply_patch(old, applied)
        self.streams[sid] = new
        self.routes = self._reroute(routes_old, sid, applied)

        events: List[Tuple[StreamId, Patch]] = []
        changed = trie.union(visible.added, visible.removed)
        if changed is not EMPTY:
            audience = trie.combine(
                routes_old,
                trie.wrap_trie(OBSERVE, changed),
                _only_left,
                left_only=trie.DROP,
                right_only=trie.DROP,
            )
            for peer in sorted(trie.leaf_union(audience)):
                if peer == sid:
                    continue
                interests = observation_bodies(self.streams[peer])
                delta = Patch(
                    trie.intersect(visible.added, interests),
                    trie.intersect(visible.removed, interests),
                )
                if delta.is_non_empty():
                    events.append((peer, delta))

        feedback = self._feedback(sid, old, new, applied, visible, routes_old)
        if feedback.is_non_empty():
            events.append((sid, feedback))
            events.sort(key=lambda e: e[0])
        return applied, events

    def _feedback(
        self,
        sid: StreamId,
        old: Trie,
        new: Trie,
        applied: Patch,
        visible: Patch,
        routes_old: Trie,
    ) -> Patch:
        obs_old = observation_bodies(old)
        obs_new = observation_bodies(new)
        added_fb = trie.intersect(visible.added, obs_new)
        removed_fb = trie.intersect(visible.removed, obs_old)

        new_interests = observation_bodies(applied.added)
        gone_interests = observation_bodies(applied.removed)
        if new_interests is not EMPTY or gone_interests is not EMPTY:
            all_old = trie.relabel(lambda ids: () if ids else None, routes_old)
            if new_interests is not EMPTY:
                # Catch-up: everything already standing that the new
                # subscriptions cover, as of after this very patch.
                standing = trie.subtract(
                    trie.union(all_old, visible.added), visible.removed
                )
                added_fb = trie.union(
                    added_fb, trie.intersect(standing, new_interests)
                )
            if gone_interests is not EMPTY:
                removed_fb = trie.union(
                    removed_fb, trie.intersect(all_old, gone_interests)
                )
        return Patch(added_fb, removed_fb)

    @staticmethod
    def _reroute(routes: Trie, sid: StreamId, applied: Patch) -> Trie:
        if applied.removed is not EMPTY:
            tagged = trie.relabel(lambda _: frozenset({sid}), applied.removed)
            routes = trie.subtract_routes(routes, tagged)
        if applied.added is not EMPTY:
            tagged = trie.relabel(lambda _: frozenset({sid}), applied.added)
            routes = trie.union_routes(routes, tagged)
        return routes

    def route_message(self, body: Value) -> List[StreamId]:
        """Stream ids subscribed to a message body, ascending."""
        key = trie.serialize_wild(observe(body))
        if any(t is WILDCARD for t in key):
            ids = trie.search_wild(key, self.routes, frozenset.union)
        else:
            ids = trie.search(key, self.routes)
        return sorted(ids) if ids else []
