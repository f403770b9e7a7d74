"""Patches: signed deltas over assertion sets, represented as trie pairs.

A patch carries two disjoint unit tries, the assertions being added and
the assertions being removed.  Patches compose associatively, can be
limited against a base set so they describe only real change, and apply
to a set by removing then adding.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import trie
from .values import INBOUND, OBSERVE, OUTBOUND, Value, format_value, observe
from .trie import EMPTY, Trie


@dataclass(frozen=True)
class Patch:
    added: Trie
    removed: Trie

    def __post_init__(self):
        # Normalize: an assertion both added and removed cancels out.
        overlap = trie.intersect(self.added, self.removed)
        if overlap is not EMPTY:
            object.__setattr__(self, "added", trie.subtract(self.added, overlap))
            object.__setattr__(self, "removed", trie.subtract(self.removed, overlap))

    def is_empty(self) -> bool:
        return self.added is EMPTY and self.removed is EMPTY

    def is_non_empty(self) -> bool:
        return not self.is_empty()

    def __repr__(self) -> str:
        return render(self)


EMPTY_PATCH = Patch(EMPTY, EMPTY)

#: Retract-everything patch: removes the universe of single values.
RETRACT_ALL = Patch(EMPTY, trie.universe(1))


def from_sets(added: Iterable[Value] = (), removed: Iterable[Value] = ()) -> Patch:
    return Patch(trie.assertion_set(added), trie.assertion_set(removed))


def assert_patch(*values: Value) -> Patch:
    return from_sets(added=values)


def retract_patch(*values: Value) -> Patch:
    return from_sets(removed=values)


def compose(newer: Patch, older: Patch) -> Patch:
    """Sequential composition: the effect of ``older`` then ``newer``."""
    return Patch(
        trie.subtract(trie.union(older.added, newer.added), newer.removed),
        trie.union(trie.subtract(older.removed, newer.added), newer.removed),
    )


def limit(requested: Patch, base: Trie) -> Patch:
    """Trim a patch to the change it actually makes to ``base``."""
    return Patch(
        trie.subtract(requested.added, base),
        trie.intersect(requested.removed, base),
    )


def apply_patch(base: Trie, delta: Patch) -> Trie:
    return trie.union(trie.subtract(base, delta.removed), delta.added)


def diff(old: Trie, new: Trie) -> Patch:
    """The patch taking the set ``old`` to the set ``new``."""
    return Patch(trie.subtract(new, old), trie.subtract(old, new))


def intersect(p: Patch, bound: Trie) -> Patch:
    """Restrict both halves of a patch to assertions inside ``bound``."""
    return Patch(trie.intersect(p.added, bound), trie.intersect(p.removed, bound))


def aggregate_visibility(applied: Patch, others: Trie) -> Patch:
    """The portion of an applied patch visible past other streams' assertions."""
    return Patch(
        trie.subtract(applied.added, others),
        trie.subtract(applied.removed, others),
    )


def label_patch(p: Patch, label) -> Patch:
    """Wrap every assertion in a unary record, e.g. to cross a layer boundary."""
    return Patch(trie.wrap_trie(label, p.added), trie.wrap_trie(label, p.removed))


def unwrap_patch(p: Patch, label) -> Patch:
    return Patch(trie.unwrap_trie(label, p.added), trie.unwrap_trie(label, p.removed))


def observation_bodies(t: Trie) -> Trie:
    """The set {c | observe(c) in t}."""
    return trie.unwrap_trie(OBSERVE, t)


def lift_inbound(p: Patch) -> Patch:
    """Wrap an incoming outer-layer patch for consumption inside a nested layer."""
    return label_patch(p, INBOUND)


def drop_outbound(p: Patch) -> Patch:
    """Translate a nested layer's patch into outer-layer terms.

    outbound(c) becomes a direct assertion of c; observe(inbound(c))
    becomes an outer subscription observe(c); everything else stays
    inside the layer and vanishes here.
    """
    return Patch(_drop_side(p.added), _drop_side(p.removed))


def _drop_side(t: Trie) -> Trie:
    direct = trie.unwrap_trie(OUTBOUND, t)
    interests = trie.unwrap_trie(INBOUND, trie.unwrap_trie(OBSERVE, t))
    return trie.union(direct, trie.wrap_trie(OBSERVE, interests))


def drop_message(body: Value):
    """Translate a message sent inside a nested layer; None if it stays local."""
    from .values import unwrap

    return unwrap(OUTBOUND, body)


def lift_message(body: Value) -> Value:
    from .values import inbound

    return inbound(body)


def render(p: Patch) -> str:
    def side(t: Trie) -> str:
        try:
            keys = trie.pattern_set(t)
        except trie.InfiniteSet:
            return "<infinite>"
        items = sorted(format_value(k[0]) for k in keys)
        return "{" + ", ".join(items) + "}"

    return f"+{side(p.added)}/-{side(p.removed)}"
