"""Patches: signed deltas over assertion sets, represented as trie pairs.

A patch carries two disjoint unit tries, the assertions being added and
the assertions being removed.  Patches can be limited against a base
set so they describe only real change, apply to a set by removing then
adding, and translate across a layer boundary.

``Patch(added, removed)`` normalizes: an assertion on both sides
cancels out, at the cost of subtracting each half from the other,
unless one is empty or ``trie.may_meet`` finds them disjoint first.
Patches that actors build go through it, and so do two operations
whose halves can meet: ``from_sets`` (its two lists are arbitrary)
and ``drop_outbound`` when a side holds an ``observe(inbound(_))``
part (the nested layer's ``+outbound(observe(x))`` and
``-observe(inbound(x))`` are different assertions inside, but both
translate to the outer ``observe(x)``, and only cancelling the pair
leaves the correct empty patch).  ``Patch.disjoint`` trusts its caller
and skips those subtractions; it is for halves disjoint by construction:
``limit``, ``diff``, ``aggregate_visibility``, ``label_patch`` (which
maps disjoint halves injectively), ``drop_outbound`` of a patch with no
``observe(inbound(_))`` part (the unwrapped ``outbound`` parts of
disjoint halves), the mux's per-stream deltas, and the facet runtime's
flush.
"""
from __future__ import annotations

from typing import Iterable

from . import trie
from .values import INBOUND, OBSERVE, OBSERVE_TOK, OUTBOUND, Frozen, Value, format_value, inbound, unwrap
from .trie import EMPTY, Branch, Trie


class Patch(Frozen):
    __slots__ = ("added", "removed")
    __hash__ = None  # its halves are tries, which do not hash

    def __init__(self, added: Trie, removed: Trie):
        # Normalize: an assertion both added and removed cancels out.
        if added is not EMPTY and removed is not EMPTY and trie.may_meet(added, removed):
            added, removed = trie.subtract(added, removed), trie.subtract(removed, added)
        object.__setattr__(self, "added", added)
        object.__setattr__(self, "removed", removed)

    @classmethod
    def disjoint(cls, added: Trie, removed: Trie) -> "Patch":
        """A patch from halves the caller knows to be disjoint; not normalized."""
        p = object.__new__(cls)
        object.__setattr__(p, "added", added)
        object.__setattr__(p, "removed", removed)
        return p

    def _state(self) -> tuple:
        return (self.added, self.removed)

    def is_empty(self) -> bool:
        return self.added is EMPTY and self.removed is EMPTY

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


def limit(requested: Patch, base: Trie) -> Patch:
    """Trim a patch to the change it actually makes to ``base``."""
    return Patch.disjoint(
        trie.subtract(requested.added, base),
        trie.intersect(requested.removed, base),
    )


def apply_patch(base: Trie, delta: Patch) -> Trie:
    return trie.union(trie.subtract(base, delta.removed), delta.added)


def diff(old: Trie, new: Trie) -> Patch:
    """The patch taking the set ``old`` to the set ``new``."""
    return Patch.disjoint(trie.subtract(new, old), trie.subtract(old, new))


def aggregate_visibility(applied: Patch, before: Trie, after: Trie) -> Patch:
    """The portion of an applied patch that changes the union of all streams.

    ``before`` and ``after`` are that union just before and just after
    the patch: an addition shows only if nothing held it before, and a
    removal only if nothing holds it after.
    """
    return Patch.disjoint(
        trie.subtract(applied.added, before),
        trie.subtract(applied.removed, after),
    )


def label_patch(p: Patch, label) -> Patch:
    """Wrap every assertion in a unary record, e.g. to cross a layer boundary."""
    return Patch.disjoint(trie.wrap_trie(label, p.added), trie.wrap_trie(label, p.removed))


def observation_bodies(t: Trie) -> Trie:
    """The set {c | observe(c) in t}, read off the edge in one frame: the mux reads it per peer."""
    return t.edges.get(OBSERVE_TOK) or (EMPTY if t.default is EMPTY else Branch(t.default, {}))


def lift_inbound(p: Patch) -> Patch:
    """Wrap an incoming outer-layer patch for consumption inside a nested layer."""
    return label_patch(p, INBOUND)


def drop_outbound(p: Patch) -> Patch:
    """Translate a nested layer's patch into outer-layer terms.

    outbound(c) becomes a direct assertion of c; observe(inbound(c))
    becomes an outer subscription observe(c); everything else stays
    inside the layer and vanishes here.

    Only an ``observe(inbound(_))`` part on one side can cancel against
    an ``outbound(observe(_))`` part on the other, so a patch with no
    such part on either side translates to the unwrapped ``outbound``
    parts of its disjoint halves, themselves disjoint, and skips the
    normalization.  Such a part lies under an ``observe`` edge or a
    default, so a patch whose halves have neither is known to have none
    before anything else is unwrapped.
    """
    strip = trie.unwrap_trie
    a, r = p.added, p.removed
    added, removed = strip(OUTBOUND, a), strip(OUTBOUND, r)
    added_interests = removed_interests = EMPTY
    if (a.default is not EMPTY or r.default is not EMPTY
            or OBSERVE_TOK in a.edges or OBSERVE_TOK in r.edges):
        added_interests = strip(INBOUND, strip(OBSERVE, a))
        removed_interests = strip(INBOUND, strip(OBSERVE, r))
    if added_interests is EMPTY and removed_interests is EMPTY:
        return Patch.disjoint(added, removed)
    return Patch(
        trie.union(added, trie.wrap_trie(OBSERVE, added_interests)),
        trie.union(removed, trie.wrap_trie(OBSERVE, removed_interests)),
    )


def drop_message(body: Value):
    """Translate a message sent inside a nested layer; None if it stays local."""
    return unwrap(OUTBOUND, body)


def lift_message(body: Value) -> Value:
    return inbound(body)


def render(p: Patch) -> str:
    def side(t: Trie) -> str:
        items = sorted(format_value(k[0]) for k in trie.pattern_set(t))
        return "{" + ", ".join(items) + "}"

    return f"+{side(p.added)}/-{side(p.removed)}"
