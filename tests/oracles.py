"""Independent reference implementations used to check the real ones.

Everything here works with plain Python sets and structural recursion,
deliberately sharing no code with the trie or mux implementations, nor
with the token walk (``values.spec_items``) that serializes a value and
decides its equality: atoms are told apart by ``atom_type`` here.
``trie_members`` reads a trie's nodes and tokens as data, with an order
and a decoding of its own.

``count_calls`` is the one call counter behind every gate on counted
work.
"""
from __future__ import annotations

import os
import random
import sys
from collections import Counter
from typing import Dict, FrozenSet, List, Set

import dataspace
from dataspace.trie import EMPTY, Ok
from dataspace.values import (
    CAPTURE,
    AtomTok,
    Record,
    Symbol,
    WILDCARD,
    observe,
)

#: The directory of the ``dataspace`` package's modules.
PACKAGE = os.path.dirname(dataspace.__file__)

A = Symbol("a")
B = Symbol("b")
ATOMS = (A, B, 0, 1, True, False, 1.0)
#: The atom types, each its own kind; bool before int, its base class.
ATOM_TYPES = (bool, int, float, str, Symbol)


def atom_type(v):
    """The atom type ``v`` is of, or None for a non-atom."""
    return next((t for t in ATOM_TYPES if isinstance(v, t)), None)


def is_compound(v) -> bool:
    return isinstance(v, (tuple, Record))


def decompose(v) -> tuple:
    """Split a compound into (label-or-None, fields)."""
    if isinstance(v, Record):
        return v.label, v.fields
    return None, v


def kind_equal(a, b) -> bool:
    """Structural equality that keeps atom kinds apart (1 != 1.0 != True),
    by recursion: the reference for ``values.values_equal``."""
    ta, tb = atom_type(a), atom_type(b)
    if ta or tb:
        return ta is tb and a == b
    if is_compound(a) and is_compound(b):
        la, fa = decompose(a)
        lb, fb = decompose(b)
        return la is lb and len(fa) == len(fb) and all(kind_equal(x, y) for x, y in zip(fa, fb))
    return False


def build_universe() -> List[object]:
    """All values over ``ATOMS`` with compound arity <= 2, depth <= 2."""
    level0 = list(ATOMS)
    level1 = level0 + [
        t
        for t in [()]
        + [(x,) for x in level0]
        + [(x, y) for x in level0 for y in level0]
    ]
    seen = {_hashable(v) for v in level1}
    level2 = list(level1)
    for t in (
        [()]
        + [(x,) for x in level1]
        + [(x, y) for x in level1 for y in level1]
    ):
        h = _hashable(t)
        if h not in seen:
            seen.add(h)
            level2.append(t)
    return level2


def _hashable(v):
    # Distinguish atom kinds the way assertion equality does (0 != False).
    if atom_type(v):
        return (type(v).__name__, v)
    label, fields = decompose(v)
    return (label.name if label else None, tuple(_hashable(f) for f in fields))


def match(pattern, value) -> bool:
    """Does the concrete value belong to the pattern's meaning?"""
    if pattern is WILDCARD:
        return True
    if atom_type(pattern):
        return kind_equal(pattern, value)
    if is_compound(pattern):
        if not is_compound(value):
            return False
        lp, fp = decompose(pattern)
        lv, fv = decompose(value)
        return (
            lp is lv
            and len(fp) == len(fv)
            and all(match(p, v) for p, v in zip(fp, fv))
        )
    raise ValueError(f"not a pattern: {pattern!r}")


def _match(pattern, value):
    """Structural match; returns the list of captured values or None."""
    caps: list = []

    def go(p, v) -> bool:
        if p is CAPTURE:
            caps.append(v)
            return True
        if p is WILDCARD:
            return True
        if atom_type(p):
            return kind_equal(p, v)
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


def _instantiate(pattern, caps):
    """``pattern`` with its capture marks filled in by ``caps``, in order,
    by structural recursion: the reference for splicing a capture's
    tokens into a pattern's items (``facet._spliced``)."""
    caps = list(caps)

    def go(p):
        if p is CAPTURE:
            return caps.pop(0)
        if is_compound(p):
            label, fields = decompose(p)
            fields = tuple(go(f) for f in fields)
            return fields if label is None else Record(label, fields)
        return p

    result = go(pattern)
    assert not caps, "capture arity mismatch"
    return result


def random_pattern(rng: random.Random, depth: int = 2, wild_p: float = 0.25):
    if depth == 0 or rng.random() < 0.5:
        if rng.random() < wild_p:
            return WILDCARD
        return rng.choice(ATOMS)
    arity = rng.choice((0, 1, 2))
    return tuple(random_pattern(rng, depth - 1, wild_p) for _ in range(arity))


def meaning(pattern, universe) -> frozenset:
    """The indices of the members of ``universe`` that match ``pattern``."""
    return frozenset(i for i, v in enumerate(universe) if match(pattern, v))


def trie_members(t, wild=None):
    """The members of a trie of value sequences, as tuples of values, in
    trie order: at each node the default first, read back as ``wild``,
    then the edges, atoms before compounds, atoms by type (in
    ``ATOM_TYPES`` order) and payload, compounds by label (none first,
    then by name) and arity.  With ``wild`` None, a default makes the
    set infinite, and the answer is ``"infinite"``.  Plain recursion,
    one frame per token, carrying each member's whole token path."""
    out: list = []

    def walk(t, path) -> bool:
        if type(t) is Ok:
            out.append(_decode(path))
            return True
        if t is EMPTY:
            return True
        if t.default is not EMPTY:
            if wild is None:
                return False
            walk(t.default, path + [wild])
        return all(walk(t.edges[tok], path + [tok]) for tok in sorted(t.edges, key=_token_order))

    return out if walk(t, []) else "infinite"


def _token_order(tok):
    if type(tok) is AtomTok:
        v = tok.payload
        return (0, ATOM_TYPES.index(atom_type(v)), v.name if isinstance(v, Symbol) else v)
    return (1, (0, "") if tok.label is None else (1, tok.label.name), tok.arity)


def _decode(path) -> tuple:
    """The values a token path spells; WILDCARD reads back as itself."""
    values: list = []
    i = 0
    while i < len(path):
        v, i = _read(path, i)
        values.append(v)
    return tuple(values)


def _read(path, i):
    tok = path[i]
    if tok is WILDCARD or type(tok) is AtomTok:
        return (tok if tok is WILDCARD else tok.payload), i + 1
    fields: list = []
    i += 1
    for _ in range(tok.arity):
        v, i = _read(path, i)
        fields.append(v)
    return (tuple(fields) if tok.label is None else Record(tok.label, tuple(fields))), i


# ---------------------------------------------------------------------------
# Shadow model of patch routing: who should learn what, computed from
# first principles over a small concrete universe.


class ShadowModel:
    """Per-actor assertion stores over a finite witness universe.

    Assertion sets (possibly described by wildcard patterns) are kept as
    their concrete denotations restricted to ``witnesses``; syllabi are
    computed extensionally from those sets.  Retracting a pattern that
    overlaps another asserted pattern therefore removes the overlap,
    mirroring set semantics rather than item bookkeeping.
    """

    def __init__(self, witnesses: List[object], candidates: List[object]):
        self.witnesses = witnesses
        self.candidates = candidates
        self.stores: Dict[int, Set] = {}

    def add_actor(self, actor: int) -> None:
        self.stores[actor] = set()

    def remove_actor(self, actor: int) -> None:
        """Retract everything the actor asserts and disconnect it."""
        del self.stores[actor]

    def denote(self, patterns) -> Set:
        return {w for w in self.witnesses if any(match(q, w) for q in patterns)}

    def apply(self, actor: int, added, removed) -> None:
        # an assertion both added and removed cancels out, as in Patch
        add, rem = self.denote(added), self.denote(removed)
        self.stores[actor] = (self.stores[actor] - (rem - add)) | (add - rem)

    def syllabus(self, actor: int) -> FrozenSet:
        everything = set().union(*self.stores.values())
        mine = self.stores[actor]
        return frozenset(
            v for v in self.candidates if v in everything and observe(v) in mine
        )

    def syllabi(self) -> Dict[int, FrozenSet]:
        return {actor: self.syllabus(actor) for actor in self.stores}


def count_calls(thunk):
    """Run ``thunk``; return its result and the calls it made into Python
    functions, by code object, its own frame aside (built-ins run no
    Python code and are not counted).  The counts are exact for a seed,
    so a gate on them needs no retries; ``sys.setprofile`` slows what it
    runs several-fold, so a gate sizes its runs to match."""
    calls: Counter = Counter()
    own = getattr(thunk, "__code__", None)

    def count(frame, event, _arg):
        if event == "call" and frame.f_code is not own:
            calls[frame.f_code] += 1

    sys.setprofile(count)
    try:
        result = thunk()
    finally:
        sys.setprofile(None)
    return result, calls


def calls_by_file(calls: Counter) -> Counter:
    """``count_calls``'s counts summed per source file."""
    out: Counter = Counter()
    for code, n in calls.items():
        out[code.co_filename] += n
    return out


def package_calls(calls: Counter) -> int:
    """How many of ``count_calls``'s counts are calls into the
    ``dataspace`` package's modules: a measure of the kernel's work."""
    return sum(n for code, n in calls.items() if os.path.dirname(code.co_filename) == PACKAGE)
