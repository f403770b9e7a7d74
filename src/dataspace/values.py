"""Assertion values, patterns, and their token serialization.

Values are the data actors publish: atoms (symbols, strings, integers,
floats, booleans) and compounds (plain tuples or labeled records).
Patterns extend values with a wildcard; projection specs additionally
allow capture marks.  Every value reads as a flat token sequence in
which each compound contributes an arity-tagged push token followed by
its fields; that sequence is the key format used by the trie index,
and a value's identity: atom tokens carry their kind, so 1, 1.0 and
True stay apart.

There is one walk each way.  ``spec_items`` reads a value or pattern
into its pre-order items (tokens, wildcards and capture marks) with an
explicit stack; ``serialize`` is that walk refusing a wildcard or
capture mark, and ``values_equal`` compares two token sequences, so
neither recurses on a deep value.  ``parse_exact`` reads values back
off a token sequence, such as a trie path, with a stack of its own.

A record is an immutable slotted object (``Frozen``) that compares and
hashes by its label and fields.  The engine's messages and spawn
requests, patches and trace records are ``Frozen`` too, so no part of
the package imports ``dataclasses``.
"""
from __future__ import annotations

import json
import math
from operator import itemgetter
from typing import Optional, Sequence, Union


class Symbol:
    """An interned identifier atom, distinct from strings.  One name makes
    one object, so symbols compare and hash by identity."""

    __slots__ = ("name",)
    _interned: dict = {}

    def __new__(cls, name: str) -> "Symbol":
        sym = cls._interned.get(name)
        if sym is None:
            sym = super().__new__(cls)
            object.__setattr__(sym, "name", name)
            cls._interned[name] = sym
        return sym

    def __setattr__(self, *_):
        raise AttributeError("Symbol is immutable")

    def __repr__(self) -> str:
        return self.name

    def __lt__(self, other: "Symbol") -> bool:
        return self.name < other.name


class Frozen:
    """Base of the immutable slotted classes: values, events and trace
    records.

    A subclass lists its fields in ``__slots__``, sets each once in its
    constructor, and returns them in order from ``_state``.  Assigning
    or deleting a field afterwards raises AttributeError, since
    ``__setattr__`` and ``__delattr__`` refuse.  Two objects are equal
    when they are of the same class and their fields are equal, and
    equal ones hash equal; the repr names the fields.  A slotted object
    is smaller than a frozen dataclass's, and the package need not
    import ``dataclasses``.

    A constructor gets past ``__setattr__`` with ``object.__setattr__``
    or, faster, with the slot's own descriptor (``Record.label.__set__``),
    which skips the name lookup: ``Record`` and the engine's ``Message``,
    made several times per event, bind their slot setters once and call
    those (a ``Record`` is built in about 60% of the time).  ``Patch``
    keeps ``object.__setattr__``: it is built in the mux's per-peer loop,
    and ``test_benchmark_shapes`` reads that loop's cost per notification
    against a join's fixed cost, so a cheaper notification there would
    read as a worse shape.
    """

    __slots__ = ()

    def _state(self) -> tuple:
        raise NotImplementedError

    def __setattr__(self, name, _value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._state() == other._state()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._state())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._state()))
        return f"{type(self).__name__}({fields})"


class Record(Frozen):
    """A labeled compound value: a named constructor applied to fields."""

    __slots__ = ("label", "fields")

    def __init__(self, label: Symbol, fields: tuple):
        _set_label(self, label)
        _set_fields(self, fields)

    def _state(self) -> tuple:
        return (self.label, self.fields)

    def __repr__(self) -> str:
        return format_value(self)


_set_label = Record.label.__set__
_set_fields = Record.fields.__set__


class _Wildcard:
    __slots__ = ()

    def __repr__(self) -> str:
        return "_"


class _Capture:
    __slots__ = ()

    def __repr__(self) -> str:
        return "$"


#: Pattern element matching any single value.
WILDCARD = _Wildcard()
#: Projection-spec element capturing the whole value at its position.
CAPTURE = _Capture()

Value = Union[bool, int, float, str, Symbol, tuple, Record]

# Reserved unary wrappers.
OBSERVE = Symbol("observe")
OUTBOUND = Symbol("outbound")
INBOUND = Symbol("inbound")

_ATOM_KIND_RANK = {"bool": 0, "int": 1, "float": 2, "str": 3, "symbol": 4}


class NotAValue(ValueError):
    pass


class MalformedTokens(ValueError):
    pass


#: The kinds of the atom types but float, whose NaN ``atom_kind`` refuses:
#: an atom of exactly one of these types is told apart in one lookup.
ATOM_KIND_OF_TYPE = {bool: "bool", int: "int", str: "str", Symbol: "symbol"}


def atom_kind(a) -> Optional[str]:
    kind = ATOM_KIND_OF_TYPE.get(type(a))
    if kind is not None:
        return kind
    if isinstance(a, bool):
        return "bool"
    if isinstance(a, int):
        return "int"
    if isinstance(a, float):
        if math.isnan(a):
            raise NotAValue("NaN is not admissible in assertions")
        return "float"
    if isinstance(a, str):
        return "str"
    if isinstance(a, Symbol):
        return "symbol"
    return None


def is_compound(v) -> bool:
    return isinstance(v, (tuple, Record))


def decompose(v) -> tuple:
    """Split a compound into (label-or-None, fields)."""
    if isinstance(v, Record):
        return v.label, v.fields
    return None, v


def unwrap(ctor: Symbol, v) -> Optional[Value]:
    if isinstance(v, Record) and v.label is ctor and len(v.fields) == 1:
        return v.fields[0]
    return None


def observe(v: Value) -> Record:
    return Record(OBSERVE, (v,))


def outbound(v: Value) -> Record:
    return Record(OUTBOUND, (v,))


def inbound(v: Value) -> Record:
    return Record(INBOUND, (v,))


# ---------------------------------------------------------------------------
# Tokens


# Tokens are trie edge labels, looked up on every step of every trie
# walk.  Each is a tuple, made from a pair: an atom token is (kind,
# payload) and a push token is (label, arity).  Hashing and equality are
# the tuple's own, so an edge lookup runs no Python code.  The kind is
# part of the tuple, so 1, 1.0 and True are three different tokens; a
# push token's label is a Symbol or None, never a kind string, so no
# push token equals an atom token.  Symbols are interned, so a label
# hashes and compares by identity.


class AtomTok(tuple):
    __slots__ = ()

    kind = property(itemgetter(0))
    payload = property(itemgetter(1))
    arity = 0

    def sort_key(self):
        return (0, _ATOM_KIND_RANK[self.kind], self.payload)

    def __repr__(self) -> str:
        return format_value(self.payload)


class PushTok(tuple):
    __slots__ = ()

    label = property(itemgetter(0))
    arity = property(itemgetter(1))

    def sort_key(self):
        label_key = (0, "") if self.label is None else (1, self.label.name)
        return (1, label_key, self.arity)

    def __repr__(self) -> str:
        if self.label is None:
            return f"⟪{self.arity}"
        return f"{self.label.name}⟪{self.arity}"


Token = Union[AtomTok, PushTok]


def token_sort_key(tok: Token):
    return tok.sort_key()


def atom_token(a) -> AtomTok:
    kind = atom_kind(a)
    if kind is None:
        raise NotAValue(f"not an atom: {a!r}")
    return AtomTok((kind, a))


def spec_items(spec) -> list:
    """A value's or pattern's pre-order items: tokens, ``WILDCARD`` and
    ``CAPTURE``.  This is the one walk from a value to its tokens:
    ``serialize`` is it for a value, and a pattern's items compile to its
    trie (``trie.compile_items``).  A subscription's items are made once,
    when its pattern is resolved, and every projection of it walks them.
    The walk keeps its own stack, and works out each atom's kind once.
    Raises ValueError, naming the part, for a part that is neither."""
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
                raise ValueError(f"neither a value nor a pattern: {p!r}")
            items.append(AtomTok((kind, p)))
    return items


def serialize(v: Value) -> list:
    """A value's pre-order token sequence: its ``spec_items``, which may
    hold no wildcard or capture mark.  Raises NotAValue, naming the
    offending part."""
    try:
        items = spec_items(v)
    except ValueError as e:  # NotAValue too, for NaN
        raise NotAValue(*e.args) from None
    for mark in (WILDCARD, CAPTURE):
        if mark in items:
            raise NotAValue(f"not a value: {mark!r}")
    return items


def parse_exact(tokens: Sequence[Token]) -> tuple:
    """Rebuild the values a token sequence spells, in order.

    Raises MalformedTokens when the sequence ends inside a value.  A
    WILDCARD token reads back as WILDCARD, one whole value.  The open
    compounds are kept on an explicit stack, so a deep value takes no
    Python frame per level.
    """
    values: list = []
    fields = values  # where the next value read goes
    stack: list = []  # per open compound: its push token, the fields it goes into
    for tok in tokens:
        if isinstance(tok, PushTok):
            stack.append((tok, fields))
            fields = []
        else:
            fields.append(WILDCARD if tok is WILDCARD else tok.payload)
        # Close every compound whose fields are all read.
        while stack and len(fields) == stack[-1][0].arity:
            push, outer = stack.pop()
            outer.append(tuple(fields) if push.label is None else Record(push.label, tuple(fields)))
            fields = outer
    if stack:
        raise MalformedTokens("unexpected end of token sequence")
    return tuple(values)


def values_equal(a, b) -> bool:
    """Structural equality that keeps atom kinds apart (1 != 1.0 != True):
    equal token sequences, as tokens carry their atom's kind."""
    return serialize(a) == serialize(b)


# ---------------------------------------------------------------------------
# Canonical text encoding


def format_value(v) -> str:
    if v is WILDCARD:
        return "_"
    if v is CAPTURE:
        return "$"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return repr(v)
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, Symbol):
        return v.name
    if is_compound(v):
        label, fields = decompose(v)
        if label is OBSERVE and len(fields) == 1:
            return "?" + format_value(fields[0])
        if label is OUTBOUND and len(fields) == 1:
            return "↓" + format_value(fields[0])
        if label is INBOUND and len(fields) == 1:
            return "↑" + format_value(fields[0])
        inner = " ".join(format_value(f) for f in fields)
        if label is None:
            return f"({inner})"
        return f"#{label.name}({inner})"
    raise NotAValue(f"cannot format {v!r}")


class _TextParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str) -> ValueError:
        return ValueError(f"{msg} at offset {self.pos} in {self.text!r}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_value(self):
        self.skip_ws()
        ch = self.peek()
        if not ch:
            raise self.error("unexpected end of input")
        if ch == "?":
            self.pos += 1
            return observe(self.parse_value())
        if ch == "↓":
            self.pos += 1
            return outbound(self.parse_value())
        if ch == "↑":
            self.pos += 1
            return inbound(self.parse_value())
        if ch == "(":
            return tuple(self.parse_fields())
        if ch == "#":
            self.pos += 1
            name = self.parse_bare_word()
            if self.peek() != "(":
                raise self.error("expected '(' after record label")
            return Record(Symbol(name), tuple(self.parse_fields()))
        if ch == '"':
            return self.parse_string()
        if ch == "_":
            self.pos += 1
            return WILDCARD
        if ch == "$":
            self.pos += 1
            return CAPTURE
        word = self.parse_bare_word()
        return self.interpret_word(word)

    def parse_fields(self) -> list:
        assert self.peek() == "("
        self.pos += 1
        fields = []
        while True:
            self.skip_ws()
            if self.peek() == ")":
                self.pos += 1
                return fields
            if not self.peek():
                raise self.error("unterminated compound")
            fields.append(self.parse_value())

    def parse_string(self) -> str:
        start = self.pos
        self.pos += 1
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "\\":
                self.pos += 2
                continue
            if ch == '"':
                self.pos += 1
                return json.loads(self.text[start : self.pos])
            self.pos += 1
        raise self.error("unterminated string")

    def parse_bare_word(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in ' \t\r\n()"#?↓↑$' :
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a value")
        return self.text[start : self.pos]

    def interpret_word(self, word: str):
        if word == "true":
            return True
        if word == "false":
            return False
        try:
            return int(word)
        except ValueError:
            pass
        try:
            return float(word)
        except ValueError:
            pass
        return Symbol(word)


def parse_text(text: str):
    """Parse the canonical text encoding back into a value or pattern."""
    p = _TextParser(text)
    v = p.parse_value()
    p.skip_ws()
    if p.pos != len(p.text):
        raise p.error("trailing input")
    return v
