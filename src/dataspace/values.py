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
The facet runtime walks an endpoint's pattern with ``spec_items`` too,
which reads the fields the pattern holds as it goes.

Text is the third form of a value, written from and read into the same
items: ``format_value`` writes ``spec_items`` out, and ``parse_text``
reads text into items for ``parse_exact``.  A symbol whose bare name
reads as something else is written between bars (``|1|``, ``|a b|``).

A record is an immutable slotted object (``Frozen``) that compares and
hashes by its label and fields.  The engine's messages and spawn
requests, patches and trace records are ``Frozen`` too, so no part of
the package imports ``dataclasses``.
"""
from __future__ import annotations

import json
import math
import re
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
        if type(label) is not Symbol or type(fields) is not tuple:
            raise NotAValue(f"a record takes a Symbol label and a tuple of fields, not {label!r}, {fields!r}")
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
# push token's label is a Symbol or None, never a kind string (``Record``
# refuses any label but a Symbol, and any fields but a tuple), so no push
# token equals an atom token.  Symbols are interned, so a label hashes and
# compares by identity.


class AtomTok(tuple):
    __slots__ = ()

    kind = property(itemgetter(0))
    payload = property(itemgetter(1))
    arity = 0

    def sort_key(self):
        return (0, _ATOM_KIND_RANK[self.kind], self.payload)

    def __repr__(self) -> str:
        kind, payload = self
        if kind == "symbol":
            return _symbol_text(payload)
        if kind == "str":
            return json.dumps(payload)
        return ("false", "true")[payload] if kind == "bool" else repr(payload)


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

# Reserved unary wrappers, and their push tokens, made once.
OBSERVE = Symbol("observe")
OUTBOUND = Symbol("outbound")
INBOUND = Symbol("inbound")
UNARY_TOKS = {label: PushTok((label, 1)) for label in (OBSERVE, OUTBOUND, INBOUND)}
OBSERVE_TOK = UNARY_TOKS[OBSERVE]


def token_sort_key(tok: Token):
    return tok.sort_key()


def atom_token(a) -> AtomTok:
    kind = atom_kind(a)
    if kind is None:
        raise NotAValue(f"not an atom: {a!r}")
    return AtomTok((kind, a))


def spec_items(spec, cell: Optional[type] = None) -> list:
    """A value's or pattern's pre-order items: tokens, ``WILDCARD`` and
    ``CAPTURE``.  This is the one walk from a value or pattern to its
    tokens: ``serialize`` is it for a value, and a pattern's items compile
    to its trie (``trie.compile_items``).  A part that is an instance of
    ``cell`` is read in place, through its ``.value``, as the part it
    stands for: a facet endpoint passes ``facet.Field``, so its items come
    from this walk reading the fields in its pattern as it meets them,
    once each time the endpoint computes, and every projection of a
    subscription walks them.  The walk keeps its own stack, and works out
    each atom's kind once; the cell test runs only for a part no other
    branch takes.
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
            if kind is not None:
                items.append(AtomTok((kind, p)))
            elif cell is not None and isinstance(p, cell):
                todo.append(p.value)
            else:
                raise ValueError(f"neither a value nor a pattern: {p!r}")
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
    WILDCARD or CAPTURE item reads back as itself, one whole value.  The
    open compounds are kept on an explicit stack, so a deep value takes
    no Python frame per level.
    """
    values: list = []
    fields = values  # where the next value read goes
    stack: list = []  # per open compound: its push token, the fields it goes into
    for tok in tokens:
        if isinstance(tok, PushTok):
            stack.append((tok, fields))
            fields = []
        else:
            fields.append(tok if tok is WILDCARD or tok is CAPTURE else tok.payload)
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

# One lexeme, after any whitespace: a delimiter or a prefix (``_`` and
# ``$`` stand alone), a record's ``#label(``, or an atom: a JSON string,
# a symbol quoted between bars, or a bare word.
_WORD = r'[^\s()"#?↓↑$|][^\s()"#?↓↑$]*'
_QUOTED = r"\|(?:[^|\\]|\\.)*\|"
_LEXEME = re.compile(
    rf'\s*(?:(?P<char>[()?↓↑_$])|#(?P<label>{_QUOTED}|{_WORD})\('
    rf'|(?P<atom>"(?:[^"\\]|\\.)*"|{_QUOTED}|(?P<word>{_WORD})))',
    re.S,
)
_WRAPPERS = {"?": OBSERVE, "↓": OUTBOUND, "↑": INBOUND}
_PREFIXES = {label: prefix for prefix, label in _WRAPPERS.items()}


def _interpret_word(word: str):
    """The atom a word spells: a JSON string, a symbol between bars, or a
    bare word: a boolean, a number if it starts as one can (a sign, a
    digit, a point, or ``inf``'s or ``nan``'s first letter), or a symbol."""
    head = word[0]
    if head == '"':
        return json.loads(word)
    if head == "|":
        return Symbol(json.loads('"' + word[1:-1].replace("\\|", "|") + '"'))
    if word == "true" or word == "false":
        return word == "true"
    if head in "+-.iInN" or head.isdecimal():
        for number in (int, float):
            try:
                return number(word)
            except ValueError:
                pass
    return Symbol(word)


def _symbol_text(sym: Symbol) -> str:
    """A symbol's bare name when that word reads back as it, else its name
    between bars, escaped as in a JSON string and with ``\\|`` for a bar."""
    name = sym.name
    m = _LEXEME.match(name)
    if m is not None and m["word"] == name and _interpret_word(name) is sym:
        return name
    return "|" + json.dumps(name)[1:-1].replace("|", "\\|") + "|"


def format_value(v) -> str:
    """A value's or pattern's canonical text: its ``spec_items`` written
    out in one loop, every item but a push token as its ``repr``, and a
    unary ``observe``, ``outbound`` or ``inbound`` as a ``?``, ``↓`` or
    ``↑`` prefix.  Raises NotAValue for a part that is no value, NaN too."""
    try:
        items = spec_items(v)
    except ValueError as e:
        raise NotAValue(*e.args) from None
    out: list = []
    stack: list = []  # per open compound: [fields left, its closer]
    for item in items:
        if item.__class__ is PushTok:
            label, arity = item
            prefix = _PREFIXES.get(label) if arity == 1 else None
            out.append(prefix or ("(" if label is None else f"#{_symbol_text(label)}("))
            if arity:
                stack.append([arity, "" if prefix else ")"])
                continue
            out.append(")")
        else:
            out.append(repr(item))
        # A whole value is written: close the compounds it completes.
        while stack:
            top = stack[-1]
            top[0] -= 1
            if top[0]:
                out.append(" ")
                break
            out.append(stack.pop()[1])
    return "".join(out)


def parse_text(text: str):
    """Parse canonical text back into a value or pattern: one loop reads
    it into items, writing a compound's push token once its ``)`` gives
    the arity, and ``parse_exact`` builds the value.  Raises ValueError
    on malformed text, and NotAValue on ``nan``, which is no value."""
    items: list = []
    # Per open compound: [label, index of its push token, fields read]; a
    # prefix, which takes one value, is None; the bottom one counts values.
    stack: list = [[None, -1, 0]]
    pos = 0
    while (m := _LEXEME.match(text, pos)) is not None:
        kind = m.lastgroup
        lexeme = m[kind]
        if len(stack) == 1 and stack[0][2]:
            raise ValueError(f"trailing input at offset {m.start(kind)} in {text!r}")
        pos = m.end()
        if kind == "label" or lexeme == "(":
            label = None if lexeme == "(" else _interpret_word(lexeme) if lexeme[0] == "|" else Symbol(lexeme)
            stack.append([label, len(items), 0])
            items.append(None)
            continue
        if lexeme in _WRAPPERS:
            items.append(UNARY_TOKS[_WRAPPERS[lexeme]])
            stack.append(None)
            continue
        if lexeme == ")":
            if stack[-1] is None or len(stack) == 1:
                raise ValueError(f"unexpected ')' at offset {m.start(kind)} in {text!r}")
            label, at, n = stack.pop()
            items[at] = PushTok((label, n))
        elif kind == "char":
            items.append(WILDCARD if lexeme == "_" else CAPTURE)
        else:
            items.append(atom_token(_interpret_word(lexeme)))
        # A whole value is read: it completes the prefixes waiting for it.
        while stack[-1] is None:
            stack.pop()
        stack[-1][2] += 1
    if text[pos:].strip():
        raise ValueError(f"expected a value at offset {len(text) - len(text[pos:].lstrip())} in {text!r}")
    if len(stack) > 1 or not stack[0][2]:
        raise ValueError(f"unexpected end of input in {text!r}")
    return parse_exact(items)[0]
