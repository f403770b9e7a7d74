import pytest
from hypothesis import given, strategies as st

from dataspace.engine import Message, Spawn
from dataspace.patch import Patch
from dataspace.trace import TraceRecord
from dataspace.trie import EMPTY, compile_pattern
from dataspace.values import (
    CAPTURE,
    OBSERVE,
    WILDCARD,
    AtomTok,
    MalformedTokens,
    NotAValue,
    PushTok,
    Record,
    Symbol,
    atom_kind,
    atom_token,
    format_value,
    observe,
    parse_exact,
    parse_text,
    serialize,
    spec_items,
    token_sort_key,
    unwrap,
    values_equal,
)

from oracles import count_calls, kind_equal

S = Symbol

atoms = st.one_of(
    st.booleans(),
    st.integers(-1000, 1000),
    st.floats(allow_nan=False, allow_infinity=True, width=32),
    st.text(max_size=8),
    st.sampled_from([S("a"), S("b"), S("hello-world")]),
)

values = st.recursive(
    atoms,
    lambda children: st.one_of(
        st.lists(children, max_size=3).map(tuple),
        st.tuples(st.sampled_from([S("rec"), S("r2")]), st.lists(children, max_size=3))
        .map(lambda t: Record(t[0], tuple(t[1]))),
    ),
    max_leaves=12,
)

#: Values over atoms of all five kinds that plain equality confuses
#: (0 == 0.0 == False, 1 == 1.0 == True), so that pairs often collide.
close_values = st.recursive(
    st.sampled_from([0, 1, 0.0, 1.0, False, True, "1", S("1")]),
    lambda children: st.one_of(
        st.lists(children, max_size=2).map(tuple),
        st.lists(children, max_size=2).map(lambda fs: Record(S("rec"), tuple(fs))),
    ),
    max_leaves=6,
)


def test_symbols_are_interned_and_distinct_from_strings():
    assert S("x") is S("x")
    assert S("x") != "x"
    assert atom_kind(S("x")) == "symbol"
    assert atom_kind("x") == "str"


def test_nan_rejected():
    with pytest.raises(NotAValue):
        atom_kind(float("nan"))


@given(values)
def test_serialize_parse_roundtrip(v):
    toks = serialize(v)
    assert parse_exact(toks) == (v,)


@given(values, values)
def test_parse_two_values(v, w):
    assert parse_exact(serialize(v) + serialize(w)) == (v, w)


def test_parse_truncated_rejected():
    toks = serialize((1, 2, 3))
    with pytest.raises(MalformedTokens):
        parse_exact(toks[:-1])


#: Symbols of every name, as atoms and as labels: text must quote those
#: whose bare word reads as something else ("1", "true", "", "_a", "a b",
#: "x)"), and a unary observe, outbound or inbound record takes a prefix.
any_symbol = st.text().map(S)
text_values = st.recursive(
    st.one_of(atoms, any_symbol),
    lambda children: st.one_of(
        st.lists(children, max_size=3).map(tuple),
        st.tuples(
            st.one_of(st.sampled_from([S("observe"), S("outbound"), S("inbound")]), any_symbol),
            st.lists(children, max_size=2),
        ).map(lambda t: Record(t[0], tuple(t[1]))),
    ),
    max_leaves=12,
)


@given(st.one_of(values, text_values, close_values))
def test_text_roundtrip(v):
    assert values_equal(parse_text(format_value(v)), v)


def test_symbols_that_read_as_other_words_are_quoted():
    for name in ("1", "true", "1.5", "inf", "-0", "1_000", "nan", "", "_a", "$", "a b", "x)", "|a|", 'a"b'):
        text = format_value(S(name))
        assert text.startswith("|") and parse_text(text) is S(name), text
        assert parse_text(format_value(Record(S(name), (S(name),)))) == Record(S(name), (S(name),))
    assert format_value((S("a|b"), S("é"), S("x_y"))) == "(a|b é x_y)"
    assert format_value(S("a b")) == "|a b|" and format_value(S("|")) == "|\\||"
    assert parse_text("(1 |1|)") == (1, S("1"))


def test_nan_has_no_text():
    # atom_kind refuses NaN, so no assertion holds one: text neither
    # writes nor reads it.
    with pytest.raises(NotAValue):
        format_value(float("nan"))
    with pytest.raises(NotAValue):
        format_value((1, Record(S("r"), (float("nan"),))))
    with pytest.raises(ValueError):
        parse_text("nan")
    with pytest.raises(ValueError):
        parse_text("(1 nan)")


def test_text_forms():
    v = Record(S("sale"), (S("milk"), (1, S("pt"))))
    assert format_value(v) == "#sale(milk (1 pt))"
    assert format_value(observe(v)) == "?#sale(milk (1 pt))"
    assert format_value(True) == "true"
    assert format_value("hi there") == '"hi there"'
    assert parse_text('( "x" 2 )') == ("x", 2)


def test_atom_kinds_kept_apart():
    assert not values_equal(1, 1.0)
    assert not values_equal(1, True)
    assert not values_equal(0, False)
    assert serialize(1) != serialize(True)
    assert values_equal((1, S("a")), (1, S("a")))


@given(st.one_of(values, close_values), close_values)
def test_values_equal_agrees_with_the_reference(v, w):
    assert values_equal(v, w) == kind_equal(v, w)
    assert values_equal(v, v) and kind_equal(v, v)


@given(values)
def test_serialize_is_the_token_walk_of_a_value(v):
    assert serialize(v) == spec_items(v)


@given(
    st.lists(values, max_size=3),
    st.integers(0, 3),
    st.sampled_from([WILDCARD, CAPTURE, [1]]),
    st.integers(0, 40),
)
def test_serialize_refuses_a_non_value_part_naming_it(fields, at, bad, depth):
    fields.insert(at, bad)
    v = tuple(fields)
    for i in range(depth):
        v = Record(S("rec"), (i, v))
    with pytest.raises(NotAValue) as refused:
        serialize(v)
    assert str(refused.value).endswith(repr(bad))
    with pytest.raises(NotAValue):
        values_equal(v, v)


def test_deep_values_serialize_and_compare_without_recursion():
    def nest(atom, depth=5000):
        for i in range(depth):
            atom = (atom,) if i % 2 else Record(S("n"), (atom,))
        return atom

    deep = nest(1)
    toks = serialize(deep)
    assert len(toks) == 5001 and toks[-1] == atom_token(1)
    assert serialize(parse_exact(toks)[0]) == toks
    assert values_equal(deep, nest(1))
    assert not values_equal(deep, nest(True)) and not values_equal(deep, nest(1, 4999))


def test_deep_values_round_trip_through_text():
    # format_value writes the token walk out and parse_text feeds
    # parse_exact, so neither takes a frame per level.
    deep = 1
    for i in range(5000):
        deep = (deep,) if i % 2 else Record(S("n") if i % 3 else OBSERVE, (deep,))
    text = format_value(deep)
    assert text.count("(") == 5000 - 5000 // 6 - 1 and text.count("?") == 5000 // 6 + 1
    assert values_equal(parse_text(text), deep)
    assert not values_equal(parse_text(text.replace("1", "true")), deep)
    pattern = Record(S("n"), (deep, WILDCARD, CAPTURE))
    assert spec_items(parse_text(format_value(pattern))) == spec_items(pattern)


def test_token_order_atoms_before_pushes():
    toks = [
        PushTok((S("z"), 1)),
        PushTok((None, 2)),
        AtomTok(("symbol", S("a"))),
        AtomTok(("int", 3)),
        AtomTok(("bool", True)),
    ]
    ordered = sorted(toks, key=token_sort_key)
    assert ordered == [
        AtomTok(("bool", True)),
        AtomTok(("int", 3)),
        AtomTok(("symbol", S("a"))),
        PushTok((None, 2)),
        PushTok((S("z"), 1)),
    ]


def test_tokens_of_five_kinds_are_five_keys():
    table = {atom_token(x): x for x in (1, True, 1.0, "1", S("1"))}
    assert len(table) == 5
    assert [atom_kind(x) for x in table.values()] == ["int", "bool", "float", "str", "symbol"]
    assert table[atom_token(True)] is True and table[atom_token(1.0)] == 1.0


def test_push_token_equals_no_atom_token():
    push = PushTok((None, 1))
    for x in (1, True, 1.0, "1", S("1"), 0, ""):
        tok = atom_token(x)
        assert push != tok and tok != push
        assert len({push: 0, tok: 1}) == 2
    assert PushTok((S("int"), 1)) != AtomTok(("int", 1))


def test_record_takes_only_a_symbol_label_and_a_tuple_of_fields():
    # A string label would spell an atom token: Record("int", (5,)) would
    # read as the atom 1 then 5, and Record(None, (1,)) as the tuple (1,).
    for label, fields in (("int", (5,)), (None, (1,)), (1, ()), (S("p"), [1]), (S("p"), 1)):
        with pytest.raises(NotAValue):
            Record(label, fields)
    v = Record(S("int"), (5,))
    assert serialize(v) == [PushTok((S("int"), 1)), atom_token(5)]
    assert parse_exact(serialize(v)) == (v,)


def test_token_lookup_and_symbol_hash_run_no_python_code():
    edges = {atom_token(7): 0, PushTok((S("x"), 2)): 1}
    # Equal to the stored keys, but distinct objects.
    atom, push = atom_token(7), PushTok((S("x"), 2))
    assert all(atom is not k and push is not k for k in edges)
    sym = S("x")
    got, calls = count_calls(lambda: (edges.get(atom), edges.get(push), hash(sym)))
    assert not calls, calls
    assert got[:2] == (0, 1)


def test_unwrap_only_matching_ctor():
    v = observe(S("x"))
    assert unwrap(Symbol("observe"), v) is S("x")
    assert unwrap(Symbol("inbound"), v) is None
    assert unwrap(Symbol("observe"), S("x")) is None


def test_value_and_event_types_are_immutable_and_compare_by_fields():
    boot = lambda _identity: (None, [])
    objects = {
        "label": Record(S("r"), (1, "x")),
        "body": Message(S("ping")),
        "name": Spawn(boot, "worker"),
        "added": Patch(compile_pattern(1), EMPTY),
        "payload": TraceRecord(0, -1, ("ground",), "actor-spawned", "worker"),
    }
    for field, obj in objects.items():
        before = getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert getattr(obj, field) is before
    # Equal records are interchangeable as keys; the label and every
    # field take part, and a record is no plain tuple.
    r1, r2 = Record(S("r"), (1, "x")), Record(S("r"), (1, "x"))
    assert r1 is not r2 and r1 == r2 and hash(r1) == hash(r2)
    assert {r1: "first"}[r2] == "first"
    assert r1 != Record(S("q"), (1, "x")) and r1 != Record(S("r"), (1, "y"))
    assert r1 != (S("r"), (1, "x"))
    # A patch holds tries, which do not hash.
    with pytest.raises(TypeError):
        hash(Patch(compile_pattern(1), EMPTY))
    assert Patch(compile_pattern(1), EMPTY) == Patch(compile_pattern(1), EMPTY)
    body = (S("ping"), [1])  # equality does not need a hashable body
    assert Message(body) == Message(body) and Message(1) != Message(2)
    assert Message(1) != 1 and hash(Message(S("ping"))) == hash(Message(S("ping")))
    assert Spawn(boot, "worker") == Spawn(boot, name="worker") != Spawn(boot)
    assert Spawn(boot).name == "actor"
    assert TraceRecord(0, -1, (), "actor-exited", "") == TraceRecord(0, -1, (), "actor-exited", "")
    assert repr(Message(1)) == "Message(body=1)"
    assert repr(objects["payload"]) == (
        "TraceRecord(seq=0, cause=-1, path=('ground',), kind='actor-spawned', payload='worker')"
    )
