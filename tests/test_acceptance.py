"""End-to-end acceptance suite for the whole package.

Each test here freezes one externally checkable obligation: trie algebra
against a naive set oracle, hand-encoded structural fixtures, canonical
forms, deterministic traces, routing against an independent shadow
model, the full-state adapter, example transcripts, failure isolation,
cross-layer assertion sets, benchmark cost shapes, and dataflow repair.
"""
import importlib.util
import pathlib
import random
import time
from collections import Counter

import pytest

from dataspace import cli, facet, trie
from dataspace.cli import (
    bench_broadcast,
    bench_conn_scale,
    bench_scn_flat,
    bench_scn_presence,
    bench_unicast,
    fit_inverse,
    flatness,
)
from dataspace.dataflow import Graph
from dataspace.engine import (
    Actor,
    Dataspace,
    Message,
    ground_run,
    spawn_full_state,
)
from dataspace.facet import InfiniteMatchSet, spawn_actor
from dataspace.mux import Mux
from dataspace.patch import EMPTY_PATCH, assert_patch, from_sets, retract_patch
from dataspace.programs import PROGRAMS
from dataspace.trace import Tracer
from dataspace.trie import (
    EMPTY,
    Branch,
    Ok,
    assertion_set,
    compile_pattern,
    intersect,
    key_set,
    leaves_meeting,
    pattern_set,
    project,
    search_value,
    spec_items,
    subtract,
    union,
    universe,
    update_routes,
)
from dataspace.values import (
    CAPTURE,
    PushTok,
    Record,
    Symbol,
    WILDCARD,
    atom_token,
    inbound,
    observe,
    outbound,
    serialize,
)
from oracles import (
    ShadowModel,
    _hashable,
    _match,
    build_universe,
    calls_by_file,
    count_calls,
    match,
    meaning,
    package_calls,
    random_pattern,
)

S = Symbol

UNIVERSE = build_universe()


def _index_trie(values):
    """A routing trie of ``values``: each member's leaf holds its index."""
    t = EMPTY
    for i, v in enumerate(values):
        t = update_routes(t, EMPTY, i, compile_pattern(v), EMPTY, EMPTY)[0]
    return t


U_INDEX = _index_trie(UNIVERSE)


def denote(t):
    """The members of a unit trie in the test universe, as their indices
    there (``meaning``'s terms)."""
    return frozenset(leaves_meeting(U_INDEX, t))


# ---------------------------------------------------------------------------
# 1. Trie algebra against the naive set oracle


def _random_spec(rng, depth=2):
    p = random_pattern(rng, depth, wild_p=0.4)

    def plant(q):
        if q is WILDCARD:
            return CAPTURE if rng.random() < 0.5 else q
        if isinstance(q, tuple):
            return tuple(plant(x) for x in q)
        return q

    return plant(p)


def test_trie_operations_agree_with_set_oracle():
    rng = random.Random(1)
    started = time.monotonic()
    pool = [random_pattern(rng) for _ in range(64)]
    tries = [compile_pattern(p) for p in pool]
    sets = [meaning(p, UNIVERSE) for p in pool]
    for t, s in zip(tries, sets):
        assert denote(t) == s  # compilation itself agrees

    ops = ("union", "intersect", "subtract", "search", "project", "keyset")
    for case in range(10_000):
        op = ops[case % len(ops)]
        i, j = rng.randrange(len(pool)), rng.randrange(len(pool))
        if op == "union":
            assert denote(union(tries[i], tries[j])) == sets[i] | sets[j]
        elif op == "intersect":
            assert denote(intersect(tries[i], tries[j])) == sets[i] & sets[j]
        elif op == "subtract":
            assert denote(subtract(tries[i], tries[j])) == sets[i] - sets[j]
        elif op == "search":
            v = rng.choice(UNIVERSE)
            assert (search_value(v, tries[i]) is not None) == match(pool[i], v)
        elif op == "project":
            sample = rng.sample(UNIVERSE, 24)
            spec = _random_spec(rng)
            got = {
                tuple(_hashable(x) for x in k)
                for k in key_set(project(spec_items(spec), assertion_set(sample)))
            }
            want = set()
            for v in sample:
                caps = _match(spec, v)
                if caps is not None:
                    want.add(tuple(_hashable(x) for x in caps))
            assert got == want
        else:
            sample = rng.sample(UNIVERSE, 16)
            got = {_hashable(k[0]) for k in key_set(assertion_set(sample))}
            assert got == {_hashable(v) for v in sample}
    assert time.monotonic() - started <= 60


# ---------------------------------------------------------------------------
# 2. Hand-encoded structural fixtures


def test_token_sequence_fixture():
    v = (S("sale"), S("milk"), (1, S("pt")), (1.17, S("usd")))
    assert serialize(v) == [
        PushTok((None, 4)),
        atom_token(S("sale")),
        atom_token(S("milk")),
        PushTok((None, 2)),
        atom_token(1),
        atom_token(S("pt")),
        PushTok((None, 2)),
        atom_token(1.17),
        atom_token(S("usd")),
    ]


def test_compiled_trie_fixture():
    t = compile_pattern((S("sale"), S("milk"), WILDCARD, WILDCARD))
    expected = Branch(
        EMPTY,
        {
            PushTok((None, 4)): Branch(
                EMPTY,
                {
                    atom_token(S("sale")): Branch(
                        EMPTY,
                        {
                            atom_token(S("milk")): Branch(
                                Branch(Ok(()), {}), {}
                            )
                        },
                    )
                },
            )
        },
    )
    assert t == expected


def test_projection_fixtures():
    a, b = S("a"), S("b")
    base = assertion_set(
        [(S("present"), a), (S("present"), b), (S("says"), a, "hello")]
    )
    assert frozenset(key_set(project(spec_items((S("says"), CAPTURE, CAPTURE)), base))) == frozenset(
        {(a, "hello")}
    )
    assert frozenset(key_set(project(spec_items((S("present"), CAPTURE)), base))) == frozenset(
        {(a,), (b,)}
    )


# ---------------------------------------------------------------------------
# 3. Canonicity: equal meanings, identical structures


def test_equal_meaning_constructions_are_structurally_identical():
    rng = random.Random(3)
    for _ in range(1000):
        patterns = [random_pattern(rng) for _ in range(rng.randint(1, 4))]
        t = EMPTY
        for p in patterns:
            t = union(t, compile_pattern(p))
        shuffled = patterns[:]
        rng.shuffle(shuffled)
        t2 = EMPTY
        for p in shuffled:
            t2 = union(t2, compile_pattern(p))
        assert t == t2
        assert union(t, t) == t
        assert union(t, EMPTY) == t
        assert intersect(t, t) == t
        assert intersect(t, universe(1)) == t
        assert subtract(t, EMPTY) == t
        assert subtract(t, t) == EMPTY


# ---------------------------------------------------------------------------
# 4. Engine determinism: byte-identical repeated traces


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_repeated_runs_trace_identically(name, tmp_path):
    paths = [str(tmp_path / f"{name}.{i}.trace") for i in (1, 2)]
    for path in paths:
        tracer = Tracer(path)
        PROGRAMS[name](lambda line: None, tracer=tracer)
        tracer.close()
    first, second = (pathlib.Path(p).read_bytes() for p in paths)
    assert first == second
    assert first  # non-trivial trace


# ---------------------------------------------------------------------------
# 5. Concision: adversarial churn yields alternating activations


STEP = S("step")


class Flapper(Actor):
    """Re-asserts and re-retracts one value, duplicating every patch."""

    def __init__(self, value, rounds):
        self.value = value
        self.rounds = rounds
        self.phase = 0

    def handle(self, event):
        if not (isinstance(event, Message) and event.body is STEP):
            return []
        if self.phase >= 2 * self.rounds:
            return []
        self.phase += 1
        mk = assert_patch if self.phase % 2 else retract_patch
        # the duplicate patch must be absorbed without a second activation
        return [mk(self.value), mk(self.value), Message(STEP)]


def test_adversarial_churn_activates_alternately():
    value = Record(S("flap"), ())
    rounds = 100
    log = []

    def monitor(f):
        f.on_asserted(value, lambda: log.append("+"))
        f.on_retracted(value, lambda: log.append("-"))

    from dataspace.engine import Spawn

    def boot(_identity):
        return Flapper(value, rounds), [
            assert_patch(observe(STEP)),
            Message(STEP),
        ]

    ground_run([spawn_actor("monitor", monitor), Spawn(boot, "flapper")])
    assert log == ["+", "-"] * rounds


# ---------------------------------------------------------------------------
# 6. Patch routing against the independent shadow model


def test_random_programs_match_shadow_model():
    rng = random.Random(6)
    started = time.monotonic()
    bases = [
        (S("a"),),
        (S("b"),),
        (S("a"), 0),
        (S("a"), 1),
        (S("b"), 0),
        (0,),
        (1,),
        (S("a"), S("b")),
    ]
    candidates = (
        bases
        + [observe(v) for v in bases]
        + [observe(observe(v)) for v in bases]
    )
    witnesses = candidates + [observe(v) for v in candidates]

    for _program in range(100):
        n_actors = rng.randint(2, 5)
        patterns = [random_pattern(rng) for _ in range(10)]
        pools = []
        for _ in range(n_actors):
            pool = (
                [rng.choice(bases) for _ in range(4)]
                + [rng.choice(patterns)]
                + [observe(rng.choice(patterns)) for _ in range(4)]
                + [observe(observe(rng.choice(patterns))) for _ in range(2)]
            )
            pools.append(pool)

        m = Mux()
        shadow = ShadowModel(witnesses, candidates)
        sids = []
        for i in range(n_actors):
            sid, _, events = m.add_stream(EMPTY_PATCH)
            assert events == []
            sids.append(sid)
            shadow.add_actor(sid)

        for _step in range(20):
            actor = rng.choice(sids)
            before = shadow.syllabi()
            if len(sids) > 1 and rng.random() < 0.1:
                shadow.remove_actor(actor)
                _, events = m.remove_stream(actor)
                del pools[sids.index(actor)]
                sids.remove(actor)
            else:
                pool = pools[sids.index(actor)]
                added = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
                removed = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
                shadow.apply(actor, added, removed)
                _, events = m.update_stream(actor, from_sets(added, removed))
            after = shadow.syllabi()
            deltas = {target: delta for target, delta in events}
            assert len(deltas) == len(events)  # at most one event per actor
            for sid in sids:
                delta = deltas.get(sid)
                got_added = frozenset(
                    v for v in candidates if delta and search_value(v, delta.added) is not None
                )
                got_removed = frozenset(
                    v for v in candidates if delta and search_value(v, delta.removed) is not None
                )
                assert got_added == after[sid] - before[sid]
                assert got_removed == before[sid] - after[sid]
    assert time.monotonic() - started <= 120


# ---------------------------------------------------------------------------
# 7. Full-state adapter vs. incremental actor: identical traces


def _box_state(n):
    return Record(S("box-state"), (n,))


def _set_box(n):
    return Record(S("set-box"), (n,))


def _spawn_incremental_box():
    def box(f):
        current = f.field(0, "current-value")
        f.assert_(lambda: _box_state(current.value))
        f.on_message(_set_box(CAPTURE), lambda n: setattr(current, "value", n))

    return spawn_actor("box", box)


def _spawn_monolithic_box():
    vocabulary = lambda n: assertion_set(
        [_box_state(n), observe(_set_box(WILDCARD))]
    )

    def behavior(state, seen, msg):
        if msg is None:
            return None
        return msg.fields[0], vocabulary(msg.fields[0]), []

    return spawn_full_state(behavior, 0, vocabulary(0), name="box")


def _spawn_client(rounds):
    def client(f):
        def learned(v):
            if v < rounds:
                f.send(_set_box(v + 1))

        f.on_asserted(_box_state(CAPTURE), learned)

    return spawn_actor("client", client)


ENGINE_KINDS = {
    "actor-spawned",
    "actor-exited",
    "action-produced",
    "action-interpreted",
    "event-delivered",
}


def _engine_trace(spawn_box):
    tracer = Tracer()
    ground_run([spawn_box(), _spawn_client(20)], tracer=tracer)
    return [
        (r.path, r.kind, r.payload)
        for r in tracer.records
        if r.kind in ENGINE_KINDS
    ]


def test_monolithic_box_traces_like_incremental_box():
    incremental = _engine_trace(_spawn_incremental_box)
    monolithic = _engine_trace(_spawn_monolithic_box)
    assert incremental == monolithic
    assert len(incremental) > 100  # 20 rounds of real traffic


# ---------------------------------------------------------------------------
# 8. Example transcripts


def _transcript(name, **kwargs):
    lines = []
    ds = PROGRAMS[name](lines.append, **kwargs)
    return lines, ds


def test_box_transcript_prefix():
    lines, _ = _transcript("box")
    assert lines[:4] == [
        "client: learned that box's value is now 0",
        "box: taking on new-value 1",
        "client: learned that box's value is now 1",
        "box: taking on new-value 2",
    ]


def test_flip_flop_alternates_on_schedule():
    lines, _ = _transcript("flip-flop", virtual_ms=3500)
    assert lines == [
        "flip-flop starts in state false",
        "flip-flop is now true",
        "flip-flop is now false",
        "flip-flop is now true",
    ]


def test_presence_single_appearance_and_disappearance():
    lines, _ = _transcript("presence")
    assert lines == ["room appeared", "room disappeared"]


def test_demand_matcher_spawns_and_tears_down_workers():
    lines, ds = _transcript("demand-matcher")
    assert lines == [
        "worker for a up",
        "worker for b up",
        "worker for a down",
        "worker for b down",
    ]
    assert not any(n.startswith("worker") for n in ds.living_names())


# ---------------------------------------------------------------------------
# 9. Infinite projection kills the observer, not its peers


def test_wildcard_interest_terminates_only_the_server():
    lines, ds = _transcript("square-server")
    assert "3 squared is 9" in lines
    assert any(isinstance(e, InfiniteMatchSet) for e in ds.crashes.values())
    living = ds.living_names()
    assert not any(n.startswith("square-server") for n in living)
    assert any(n.startswith("good-client") for n in living)
    assert any(n.startswith("rogue-client") for n in living)


# ---------------------------------------------------------------------------
# 10. Cross-layer assertion sets


def _greeting(text):
    return Record(S("greeting"), (text,))


def test_cross_layer_final_assertion_sets():
    _, ds = _transcript("cross-layer")
    inner = ds.find_actors(Dataspace)[0]
    assert frozenset(pattern_set(inner.layer_assertions())) == frozenset(
        {
            (outbound(_greeting("Hi from inner!")),),
            (observe(inbound(_greeting(WILDCARD))),),
            (inbound(_greeting("Hi from outer space!")),),
            (inbound(_greeting("Hi from inner!")),),
        }
    )
    assert frozenset(pattern_set(ds.layer_assertions())) == frozenset(
        {
            (_greeting("Hi from outer space!"),),
            (_greeting("Hi from inner!"),),
            (observe(_greeting(WILDCARD)),),
        }
    )


# ---------------------------------------------------------------------------
# 11. Benchmark cost shapes (never absolute times)


def _assert_flat(bench, ks, limit=2.0, attempts=4):
    for attempt in range(attempts):
        points = [(k, bench(k, repeat=3)) for k in ks]
        if flatness(points) <= limit:
            return
    assert flatness(points) <= limit, f"cost not flat: {points}"


def test_benchmark_shapes():
    started = time.monotonic()
    _assert_flat(bench_unicast, (10, 100, 1000))
    _assert_flat(bench_scn_flat, (10, 100, 300))
    _assert_flat(bench_scn_presence, (10, 100, 300))
    _assert_flat(bench_conn_scale, (10, 100, 1000))
    for attempt in range(4):
        points = [(k, bench_broadcast(k, repeat=3)) for k in (10, 100, 1000)]
        a, _b = fit_inverse(points)
        if a > 0 and points[0][1] >= points[-1][1]:
            break
    assert a > 0  # per-delivery floor survives amortization
    assert points[0][1] >= points[-1][1]  # trend decreases with k
    assert time.monotonic() - started <= 600


def test_scn_presence_work_per_notification_is_flat(monkeypatch):
    # The counted twin of the timed scn-presence shape above, on the same
    # joins: package calls per notification may not grow with k.  Time
    # on a shared machine can read a cheaper notification as a worse
    # shape; counted work tells a shape from load.
    notified = Counter()

    class TallyingMux(Mux):
        def add_stream(self, initial=EMPTY_PATCH):
            sid, own, events = super().add_stream(initial)
            notified["events"] += len(events)
            return sid, own, events

    monkeypatch.setattr(cli, "Mux", TallyingMux)
    points = []
    for k in (10, 100, 300):
        notified.clear()
        calls = _package_calls(lambda: bench_scn_presence(k, repeat=1))
        assert notified["events"] == k * (k + 1) // 2  # each join tells the joiner and every peer
        points.append((k, calls / notified["events"]))
    assert flatness(points) <= 2.0, points


def _package_calls(thunk) -> int:
    """The calls ``thunk`` makes into the ``dataspace`` package."""
    return package_calls(count_calls(thunk)[1])


#: The counted twins of the other timed shapes: per shape, its builder run
#: with a timed loop of n units, the sizes the timed check sweeps, and the
#: units one pass of the loop makes at size k.  A broadcast is counted per
#: message, not per delivery: per delivery its cost falls as 1/k by design.
LOOP_TWINS = {
    "unicast": (lambda k, n: bench_unicast(k, repeat=1, msgs=n), (10, 100, 1000), lambda k: 1),
    "broadcast": (lambda k, n: bench_broadcast(k, repeat=1, msgs=n), (10, 100, 1000), lambda k: 1),
    # A round asserts and retracts the item, and each tells the k subscribers.
    "scn-flat": (lambda k, n: bench_scn_flat(k, repeat=1, rounds=n), (10, 100, 300), lambda k: 2 * k),
    "conn-scale": (lambda k, n: bench_conn_scale(k, repeat=1, cycles=n), (10, 100, 1000), lambda k: 1),
}


@pytest.mark.parametrize("shape", sorted(LOOP_TWINS))
def test_timed_shape_work_per_unit_is_flat(shape):
    # Package calls per unit of the timed loop alone: the difference
    # between a loop of 20 passes and one of 10, so set-up cancels out.
    run, ks, units = LOOP_TWINS[shape]
    points = []
    for k in ks:
        calls = _package_calls(lambda: run(k, 20)) - _package_calls(lambda: run(k, 10))
        points.append((k, calls / (10 * units(k))))
    assert flatness(points) <= 2.0, points


def _bench_workloads():
    """``bench/workloads.py``, the benchmark's actor programs, loaded as a module."""
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _calls_per_op(w, modules, ops: int) -> dict:
    """Run ``ops`` requests of workload ``w``; return the calls made per
    op into each of ``modules``, by module name."""

    def run():
        for _ in range(ops):
            w.ds.handle(w.request())

    by_file = calls_by_file(count_calls(run)[1])
    assert w.check()
    return {m.__name__: by_file[m.__file__] / ops for m in modules}


def test_presence_work_per_member_is_flat():
    # A cost shape gated by counted work, not time: the counts are exact
    # for a seed, so the gate needs no retries and load cannot flake it.
    # A churn op notifies each of the K members once, so its trie and
    # facet work per member may not grow with K.
    workloads = _bench_workloads()
    per_member = {}
    for k in (8, 32, 100):
        w = type("Presence", (workloads.Presence,), {"size": k})(1)
        for _ in range(w.warmup_ops):
            w.ds.handle(w.request())
        per_member[k] = {name: n / k for name, n in _calls_per_op(w, (trie, facet), 10).items()}
    for name in (trie.__name__, facet.__name__):
        points = [(k, counts[name]) for k, counts in per_member.items()]
        assert flatness(points) <= 2.0, (name, points)
    # A query updates its table per capture and builds its view only when
    # read: rebuilding the view per capture reads 39.1 here.
    assert per_member[32][facet.__name__] < 32, per_member


def test_presence_keys_its_matches_on_tokens():
    # Dispatch finds each match as its capture tokens, and a query keys
    # its table on them, so a steady op serializes no value; keying the
    # table on the parsed captures made 3 calls per member, 24 at K = 8.
    workloads = _bench_workloads()
    for k in (8, 32):
        w = type("Presence", (workloads.Presence,), {"size": k})(1)
        for _ in range(w.warmup_ops):
            w.ds.handle(w.request())
        _, calls = count_calls(lambda: w.ds.handle(w.request()))
        assert w.check()
        assert calls[serialize.__code__] == 0, (k, calls[serialize.__code__])


def test_presence_dispatch_builds_no_projection():
    # Each of the K members hears a leave as a retraction, and asks
    # whether the capture was known before with the member walk
    # (``trie.captures``); building the projection instead made K
    # ``trie.project`` calls per op.
    w = _bench_workloads().Presence(1)
    for _ in range(w.warmup_ops):
        w.ds.handle(w.request())
    _, calls = count_calls(lambda: [w.ds.handle(w.request()) for _ in range(5)])
    assert w.check()
    assert calls[trie.project.__code__] == 0
    assert calls[trie.captures.__code__] > 0


def _setup_calls(cls) -> Counter:
    """Calls made into each function of the ``dataspace`` package while
    one fresh copy of workload ``cls`` is set up, by (file, name)."""
    package = pathlib.Path(trie.__file__).parent
    cls(1)  # the first copy settles what is built once per process
    calls = Counter()
    for code, n in count_calls(lambda: cls(1))[1].items():
        path = pathlib.Path(code.co_filename)
        if path.parent == package:
            calls[(path.name, code.co_name)] += n
    return calls


def test_setup_work_is_bounded():
    # Conversations start all the time, so the fixed cost of starting
    # actors and layers is gated by counted work, as a round trip's is.
    # A subscription compiles its trie from its items, and a layer's relay
    # subscribes to nothing, so the box's own assertion is the one pattern
    # a box set-up compiles; a pattern holding no Field is used as it
    # stands, not copied.  A layer starts with an empty mux and its
    # relay's empty stream, a spawn adds its stream with no walk, an
    # untraced set-up does no trace bookkeeping, and a fresh subtree goes
    # through the routing walk's join loop, which gathers its audience at
    # the leaves it reaches, with no meeting walk.
    workloads = _bench_workloads()
    box, relay = _setup_calls(workloads.Box), _setup_calls(workloads.Relay)
    assert box[("trie.py", "compile_pattern")] <= 1, box
    assert sum(box.values()) <= 280, sum(box.values())
    assert sum(relay.values()) <= 380, sum(relay.values())
    for calls in (box, relay):
        for name in (("engine.py", "_trace"), ("trie.py", "leaves_meeting"), ("trie.py", "relabel")):
            assert calls[name] == 0, (name, calls)
    assert not any(path == "trie.py" for path, _ in _setup_calls(lambda _seed: Dataspace([])))


# ---------------------------------------------------------------------------
# 12. Dataflow repair behavior


class _Cell:
    def __init__(self, graph, value):
        self.graph = graph
        self._value = value

    def get(self):
        self.graph.record_observation(self)
        return self._value

    def set(self, value):
        if value != self._value:
            self._value = value
            self.graph.record_damage(self)


def test_dataflow_repair_behavior(capsys):
    g = Graph()
    a = _Cell(g, 1)
    b = _Cell(g, None)
    c = _Cell(g, None)

    def run(subject):
        if subject == "b":
            b.set(a.get() * 2)
        else:
            c.set((b.get() or 0) + 1)

    g.with_subject("b", lambda: run("b"))
    g.with_subject("c", lambda: run("c"))
    g.damaged.clear()

    # transitive repair in a single call
    a.set(5)
    g.repair_damage(run)
    assert b._value == 10 and c._value == 11

    # dependency sets re-recorded after repair
    g2 = Graph()
    switch, x, y, out = _Cell(g2, True), _Cell(g2, 1), _Cell(g2, 2), _Cell(g2, None)

    def pick(_subject):
        out.set(x.get() if switch.get() else y.get())

    g2.with_subject("s", lambda: pick("s"))
    assert g2.edges_reverse["s"] == {switch, x}
    g2.damaged.clear()
    switch.set(False)
    g2.repair_damage(pick)
    assert g2.edges_reverse["s"] == {switch, y}
    x.set(99)
    g2.repair_damage(pick)
    assert out._value == 2

    # cycles warn exactly once per repair call and still terminate
    g3 = Graph()
    p, q = _Cell(g3, 0), _Cell(g3, 0)

    def cyc(subject):
        if subject == "p":
            p.set(q.get() + 1)
        else:
            q.set(p.get() + 1)

    g3.with_subject("p", lambda: cyc("p"))
    g3.with_subject("q", lambda: cyc("q"))
    g3.damaged.clear()
    p.set(10)
    g3.repair_damage(cyc)
    assert capsys.readouterr().err.count("Cyclic dependencies") == 1
    assert not g3.damaged
