import pytest

from dataspace.dataflow import Graph


class Cell:
    """Observable value cell wired to a graph, for tests only."""

    def __init__(self, graph, name, value):
        self.graph = graph
        self.name = name
        self._value = value

    def get(self):
        self.graph.record_observation(self)
        return self._value

    def set(self, value):
        if value != self._value:
            self._value = value
            self.graph.record_damage(self)

    def __repr__(self):
        return self.name


def test_observation_outside_subject_is_noop():
    g = Graph()
    c = Cell(g, "c", 1)
    c.get()
    assert not g.edges_forward and not g.edges_reverse


def test_repair_reruns_depending_subjects():
    g = Graph()
    a = Cell(g, "a", 1)
    total = Cell(g, "total", None)
    runs = []

    def compute(_subject):
        runs.append("total")
        total.set(a.get() + 1)

    g.with_subject("t", lambda: compute("t"))
    assert total._value == 2
    g.damaged.clear()  # settle the initial computation
    a.set(10)
    g.repair_damage(compute)
    assert total._value == 11
    assert runs == ["total", "total"]


def test_transitive_repair_in_one_call():
    g = Graph()
    a = Cell(g, "a", 1)
    b = Cell(g, "b", None)
    c = Cell(g, "c", None)

    def run(subject):
        if subject == "b":
            b.set(a.get() * 2)
        else:
            c.set((b.get() or 0) + 1)

    g.with_subject("b", lambda: run("b"))
    g.with_subject("c", lambda: run("c"))
    g.damaged.clear()
    a.set(5)
    g.repair_damage(run)
    assert b._value == 10 and c._value == 11


def test_dependencies_rerecorded_after_repair():
    g = Graph()
    switch = Cell(g, "switch", True)
    x = Cell(g, "x", 1)
    y = Cell(g, "y", 2)
    out = Cell(g, "out", None)

    def run(_subject):
        out.set(x.get() if switch.get() else y.get())

    g.with_subject("s", lambda: run("s"))
    assert g.edges_reverse["s"] == {switch, x}
    g.damaged.clear()
    switch.set(False)
    g.repair_damage(run)
    assert g.edges_reverse["s"] == {switch, y}
    assert x not in g.edges_forward  # a read not repeated leaves no edge
    # x no longer matters
    x.set(99)
    g.repair_damage(run)
    assert out._value == 2


def test_repeated_read_keeps_its_set_of_subjects():
    g = Graph()
    a = Cell(g, "a", 1)
    out = Cell(g, "out", None)
    run = lambda _subject: out.set(a.get() + 1)
    g.with_subject("s", lambda: run("s"))
    subjects = g.edges_forward[a]
    g.damaged.clear()
    a.set(2)
    g.repair_damage(run)
    assert out._value == 3 and g.edges_forward[a] is subjects == {"s"}


def test_raising_subject_keeps_the_reads_before_the_raise():
    g = Graph()
    switch = Cell(g, "switch", True)
    x = Cell(g, "x", 1)
    y = Cell(g, "y", 2)

    def run(_subject):
        if switch.get():
            x.get()
        else:
            y.get()
            raise RuntimeError("boom")

    g.with_subject("s", lambda: run("s"))
    g.damaged.clear()
    switch.set(False)
    with pytest.raises(RuntimeError):
        g.repair_damage(run)
    assert g.edges_reverse["s"] == {switch, y}
    assert x not in g.edges_forward and g.edges_forward[y] == {"s"}
    assert g.active_subject is None


def test_cycle_warned_once_per_call(capsys):
    g = Graph()
    a = Cell(g, "a", 0)
    b = Cell(g, "b", 0)

    def run(subject):
        if subject == "pa":
            a.set(b.get() + 1)
        else:
            b.set(a.get() + 1)

    g.with_subject("pa", lambda: run("pa"))
    g.with_subject("pb", lambda: run("pb"))
    g.damaged.clear()
    a.set(10)
    g.repair_damage(run)
    err = capsys.readouterr().err
    assert err.count("Cyclic dependencies") == 1
    assert not g.damaged  # terminated with no outstanding damage


def test_forget_subject_clears_both_directions():
    g = Graph()
    a = Cell(g, "a", 1)
    g.with_subject("s", a.get)
    g.forget_subject("s")
    assert not g.edges_forward and not g.edges_reverse


def test_empty_damage_repair_noop():
    g = Graph()
    calls = []
    g.repair_damage(lambda s: calls.append(s))
    assert calls == []
