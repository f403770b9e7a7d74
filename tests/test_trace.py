import pytest

from dataspace import engine, trace
from dataspace.engine import ground_run
from dataspace.facet import spawn_actor
from dataspace.programs import PROGRAMS
from dataspace.trace import Tracer, TraceRecord, load, render_sequence_diagram
from dataspace.values import Symbol


def _sample_run(path=None):
    tracer = Tracer(path)

    def speaker(f):
        f.assert_(Symbol("hello"))

    def listener(f):
        f.stop_when_asserted(Symbol("hello"))

    ground_run(
        [spawn_actor("speaker", speaker), spawn_actor("listener", listener)],
        tracer=tracer,
    )
    tracer.close()
    return tracer


def test_file_roundtrip(tmp_path):
    path = str(tmp_path / "t.trace")
    tracer = _sample_run(path)
    assert tracer.records
    assert load(path) == tracer.records


def _nested(depth):
    v = 1
    for _ in range(depth):
        v = (v,)
    return v


def test_deep_values_trace_in_full(tmp_path):
    # Every renderer keeps its own stack, so a 1500-deep assertion (which
    # the mux refuses, crashing its author) and a 5000-deep message body
    # are written out in full, and the file reads back.
    path = str(tmp_path / "deep.trace")
    tracer = Tracer(path)
    ground_run(
        [
            spawn_actor("holder", lambda f: f.assert_(_nested(1500))),
            spawn_actor("sender", lambda f: f.on_start(lambda: f.send(_nested(5000)))),
        ],
        tracer=tracer,
    )
    tracer.close()
    payloads = [r.payload for r in tracer.records]
    assert "<too deep to render>" not in payloads
    assert "+{" + "(" * 1500 + "1" + ")" * 1500 + "}/-{}" in payloads
    assert "<" + "(" * 5000 + "1" + ")" * 5000 + ">" in payloads
    assert load(path) == tracer.records


def test_header_required(tmp_path):
    p = tmp_path / "bogus"
    p.write_text("not a trace\n")
    try:
        load(str(p))
        assert False, "expected ValueError"
    except ValueError:
        pass


def test_sequence_numbers_and_causes():
    tracer = _sample_run()
    seqs = [r.seq for r in tracer.records]
    assert seqs == list(range(len(seqs)))
    for r in tracer.records:
        # every cause refers to an earlier record (or is a root)
        assert -1 <= r.cause < r.seq


def test_lifecycle_kinds_present():
    tracer = _sample_run()
    kinds = {r.kind for r in tracer.records}
    assert "actor-spawned" in kinds
    assert "actor-exited" in kinds
    assert "event-delivered" in kinds
    assert "action-interpreted" in kinds


def test_unwritable_path_degrades_to_warning(capsys):
    tracer = Tracer("/nonexistent-dir/t.trace")
    tracer.record("actor-spawned", ("x",), "x")
    assert "trace disabled" in capsys.readouterr().err
    assert len(tracer.records) == 1  # in-memory capture still works


def test_record_value_roundtrip():
    r = TraceRecord(3, 1, ("outer", "inner"), "event-delivered", "+{a}/-{}")
    assert TraceRecord.from_value(r.to_value()) == r


def test_render_lanes_fixed_width():
    records = [
        TraceRecord(0, -1, ("a",), "actor-spawned", "a"),
        TraceRecord(1, -1, ("b",), "actor-spawned", "b"),
        TraceRecord(2, 0, ("a",), "event-delivered", "+{hello}/-{}"),
        TraceRecord(3, 2, ("a",), "actor-exited", "a"),
        TraceRecord(4, 1, ("b",), "event-delivered", "bye"),
    ]
    out = render_sequence_diagram(records, width=28)
    lines = out.splitlines()
    assert all(len(line) == 56 for line in lines)
    assert "[2] > +{hello}/-{} <-0" in out
    # lane a goes quiet after its exit
    assert lines[-1].startswith(" " * 28)


def test_env_var_controls_tracing(tmp_path, monkeypatch):
    monkeypatch.delenv(trace.ENV_VAR, raising=False)
    assert trace.tracer_from_env() is None
    path = str(tmp_path / "env.trace")
    monkeypatch.setenv(trace.ENV_VAR, path)
    tracer = trace.tracer_from_env()
    assert tracer is not None
    tracer.record("actor-spawned", ("x",), "x")
    tracer.close()
    assert load(path)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_untraced_run_renders_nothing(name, monkeypatch):
    def refuse(_payload):
        raise AssertionError("rendered a trace payload with tracing off")

    monkeypatch.setattr(engine, "_describe", refuse)
    PROGRAMS[name](lambda _line: None, tracer=None)
