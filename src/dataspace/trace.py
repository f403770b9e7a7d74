"""Causal tracing of actor-system execution.

A tracer assigns every recorded step a sequence number and remembers
which earlier step caused it, giving a lossless causal log.  Records
are written one per line in the canonical value encoding, so a trace
file can be parsed back with the ordinary text reader.  A sequence
diagram renderer turns a parsed trace into fixed-width text lanes.
"""
from __future__ import annotations

import os
import sys
from typing import List, Optional, Sequence, TextIO

from .values import Frozen, Record, Symbol, format_value, parse_text

KINDS = (
    "action-produced",
    "action-interpreted",
    "event-delivered",
    "actor-spawned",
    "actor-crashed",
    "actor-exited",
    "facet-started",
    "facet-stopped",
)

_TRACE = Symbol("trace")
HEADER = "#trace-v1"

ENV_VAR = "DATASPACE_TRACE"


class TraceRecord(Frozen):
    __slots__ = (
        "seq",
        "cause",  # seq of the record this one reacts to; -1 for roots
        "path",  # actor path, outermost first
        "kind",
        "payload",  # canonical text of the value/patch involved
    )

    def __init__(self, seq: int, cause: int, path: tuple, kind: str, payload: str):
        for name, value in zip(self.__slots__, (seq, cause, path, kind, payload)):
            object.__setattr__(self, name, value)

    def _state(self) -> tuple:
        return (self.seq, self.cause, self.path, self.kind, self.payload)

    def to_value(self) -> Record:
        return Record(
            _TRACE,
            (self.seq, self.cause, tuple(self.path), Symbol(self.kind), self.payload),
        )

    @staticmethod
    def from_value(v) -> "TraceRecord":
        if not (isinstance(v, Record) and v.label is _TRACE and len(v.fields) == 5):
            raise ValueError(f"not a trace record: {v!r}")
        seq, cause, path, kind, payload = v.fields
        return TraceRecord(seq, cause, tuple(str(p) for p in path), kind.name, payload)


class Tracer:
    """Collects records, optionally mirroring them to a file."""

    def __init__(self, path: Optional[str] = None):
        self.records: List[TraceRecord] = []
        self._seq = 0
        self._file: Optional[TextIO] = None
        if path:
            try:
                self._file = open(path, "w", encoding="utf-8")
                self._file.write(HEADER + "\n")
            except OSError as e:
                print(f"trace disabled: {e}", file=sys.stderr)
                self._file = None

    def record(self, kind: str, path: Sequence[str], payload: str, cause: int = -1) -> int:
        assert kind in KINDS
        rec = TraceRecord(self._seq, cause, tuple(path), kind, payload)
        self._seq += 1
        self.records.append(rec)
        if self._file is not None:
            try:
                self._file.write(format_value(rec.to_value()) + "\n")
            except OSError as e:
                print(f"trace disabled: {e}", file=sys.stderr)
                self._file.close()
                self._file = None
        return rec.seq

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


def tracer_from_env() -> Optional[Tracer]:
    path = os.environ.get(ENV_VAR)
    return Tracer(path) if path else None


def load(path: str) -> List[TraceRecord]:
    records = []
    with open(path, encoding="utf-8") as f:
        first = f.readline().rstrip("\n")
        if first != HEADER:
            raise ValueError(f"not a trace file: {path}")
        for line in f:
            line = line.strip()
            if line:
                records.append(TraceRecord.from_value(parse_text(line)))
    return records


def render_sequence_diagram(records: Sequence[TraceRecord], width: int = 28) -> str:
    """Fixed-width text lanes, one per actor, with lifecycle and causality."""
    lanes: List[tuple] = []
    index = {}
    for rec in records:
        actor = "/".join(rec.path) or "<ground>"
        if actor not in index:
            index[actor] = len(lanes)
            lanes.append(actor)

    def cell(text: str) -> str:
        text = text[: width - 2]
        return f" {text:<{width - 2}} "

    terminated = set()
    lines = []
    header = "".join(f"{name[:width - 1]:^{width}}" for name in lanes)
    lines.append(header)
    lines.append("".join(f"{'|':^{width}}" for _ in lanes))
    for rec in records:
        actor = "/".join(rec.path) or "<ground>"
        col = index[actor]
        label = {
            "actor-spawned": "+ spawned",
            "actor-crashed": "x crashed " + rec.payload,
            "actor-exited": "x exited",
            "facet-started": "( facet",
            "facet-stopped": ") facet",
            "action-produced": "! " + rec.payload,
            "action-interpreted": "* " + rec.payload,
            "event-delivered": "> " + rec.payload,
        }[rec.kind]
        if rec.cause >= 0:
            label += f" <-{rec.cause}"
        label = f"[{rec.seq}] {label}"
        row = []
        for i, name in enumerate(lanes):
            if i == col:
                row.append(cell(label))
            elif name in terminated:
                row.append(" " * width)
            else:
                row.append(f"{'|':^{width}}")
        lines.append("".join(row))
        if rec.kind == "actor-exited":
            terminated.add(actor)
    return "\n".join(lines)
