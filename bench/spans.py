"""Outside-in layer tracing: spans around each layer's public entry points.

An ``Installation`` replaces the public functions and methods named in
``TARGETS`` with timing wrappers, in every ``dataspace`` module
namespace that binds them (``from … import`` copies included), and
``uninstall`` puts the originals back.  While a ``Recorder`` is on,
each wrapped call appends one span ``(name, start, end, parent)``;
spans stay in memory until the run writes them out.  A span's self
time is its duration minus the time its child spans cover.

Trie, patch and values functions fold recursion: a call made while the
same function is already open adds no span, so ``relabel``'s recursion
through its module-global name lands in its outermost span.  That makes
span counts equal cProfile's primitive-call counts for those functions
and its total-call counts for the methods; ``Profiler`` gives the
cProfile side of that check.
"""
from __future__ import annotations

import cProfile
import gzip
import pstats
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from dataspace import dataflow, engine, facet, mux, patch, trie, values

Span = Tuple[str, float, float, int]


class Target:
    """One wrapped entry point: where it lives and which layer it belongs to."""

    def __init__(self, layer: str, name: str, owner, attr: str, fold: bool,
                 only_in=None, enter=None, leave=None, after=None):
        self.layer = layer
        self.name = name
        self.owner = owner  # module or class holding the original
        self.original: Callable = vars(owner)[attr]
        self.fold = fold
        self.only_in = only_in  # wrap this namespace only, not every importer
        self.enter = enter
        self.leave = leave
        self.after = after


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.on = False
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = []
        self.active: set = set()
        self.dataspaces: list = []
        self.events_out = 0
        self.nested_handles = 0
        self.pending_max = 0
        self.activations = 0

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.active.clear()
        self.dataspaces.clear()
        self.events_out = self.nested_handles = self.pending_max = self.activations = 0

    def sample_pending(self) -> None:
        if self.dataspaces:
            self.pending_max = max(self.pending_max, len(self.dataspaces[-1].pending))


# -- counting hooks -----------------------------------------------------------


def _enter_run(rec: Recorder, args) -> None:
    rec.dataspaces.append(args[0])
    rec.sample_pending()


def _leave_run(rec: Recorder, _args) -> None:
    rec.dataspaces.pop()


def _enter_ds_handle(rec: Recorder, _args) -> None:
    if rec.dataspaces:  # delivered by an enclosing dataspace's engine
        rec.nested_handles += 1


def _enter_turn(rec: Recorder, _args) -> None:
    rec.sample_pending()


def _count_update(rec: Recorder, result) -> None:
    rec.events_out += len(result[1])


def _count_route(rec: Recorder, result) -> None:
    rec.events_out += len(result)


TARGETS: List[Target] = [
    Target("engine", "engine.handle", engine.Dataspace, "handle", False, enter=_enter_ds_handle),
    Target("engine", "engine.run", engine.Dataspace, "run", False, enter=_enter_run, leave=_leave_run),
    Target("facet", "facet.handle", facet.ActorRuntime, "handle", False, enter=_enter_turn),
    Target("facet", "facet.startup", facet.ActorRuntime, "startup", False),
    Target("dataflow", "dataflow.repair_damage", dataflow.Graph, "repair_damage", False),
    Target("mux", "mux.update_stream", mux.Mux, "update_stream", False, after=_count_update),
    Target("mux", "mux.route_message", mux.Mux, "route_message", False, after=_count_route),
    Target("mux", "mux.add_stream", mux.Mux, "add_stream", False),
    Target("mux", "mux.remove_stream", mux.Mux, "remove_stream", False),
    # Engine-side rendering of actions and events for the (absent) tracer.
    Target("trace", "trace.render", patch, "render", True, only_in=engine),
    Target("trace", "trace.format_value", values, "format_value", True, only_in=engine),
]
for _name in ("apply_patch", "limit", "aggregate_visibility", "observation_bodies",
              "lift_inbound", "drop_outbound", "lift_message", "drop_message"):
    TARGETS.append(Target("patch", "patch." + _name, patch, _name, True))
for _name in ("combine", "relabel", "project", "compile_pattern", "key_set"):
    TARGETS.append(Target("trie", "trie." + _name, trie, _name, True))
for _name in ("format_value", "serialize"):
    TARGETS.append(Target("values", "values." + _name, values, _name, True))

LAYER: Dict[str, str] = {t.name: t.layer for t in TARGETS}
TRANSLATIONS = ("patch.lift_inbound", "patch.drop_outbound", "patch.lift_message", "patch.drop_message")


def _wrap(rec: Recorder, t: Target, fn: Callable) -> Callable:
    spans, stack, active = rec.spans, rec.stack, rec.active
    name, fold, enter, leave, after = t.name, t.fold, t.enter, t.leave, t.after
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        if not rec.on or (fold and fn in active):
            return fn(*args, **kwargs)
        idx = len(spans)
        spans.append(None)
        stack.append(idx)
        if fold:
            active.add(fn)
        if enter is not None:
            enter(rec, args)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = clock()
            stack.pop()
            if fold:
                active.discard(fn)
            if leave is not None:
                leave(rec, args)
        spans[idx] = (name, t0, t1, stack[-1] if stack else -1)
        if after is not None:
            after(rec, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _counting_subscription(rec: Recorder, method: Callable) -> Callable:
    """Wrap a Facet.on_* method so the handlers it registers count activations."""

    def register(self, pattern, handler, *rest, **kwargs):
        def counted(*caps):
            if rec.on:
                rec.activations += 1
            return handler(*caps)

        return method(self, pattern, counted, *rest, **kwargs)

    register.__wrapped__ = method
    return register


def _dataspace_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if (n == "dataspace" or n.startswith("dataspace.")) and m is not None]


class Installation:
    """The wrappers currently in place, and how to take them out."""

    def __init__(self, rec: Recorder):
        self.restore: List[Tuple[object, str, Callable]] = []
        # Namespace-restricted targets go first; the wide pass below then
        # no longer finds the original under their names.
        for t in sorted(TARGETS, key=lambda t: t.only_in is None):
            if t.only_in is not None:
                owners = [t.only_in]
            elif isinstance(t.owner, type):
                owners = [t.owner]
            else:
                owners = _dataspace_modules()
            wrapper = _wrap(rec, t, t.original)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is t.original:
                        self._replace(owner, attr, wrapper)
        for attr in ("on_asserted", "on_retracted", "on_message"):
            method = vars(facet.Facet)[attr]
            self._replace(facet.Facet, attr, _counting_subscription(rec, method))

    def _replace(self, owner, attr: str, wrapper: Callable) -> None:
        self.restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.restore):
            setattr(owner, attr, original)
        self.restore.clear()


# -- summaries ----------------------------------------------------------------


class Summary:
    """Per-name call counts and self times, plus layer-under-layer self time."""

    def __init__(self, spans: List[Span]):
        child = [0.0] * len(spans)
        for _, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        # (owning layer, layer) -> self time of ``layer`` spans whose
        # nearest ancestor of another layer belongs to ``owning layer``.
        self.under: Dict[Tuple[str, str], float] = defaultdict(float)
        for i, (name, t0, t1, parent) in enumerate(spans):
            s = (t1 - t0) - child[i]
            layer = LAYER[name]
            self.calls[name] += 1
            self.self_s[name] += s
            p = parent
            while p >= 0 and LAYER[spans[p][0]] == layer:
                p = spans[p][3]
            self.under[(LAYER[spans[p][0]] if p >= 0 else "none", layer)] += s

    def layer_self(self, layer: str) -> float:
        return sum(s for name, s in self.self_s.items() if LAYER[name] == layer)

    def count(self, *names: str) -> int:
        return sum(self.calls[n] for n in names)


def counts_by_function(calls: Counter) -> Dict[Callable, int]:
    """Span counts keyed by the wrapped original function."""
    out: Dict[Callable, int] = defaultdict(int)
    for t in TARGETS:
        out[t.original] += calls[t.name]
    return dict(out)


def _code_key(fn: Callable) -> tuple:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


class Profiler:
    """cProfile switched on only around the ops, for the count cross-check."""

    def __init__(self):
        self.prof = cProfile.Profile()

    def __enter__(self):
        self.prof.enable()

    def __exit__(self, *exc):
        self.prof.disable()

    def counts(self) -> Dict[Callable, int]:
        """cProfile's count per wrapped function: primitive calls where
        spans fold recursion, all calls where they do not."""
        stats = pstats.Stats(self.prof).stats
        out: Dict[Callable, int] = {}
        fold = {t.original: t.fold for t in TARGETS}
        for fn, folded in fold.items():
            cc, nc = stats.get(_code_key(fn), (0, 0))[:2]
            out[fn] = cc if folded else nc
        return out


def routing_nodes(tries: list) -> int:
    """Distinct nodes across routing tries (shared subtries counted once)."""
    seen: set = set()
    todo = list(tries)
    while todo:
        t = todo.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if isinstance(t, trie.Branch):
            todo.append(t.default)
            todo.extend(t.edges.values())
    return len(seen)


def write_spans(path: str, spans: List[Span]) -> None:
    """One span per line: index, name, start and end in ns, parent index."""
    with gzip.open(path, "wt", compresslevel=1) as out:
        out.write("index\tname\tstart_ns\tend_ns\tparent\n")
        for i, (name, t0, t1, parent) in enumerate(spans):
            out.write(f"{i}\t{name}\t{int(t0 * 1e9)}\t{int(t1 * 1e9)}\t{parent}\n")
