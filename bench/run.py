"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload box --seed 1 --seconds 10 --trace 0

``--trace 0`` measures end to end with tracing off: the workload is
warmed up, then driven in a closed loop, one op in flight, for
``--seconds``, with a set-up sample between blocks of ops.  Every op and
every set-up sample is timed against a fixed reference loop run beside
it, so that the time metrics are in the units of a machine of fixed
speed (see ``reference``); peak RSS comes from a separate fresh process
that runs a fixed number of ops.  ``--trace 1`` runs a
fixed number of ops several times instead: traced and untraced in turns
(for the overhead ratio), under cProfile (its call counts must equal the
span counts), and traced twice on the seed and twice on a held-out seed
(counts must repeat exactly).  It prints
the per-layer metrics of the first traced pass and writes that pass's
spans under ``bench/out/``.

The last line of standard output is the result object; the exit code is
0 unless the run itself broke (a self-check failed or an exception
escaped the ground dataspace).
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")

#: Offset from the run's seed to its held-out seed.
HELD_OUT = 1_000_003
#: Fewest set-up samples one untraced run takes.
MIN_SETUPS = 5
#: Time of one ``reference()`` call on the machine the time metrics are
#: expressed for: the quiet speed of the 2-vCPU VM the benchmark was
#: built on (Python 3.11).
REFERENCE_S = 80e-6
#: Reference calls timed after each set-up sample.
SETUP_REFERENCES = 10


class SelfCheckFailed(Exception):
    pass


def percentile(sorted_values: list, q: int) -> float:
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[q - 1]


class _Node:
    __slots__ = ("key", "value", "kids")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.kids = {}


def reference() -> int:
    """A fixed piece of pure-Python work, about as long as a short op, of
    the kinds the program does: small objects, dict lookups, tuple
    hashing, a set and a sort.  It is the benchmark's own code, so no
    change to the program changes its cost; a shared machine's changes
    of speed do."""
    root = _Node(0, 0)
    acc = 0
    for i in range(60):
        node = root
        for k in (i % 7, i % 5, i % 3):
            kid = node.kids.get(k)
            if kid is None:
                kid = node.kids[k] = _Node(k, (i, k))
            node = kid
        acc += len(node.kids) + hash(node.value) % 3
    return acc + len(sorted({(i % 11, str(i % 13)) for i in range(80)}))


def time_reference() -> float:
    """Wall time of one ``reference()`` call, with the collector off so
    that a collection of the program's garbage is not charged to it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def drive(w, ops: int, around=None, deadline: float = math.inf, references=None):
    """Inject ``ops`` requests into ``w``, one at a time, stopping early at
    ``deadline``, and check each outcome.  Returns (latencies, failed).
    ``around`` is an optional context manager entered for each op's
    ``handle`` call alone.  With a ``references`` list, the reference
    loop is timed straight after each op and its time appended there."""
    latencies = []
    failed = 0
    clock = time.perf_counter
    while len(latencies) < ops and clock() < deadline:
        msg = w.request()
        crashes = w.crashes()
        if around is None:
            t0 = clock()
            w.ds.handle(msg)
            t1 = clock()
        else:
            with around:
                t0 = clock()
                w.ds.handle(msg)
                t1 = clock()
        latencies.append(t1 - t0)
        if references is not None:
            references.append(time_reference())
        if not w.check() or w.crashes() != crashes:
            failed += 1
    return latencies, failed


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(cls, seed: int, seconds: float) -> dict:
    """Blocks of ``cls.block_ops`` ops until ``seconds`` have passed, with
    one set-up sample before each block.

    Each op's wall time is divided by that of the reference loop timed
    straight after it and multiplied by ``REFERENCE_S``: the shared
    machine runs whole stretches of a run up to twice as slow, and the
    reference slows down with it, so the ratio reads the same from run
    to run.  The time metrics are taken over every op of the run.  A
    set-up sample times ``cls.setup_batch`` fresh copies of the workload,
    divides by their number and is scaled by the median of
    ``SETUP_REFERENCES`` reference calls after it; ``setup_s`` is the
    median sample."""
    rss = peak_rss(cls, seed)
    w = cls(seed)
    drive(w, ops=cls.warmup_ops)
    setups = []
    latencies: list = []
    references: list = []
    failed = 0
    deadline = time.perf_counter() + seconds
    while not latencies or time.perf_counter() < deadline or len(setups) < MIN_SETUPS:
        setups.append(setup_sample(cls, seed))
        # The first block always completes.
        block, block_failed = drive(w, ops=cls.block_ops, references=references,
                                    deadline=deadline if latencies else math.inf)
        latencies.extend(block)
        failed += block_failed
    scaled = sorted(t * REFERENCE_S / r for t, r in zip(latencies, references))
    latencies.sort()
    print(
        f"{cls.name}: {len(latencies)} ops, {len(setups)} set-up samples, median reference "
        f"{statistics.median(references) * 1e6:.1f} us; unscaled: {len(latencies) / sum(latencies):.1f} "
        f"ops/s, p50 {statistics.median(latencies) * 1e6:.1f} us, p95 {percentile(latencies, 95) * 1e6:.1f} us",
        file=sys.stderr,
    )
    return {
        "correct": True,
        "attempted": len(scaled),
        "failed": failed,
        "metrics": {
            "ops_per_s": metric(len(scaled) / sum(scaled), "ops/s"),
            "latency_p50_us": metric(statistics.median(scaled) * 1e6, "us"),
            "latency_p95_us": metric(percentile(scaled, 95) * 1e6, "us"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(rss, "MB"),
        },
    }


def setup_sample(cls, seed: int) -> float:
    """Seconds to set up one fresh copy of ``cls``, scaled to
    ``REFERENCE_S``."""
    t0 = time.perf_counter()
    fresh = [cls(seed) for _ in range(cls.setup_batch)]
    elapsed = (time.perf_counter() - t0) / cls.setup_batch
    del fresh
    gc.collect()  # the discarded copies' garbage is not the next block's cost
    reference_s = statistics.median(time_reference() for _ in range(SETUP_REFERENCES))
    return elapsed * REFERENCE_S / reference_s


def peak_rss(cls, seed: int) -> float:
    """Peak RSS in MB of a fresh process that sets ``cls`` up and runs a
    fixed number of ops, so that the figure does not grow with the
    measured run's length or with this process's bookkeeping."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", cls.name,
           "--seed", str(seed), "--seconds", "0", "--rss-probe"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise SelfCheckFailed(f"peak RSS probe exited {out.returncode}: {out.stderr.strip()}")
    return float(out.stdout.splitlines()[-1])


def rss_probe(cls, seed: int) -> float:
    w = cls(seed)
    drive(w, ops=cls.warmup_ops + cls.block_ops)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Recording:
    """Switches a span recorder on for the ``handle`` call of one op."""

    def __init__(self, rec):
        self.rec = rec

    def __enter__(self):
        self.rec.on = True

    def __exit__(self, *exc):
        self.rec.on = False


def overhead_ratio(cls, seed: int) -> float:
    """Median over ops of traced ÷ untraced op wall time.

    Two copies of the workload built from one seed take the same ops in
    turns of a fortieth of the pass, one with the spans installed and
    recording, the other without them, so that a shared machine's
    changes of speed fall on both sides alike."""
    import spans

    rec = spans.Recorder()
    installed = spans.Installation(rec)
    try:
        with_spans = cls(seed)
    finally:
        installed.uninstall()
    without = cls(seed)
    turn = max(1, cls.trace_ops // 40)
    plain: list = []
    timed: list = []
    while len(plain) < cls.trace_ops:
        plain += drive(without, ops=turn)[0]
        installed = spans.Installation(rec)
        try:
            timed += drive(with_spans, ops=turn, around=Recording(rec))[0]
        finally:
            installed.uninstall()
        rec.reset()
    return statistics.median(t / u for t, u in zip(timed, plain))


def traced(cls, seed: int) -> dict:
    import spans

    n = cls.trace_ops
    overhead = overhead_ratio(cls, seed)
    profiler = spans.Profiler()
    drive(cls(seed), ops=n, around=profiler)

    rec = spans.Recorder()
    installed = spans.Installation(rec)

    def traced_pass(s: int):
        rec.reset()
        w = cls(s)
        crashes = w.crashes()
        failed = drive(w, ops=n, around=Recording(rec))[1]
        summary = spans.Summary(rec.spans)
        extra = {
            "failed": failed,
            "crashes": w.crashes() - crashes,
            "state_nodes": spans.routing_nodes(w.routing_tries()),
            "events_out": rec.events_out,
            "nested_handles": rec.nested_handles,
            "pending_max": rec.pending_max,
            "activations": rec.activations,
        }
        return summary, extra

    try:
        first, info = traced_pass(seed)
        recorded = list(rec.spans)
        for s in (seed, seed + HELD_OUT):
            a, a_info = (first, info) if s == seed else traced_pass(s)
            b, b_info = traced_pass(s)
            if repeatable(a, a_info) != repeatable(b, b_info):
                raise SelfCheckFailed(f"traced counts differ between two runs of seed {s}")
    finally:
        installed.uninstall()
    profiled = profiler.counts()
    for fn, count in spans.counts_by_function(first.calls).items():
        if profiled[fn] != count:
            raise SelfCheckFailed(
                f"{fn.__module__}.{fn.__qualname__}: {count} spans, cProfile counts {profiled[fn]}"
            )

    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    spans.write_spans(os.path.join(BENCH, "out", f"spans-{cls.name}-{seed}.tsv.gz"), recorded)
    return {
        "correct": True,
        "attempted": n,
        "failed": info["failed"],
        "metrics": layer_metrics(spans, first, info, n, overhead),
    }


def repeatable(summary, info) -> tuple:
    """The counts two traced runs of one seed must agree on."""
    return (
        tuple(sorted(summary.calls.items())),
        info["events_out"],
        info["nested_handles"],
        info["activations"],
        info["state_nodes"],
        info["failed"],
    )


def layer_metrics(spans, s, info, ops: int, overhead: float) -> dict:
    count = "count"
    turns = s.count("facet.handle", "facet.startup")
    m = {
        "ops": metric(ops, count),
        "error_rate": metric(info["failed"] / ops, "failed/attempted"),
        "engine.events": metric(s.count("facet.handle") + info["nested_handles"], count),
        "engine.self_s": metric(s.layer_self("engine"), "s"),
        "engine.pending_max": metric(info["pending_max"], count),
        "engine.crashes": metric(info["crashes"], count),
        "facet.turns": metric(turns, count),
        "facet.self_s": metric(s.layer_self("facet"), "s"),
        "facet.trie_s": metric(s.under[("facet", "trie")], "s"),
        "facet.patch_s": metric(s.under[("facet", "patch")], "s"),
        "facet.activations_per_turn": metric(info["activations"] / turns if turns else 0.0, "ratio"),
        "dataflow.repairs": metric(s.count("dataflow.repair_damage"), count),
        "dataflow.self_s": metric(s.layer_self("dataflow"), "s"),
        "mux.updates": metric(s.count("mux.update_stream"), count),
        "mux.routes": metric(s.count("mux.route_message"), count),
        "mux.connects": metric(s.count("mux.add_stream"), count),
        "mux.disconnects": metric(s.count("mux.remove_stream"), count),
        "mux.events_out": metric(info["events_out"], count),
        "mux.self_s": metric(s.layer_self("mux"), "s"),
        "mux.trie_s": metric(s.under[("mux", "trie")], "s"),
        "mux.patch_s": metric(s.under[("mux", "patch")], "s"),
        "mux.state_nodes": metric(info["state_nodes"], count),
        "patch.applies": metric(s.count("patch.apply_patch"), count),
        "patch.translations": metric(s.count(*spans.TRANSLATIONS), count),
        "patch.self_s": metric(s.layer_self("patch"), "s"),
        "patch.trie_s": metric(s.under[("patch", "trie")], "s"),
    }
    for name, span in (("combine", "combine"), ("relabel", "relabel"), ("project", "project"),
                       ("compile", "compile_pattern"), ("key_set", "key_set")):
        m[f"trie.{name}.calls"] = metric(s.count("trie." + span), count)
        m[f"trie.{name}.self_s"] = metric(s.self_s["trie." + span], "s")
    m.update({
        "values.format.calls": metric(s.count("values.format_value", "trace.format_value"), count),
        "values.self_s": metric(s.layer_self("values"), "s"),
        "trace.renders_off": metric(s.count("trace.render", "trace.format_value"), count),
        "trace.self_s": metric(s.layer_self("trace"), "s"),
        "trace.overhead_ratio": metric(overhead, "ratio"),
    })
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "dataspace")):
        print(f"no dataspace sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        if args.rss_probe:
            result = rss_probe(cls, args.seed)
        elif args.trace:
            result = traced(cls, args.seed)
        else:
            result = untraced(cls, args.seed, args.seconds)
    except SelfCheckFailed as e:
        print(f"self-check failed: {e}", file=sys.stderr)
        return 3
    except Exception:  # an exception escaped the ground dataspace: no valid result
        traceback.print_exc()
        return 4
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
