"""Command-line harness: run examples, benchmark routing, render traces."""
from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

import click

from . import trace as trace_mod
from .mux import Mux
from .patch import assert_patch, from_sets, retract_patch
from .programs import PROGRAMS
from .values import Record, Symbol, WILDCARD, observe

S = Symbol


# ---------------------------------------------------------------------------
# Benchmarks (shape-based; absolute numbers are hardware-bound)


def _ping(a, b) -> Record:
    return Record(S("ping"), (a, b))


def _presence(i) -> Record:
    return Record(S("presence"), (i,))


def bench_unicast(k: int, repeat: int = 3, msgs: int = 2000) -> float:
    """Seconds per routed message with k point-to-point subscribers."""
    m = Mux()
    for i in range(k):
        m.add_stream(assert_patch(observe(_ping(WILDCARD, i))))
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for n in range(msgs):
            dst = n % k
            targets = m.route_message(_ping((n + 1) % k, dst))
            assert len(targets) == 1
        best = min(best, (time.perf_counter() - t0) / msgs)
    return best


def bench_broadcast(k: int, repeat: int = 3, msgs: int = 200) -> float:
    """Seconds per delivery when every routed message reaches all k peers."""
    m = Mux()
    for i in range(k):
        m.add_stream(assert_patch(observe(_ping(WILDCARD, WILDCARD))))
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for n in range(msgs):
            targets = m.route_message(_ping(n % k, (n + 1) % k))
            assert len(targets) == k
        best = min(best, (time.perf_counter() - t0) / (msgs * k))
    return best


def bench_scn_flat(k: int, repeat: int = 3, rounds: int = 20) -> float:
    """Seconds per notification when one publication fans out to k subscribers."""
    item = Record(S("item"), (42,))
    m = Mux()
    for _ in range(k):
        m.add_stream(assert_patch(observe(item)))
    pub, _, _ = m.add_stream()
    best = float("inf")
    for _ in range(repeat):
        notifications = 0
        t0 = time.perf_counter()
        for _ in range(rounds):
            _, events = m.update_stream(pub, assert_patch(item))
            notifications += len(events)
            _, events = m.update_stream(pub, retract_patch(item))
            notifications += len(events)
        best = min(best, (time.perf_counter() - t0) / notifications)
    return best


def bench_scn_presence(k: int, repeat: int = 3) -> float:
    """Seconds per notification while k peers join a shared presence group.

    Joining peer i is told about the i existing peers and each of them
    gets one patch about the newcomer.
    """
    best = float("inf")
    for _ in range(repeat):
        m = Mux()
        notifications = 0
        t0 = time.perf_counter()
        for i in range(k):
            join = from_sets(added=[_presence(i), observe(_presence(WILDCARD))])
            sid, _, events = m.add_stream(join)
            for _target, delta in events:
                notifications += 1
        best = min(best, (time.perf_counter() - t0) / notifications)
    return best


def bench_conn_scale(k: int, repeat: int = 3, cycles: int = 50) -> float:
    """Seconds per connect/disconnect cycle with k standing subscriptions."""
    m = Mux()
    for i in range(k):
        m.add_stream(assert_patch(observe(_ping(i, WILDCARD))))
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for n in range(cycles):
            sid, _, _ = m.add_stream(assert_patch(_ping(n % k, n)))
            m.remove_stream(sid)
        best = min(best, (time.perf_counter() - t0) / cycles)
    return best


BENCHMARKS: Dict[str, Callable[..., float]] = {
    "unicast": bench_unicast,
    "broadcast": bench_broadcast,
    "scn-flat": bench_scn_flat,
    "scn-presence": bench_scn_presence,
    "conn-scale": bench_conn_scale,
}


def fit_inverse(points: List[Tuple[int, float]]) -> Tuple[float, float]:
    """Least-squares fit of y = a + b/k over (k, y) points."""
    xs = [1.0 / k for k, _ in points]
    ys = [y for _, y in points]
    n = len(points)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    b = sxy / sxx if sxx else 0.0
    a = my - b * mx
    return a, b


def flatness(points: List[Tuple[int, float]]) -> float:
    ys = [y for _, y in points]
    return max(ys) / min(ys)


# ---------------------------------------------------------------------------
# Commands


@click.group()
def main() -> None:
    """Dataspace example runner, benchmark harness, and trace renderer."""


@main.command(name="run")
@click.argument("name")
@click.option("--trace", "trace_path", type=click.Path(), default=None,
              help="Write a causal trace to this file.")
@click.option("--virtual-ms", type=int, default=None,
              help="Virtual-clock budget for timed examples.")
def cmd_run(name: str, trace_path, virtual_ms) -> None:
    """Run a bundled example and print its transcript."""
    program = PROGRAMS.get(name)
    if program is None:
        raise click.ClickException(
            f"unknown example {name!r}; choose from: {', '.join(sorted(PROGRAMS))}"
        )
    tracer = trace_mod.Tracer(trace_path) if trace_path else trace_mod.tracer_from_env()
    kwargs = {"tracer": tracer}
    if virtual_ms is not None:
        kwargs["virtual_ms"] = virtual_ms
    program(click.echo, **kwargs)
    if tracer is not None:
        tracer.close()


@main.command(name="bench")
@click.argument("name")
@click.option("--k", "ks", type=int, multiple=True, required=True,
              help="Group size; repeat the flag for a sweep.")
@click.option("--repeat", type=int, default=3, show_default=True)
def cmd_bench(name: str, ks, repeat: int) -> None:
    """Measure a routing benchmark and report its cost shape."""
    bench = BENCHMARKS.get(name)
    if bench is None:
        raise click.ClickException(
            f"unknown benchmark {name!r}; choose from: {', '.join(sorted(BENCHMARKS))}"
        )
    points: List[Tuple[int, float]] = []
    click.echo(f"{'k':>8}  {'cost (us)':>12}")
    for k in ks:
        cost = bench(k, repeat=repeat)
        points.append((k, cost))
        click.echo(f"{k:>8}  {cost * 1e6:>12.3f}")
    if len(points) > 1:
        a, b = fit_inverse(points)
        click.echo(
            f"shape: max/min ratio {flatness(points):.2f}; "
            f"fit a+b/k with a={a * 1e6:.3f}us b={b * 1e6:.3f}us"
        )


@main.command(name="render")
@click.argument("path", type=click.Path(exists=True))
def cmd_render(path: str) -> None:
    """Render a trace file as a text sequence diagram."""
    try:
        records = trace_mod.load(path)
    except ValueError as e:
        raise click.ClickException(str(e))
    click.echo(trace_mod.render_sequence_diagram(records))


if __name__ == "__main__":
    main()
