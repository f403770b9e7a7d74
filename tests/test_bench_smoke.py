"""The traced benchmark still sees the hot entry points.

``bench/spans.py`` counts calls by wrapping entry points by name, so a
rename or a fusion that leaves one unwrapped would read as zero calls
rather than fail.  These runs pin the per-op counts of the two round
trip workloads: no projection (dispatch reads the capture itself with
``trie.captures``, so it enumerates no projection with ``key_set``, and
the client's subscription holds no wildcard, so a new capture the
client hears, which its knowledge cannot meet, is known new without a
known-before probe), one mux update per layer
crossed, two ``combine`` calls per op on both plus one in the first op,
and one dataflow repair per op, the box's (a flush with no damage
repairs nothing).  A nested layer's relay hears the visible change
without intersecting it with its interests.  The client comes to know
the box's own published trie, so a knowledge update subtracts that same
object and combines nothing, except in the first op, which subtracts the
catch-up trie that set-up rebuilt.

The untraced run is the one the benchmark's end-to-end metrics come
from; a zero-second run of it must still check every op and report each
metric ``BENCHMARK.json`` declares, in its unit.

The benchmark scripts run from a copy, next to a link to the sources,
so that their output stays out of the source tree.
"""
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_bench(tmp_path, workload: str, trace: int) -> dict:
    """One zero-second ``bench/run.py`` run on seed 1; its result object."""
    bench = tmp_path / "bench"
    bench.mkdir()
    for script in (ROOT / "bench").glob("*.py"):
        shutil.copy(script, bench)
    os.symlink(ROOT / "src", tmp_path / "src")
    run = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload, updates_per_op", [("box", 1), ("relay", 2)])
def test_traced_run_counts_hot_entry_points(tmp_path, workload, updates_per_op):
    result = run_bench(tmp_path, workload, trace=1)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    ops = metrics["ops"]
    assert result["failed"] == 0 and ops == result["attempted"] > 0
    assert metrics["trie.project.calls"] == 0
    assert metrics["trie.key_set.calls"] == 0
    assert metrics["trie.combine.calls"] == 2 * ops + 1
    assert metrics["mux.updates"] == updates_per_op * ops
    assert metrics["dataflow.repairs"] == ops


@pytest.mark.parametrize("workload", ["box", "relay"])
def test_untraced_run_reports_every_end_to_end_metric(tmp_path, workload):
    result = run_bench(tmp_path, workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]) and m["value"] > 0, name
