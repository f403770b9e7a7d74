"""The traced benchmark still sees the hot entry points.

``bench/spans.py`` counts calls by wrapping entry points by name, so a
rename or a fusion that leaves one unwrapped would read as zero calls
rather than fail.  These runs pin the per-op counts of the two round
trip workloads: one projection per op (the client's known-before probe;
dispatch reads the capture itself with ``trie.captures``, so it
enumerates no projection with ``key_set``), one mux update per layer
crossed, three
``combine`` calls per op on both (a nested layer's relay hears the
visible change without intersecting it with its interests), and one
dataflow repair per op, the box's (a flush with no damage repairs
nothing).

The benchmark scripts run from a copy, next to a link to the sources,
so that their output stays out of the source tree.
"""
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload, updates_per_op", [("box", 1), ("relay", 2)])
def test_traced_run_counts_hot_entry_points(tmp_path, workload, updates_per_op):
    bench = tmp_path / "bench"
    bench.mkdir()
    for script in (ROOT / "bench").glob("*.py"):
        shutil.copy(script, bench)
    os.symlink(ROOT / "src", tmp_path / "src")
    run = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    ops = metrics["ops"]
    assert result["failed"] == 0 and ops == result["attempted"] > 0
    assert metrics["trie.project.calls"] == ops
    assert metrics["trie.key_set.calls"] == 0
    assert metrics["trie.combine.calls"] == 3 * ops
    assert metrics["mux.updates"] == updates_per_op * ops
    assert metrics["dataflow.repairs"] == ops
