"""The benchmark's tracer rebinds package names by hand (``perfbench/child.py``
``install``): ``SemigroupTable.full_table``, ``rank.closure``,
``rank.essential_elements`` and others.  A refactor that renames or moves one
of them leaves the benchmark without its spans, so each kind of traced
invocation is run here, tiny, and its spans checked against the names that
``perfbench/run.py``'s ``layer_metrics`` reads."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# one tiny invocation per kind the benchmark traces
INVOCATIONS = [
    ["cli", "green", "--relation", "Lstar", "--mode", "definitional", "--n", "3"],
    ["cli", "green", "--relation", "D", "--n", "3"],
    ["cli", "rank", "--target", "quotient", "--n", "4", "--p", "2"],
    ["cli", "invariants", "--n", "4"],
    ["generate", "4", "3"],
]

# every span name layer_metrics reads, besides green.partition_<relation>
LAYER_SPANS = [
    "green.table", "green.starred_definitional", "green.starred_characterized",
    "rank.essential", "rank.oracle", "rank.closure", "rank.theorem_hq",
    "families.census", "families.enumerate",
]


def test_traced_invocations_record_every_layer_span():
    env = {**os.environ, "PYTHONPATH": "src"}
    names = set()
    for i, invocation in enumerate(INVOCATIONS):
        done = subprocess.run(
            [sys.executable, "perfbench/child.py", "trace", f"t{i}", *invocation],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        doc = json.loads(done.stdout)
        assert doc["exit"] == 0, (invocation, doc["stdout"])
        names |= {span[0] for span in doc["spans"]}
    assert set(LAYER_SPANS) <= names, sorted(names)
    assert {"green.partition_D", "green.partition_L", "green.partition_R"} <= names
