"""Time-to-verdict benchmark for the schroeder toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check     # every workload's shape at n <= 4
    python3 perfbench/run.py --frontier       # largest n per command in 60 s / 1 GB
    python3 perfbench/run.py --digests        # data digests of the current code

One generator process (this one) runs one child at a time.  A child is the
CLI (``python -m schroeder.cli``) or, for the ``generate`` workload, the
public library API (``child.py generate``), always ``sys.executable`` against
this checkout's ``src`` with ``SCHROEDER_THREADS`` unset and
``PYTHONHASHSEED`` fixed.  Every verdict is checked against the values in
``workloads.py``; a wrong exit code, a wrong verdict, a digest mismatch or a
timeout fails the invocation.

``--trace 0`` repeats passes over the workload's invocations, in an order
shuffled by the seed, for ``--seconds`` seconds and prints the end-to-end
metrics (medians per invocation; the times scaled to a reference speed, see
``untraced_run``).  ``--trace 1`` runs every invocation of the
workload untraced and traced in interleaved rounds, which give the tracing
overhead and the workload's own time account per layer (spans around the
public calls into each layer, recorded by ``child.py``); then one traced pass
of every other workload and the seeded pmap probe.  It prints the per-layer
metrics pooled over the first traced pass of every workload, and writes the
spans once at the end to ``.perfbench/trace-<workload>-seed<seed>.json``.
The last stdout line is always one JSON object ``{correct, attempted,
failed, metrics}``; the report for people goes to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import SMALL_SCHROEDER, Invocation, workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = str(HERE / "child.py")
OUT_DIR = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 60
SETUP_SAMPLES = 10  # children before the passes, and again after them
TRACE_ROUNDS = 3
TRACE_ROUNDS_S = 60  # no round starts later; a rank round takes about 30 s on a 2-vCPU VM
# The scale of verdict_s and cpu_s: the median time of reference_s() on a
# 2-vCPU x86_64 VM under Python 3.11.7, where the times read as seconds.
REF_S = 0.22
REF_FOUND = 46576  # products that child.py reference finds in its index
REF_SHARE = 0.2  # reference time per unit of invocation time
FRONTIER_AS_BYTES = 1 << 30

END_TO_END_UNITS = {
    "verdict_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "pass_ratio": "ratio",
}
RELATIONS = "LRHDJ"


def layer_metric_units(suite: dict[str, list[Invocation]]) -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    return {
        "families.enumerate_s": "s",
        "families.elements_per_s": "1/s",
        "families.census_s": "s",
        "pmap.compose_per_s": "1/s",
        "pmap.parse_per_s": "1/s",
        "pmap.encode_per_s": "1/s",
        "green.table_s": "s",
        "green.table_products": "count",
        "green.products_per_s": "1/s",
        "green.table_peak_rss_mb": "MB",
        **{f"green.partition_{r}_s": "s" for r in RELATIONS},
        "green.starred_definitional_s": "s",
        "green.starred_characterized_s": "s",
        "rank.essential_s": "s",
        "rank.oracle_s": "s",
        "rank.path_essentials": "count",
        "rank.path_hitting_set": "count",
        "rank.closure_s": "s",
        "rank.closure_products": "count",
        "rank.closure_products_per_s": "1/s",
        "rank.theorem_hq_s": "s",
        "cli.import_s": "s",
        **{f"cli.{inv.label}_s": "s" for invs in suite.values() for inv in invs},
        "trace.overhead_s": "s",
    }


# -- children ---------------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("SCHROEDER_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclasses.dataclass
class ChildRun:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    timed_out: bool


class Spawner:
    """Runs one child at a time through ``spawn.py`` and collects its wall
    time, CPU time and peak RSS (``os.wait4``) and its output."""

    def __init__(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self._out = OUT_DIR / f"child-{os.getpid()}.stdout"
        self._err = OUT_DIR / f"child-{os.getpid()}.stderr"
        # its own process group, which the children it forks share
        self._helper = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawn.py")], cwd=ROOT, env=_child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, start_new_session=True,
        )

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:  # interrupted: do not wait for a running child
            os.killpg(self._helper.pid, signal.SIGKILL)
        self._helper.stdin.close()
        self._helper.wait()
        self._helper.stdout.close()
        self._out.unlink(missing_ok=True)
        self._err.unlink(missing_ok=True)

    def run(self, cmd: list[str], timeout: float = CHILD_TIMEOUT_S, limit_as: int | None = None) -> ChildRun:
        request = {"argv": cmd, "stdout": str(self._out), "stderr": str(self._err),
                   "timeout": timeout, "limit_as": limit_as}
        self._helper.stdin.write(json.dumps(request) + "\n")
        self._helper.stdin.flush()
        reply = self._helper.stdout.readline()
        if not reply:
            raise SystemExit("perfbench: the spawn helper exited")
        return ChildRun(**json.loads(reply), stdout=self._out.read_text(), stderr=self._err.read_text())


def child_command(inv: Invocation, traced: bool) -> list[str]:
    if traced:
        return [sys.executable, CHILD, "trace", inv.label, inv.kind, *inv.argv]
    if inv.kind == "cli":
        return [sys.executable, "-m", "schroeder.cli", *inv.argv]
    return [sys.executable, CHILD, "generate", *inv.argv]


@dataclasses.dataclass
class Outcome:
    inv: Invocation
    run: ChildRun
    error: str | None
    payload: dict | None  # the traced child's report
    check_s: float  # time this process spent reading and checking the output

    @property
    def wall(self) -> float:
        return self.run.wall + self.check_s


def execute(sp: Spawner, inv: Invocation, traced: bool = False) -> Outcome:
    run = sp.run(child_command(inv, traced))
    t0 = time.perf_counter()
    payload = None
    if run.timed_out:
        error = f"timed out after {CHILD_TIMEOUT_S} s"
    elif run.code != 0:
        error = f"exit code {run.code}: {run.stderr.strip()[-300:]}"
    elif not traced:
        error = inv.check(run.stdout)
    else:
        try:
            payload = json.loads(run.stdout)
        except ValueError as exc:
            error = f"unreadable trace payload: {exc!r}"
        else:
            error = f"exit code {payload['exit']}" if payload["exit"] != 0 else inv.check(payload["stdout"])
    check_s = time.perf_counter() - t0
    if error:
        print(f"FAIL {inv.label}: {error}", file=sys.stderr)
    return Outcome(inv, run, error, payload, check_s)


def run_pass(sp: Spawner, invocations: list[Invocation], rng: random.Random, traced: bool = False):
    order = list(invocations)
    rng.shuffle(order)
    t0 = time.perf_counter()
    outcomes = [execute(sp, inv, traced) for inv in order]
    return time.perf_counter() - t0, outcomes


def setup_walls(sp: Spawner, samples: int) -> list[float]:
    """Wall times of interpreter start plus ``import schroeder.cli``, each in
    a fresh child."""
    cmd = [sys.executable, "-c", "import schroeder.cli"]
    walls = []
    for _ in range(samples):
        run = sp.run(cmd)
        if run.code != 0 or run.timed_out:
            raise SystemExit(f"perfbench: importing schroeder.cli failed: {run.stderr.strip()}")
        walls.append(run.wall)
    return walls


def reference_s(sp: Spawner) -> float:
    """One sample of the machine's current speed: ``child.py reference``."""
    run = sp.run([sys.executable, CHILD, "reference"])
    if run.code != 0 or run.timed_out:
        raise SystemExit(f"perfbench: the reference child failed: {run.stderr.strip()}")
    doc = json.loads(run.stdout)
    if doc["found"] != REF_FOUND:
        raise SystemExit(f"perfbench: the reference computation found {doc['found']} products")
    return doc["seconds"]


# -- reporting ----------------------------------------------------------------


def tail_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    k = len(ordered) - 10
    if k < 1:
        return f"no percentile has 10 samples beyond it ({len(ordered)} samples)"
    return f"p{100 * k / len(ordered):.0f}={ordered[k - 1]:.4f} ({len(ordered)} samples)"


def emit(outcomes: list[Outcome], metrics: dict[str, float], units: dict[str, str]) -> None:
    failed = sum(o.error is not None for o in outcomes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


def untraced_run(sp: Spawner, invocations: list[Invocation], seed: int, seconds: float, started: float):
    """Passes over the workload until ``seconds`` after ``started``, set-up
    samples included.  The first pass always completes; after it, the run
    ends before an invocation that, with its share of reference samples,
    would be past its middle at the deadline, going by its median so far.
    After every invocation, samples of ``reference_s`` are taken until they
    add up to REF_SHARE of the invocations' wall time so far.

    verdict_s (cpu_s) is the sum over invocations of their median wall (CPU)
    time, scaled by REF_S / the median reference sample of the run: the
    host's speed drifts by up to 2x over minutes, which the scaling mostly
    takes out and the raw times in the stderr report keep."""
    rng = random.Random(seed)
    setup_walls(sp, 1)  # fills the bytecode cache
    setup = setup_walls(sp, SETUP_SAMPLES)
    deadline = started + seconds - SETUP_SAMPLES * statistics.median(setup)
    outcomes: list[Outcome] = []
    refs = [reference_s(sp)]
    walls: dict[Invocation, list[float]] = defaultdict(list)
    pass_walls: list[float] = []
    while True:
        order = list(invocations)
        rng.shuffle(order)
        done = []
        for inv in order:
            if pass_walls and time.perf_counter() + statistics.median(walls[inv]) * (1 + REF_SHARE) / 2 > deadline:
                break
            done.append(execute(sp, inv))
            walls[inv].append(done[-1].wall)
            while sum(refs) < REF_SHARE * sum(sum(w) for w in walls.values()):
                refs.append(reference_s(sp))
        outcomes += done
        if len(done) < len(order):
            break
        pass_walls.append(sum(o.wall for o in done))
    setup += setup_walls(sp, SETUP_SAMPLES)

    def per_invocation(value) -> list[float]:
        return [statistics.median(value(o) for o in outcomes if o.inv is inv) for inv in invocations]

    raw_wall = sum(per_invocation(lambda o: o.wall))
    raw_cpu = sum(per_invocation(lambda o: o.run.cpu))
    scale = REF_S / statistics.median(refs)
    metrics = {
        "verdict_s": raw_wall * scale,
        "cpu_s": raw_cpu * scale,
        "peak_rss_mb": max(per_invocation(lambda o: o.run.rss_mb)),
        "setup_s": statistics.median(setup),
        "pass_ratio": sum(o.error is None for o in outcomes) / len(outcomes),
    }
    print(f"{len(outcomes)} invocations, {len(pass_walls)} whole passes; reference median "
          f"{statistics.median(refs):.4f} s over {len(refs)} samples ({min(refs):.4f}-{max(refs):.4f}), "
          f"scale {scale:.4f}", file=sys.stderr)
    print(f"verdict_s {metrics['verdict_s']:.4f} (raw {raw_wall:.4f} s); cpu_s {metrics['cpu_s']:.4f} "
          f"(raw {raw_cpu:.4f} s); raw pass walls {tail_percentile(pass_walls)}", file=sys.stderr)
    for inv in invocations:
        runs = [o.run for o in outcomes if o.inv is inv]
        print(f"  {inv.label:<24} wall {statistics.median(r.wall for r in runs):8.4f} s  "
              f"cpu {statistics.median(r.cpu for r in runs):8.4f} s  "
              f"rss {max(r.rss_mb for r in runs):7.1f} MB  x{len(runs)}", file=sys.stderr)
    return outcomes, metrics


# -- traced run ---------------------------------------------------------------


class SpanIndex:
    """Spans ``{name, start, end, parent, workload, seed, pass, attrs}`` of
    many children, with parents as indices into the one list."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.children: dict[int, list[int]] = defaultdict(list)

    def add_child(self, raw: list[list], workload: str, seed: int, pass_: int) -> None:
        base = len(self.spans)
        for name, start, end, parent, attrs in raw:
            parent = None if parent is None else base + parent
            if parent is not None:
                self.children[parent].append(len(self.spans))
            self.spans.append({"name": name, "start": start, "end": end, "parent": parent,
                               "workload": workload, "seed": seed, "pass": pass_, "attrs": attrs})

    def dur(self, i: int) -> float:
        return self.spans[i]["end"] - self.spans[i]["start"]

    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s["name"] == name]

    def minus(self, i: int, names: set[str]) -> float:
        """Duration of span i less the time in its outermost descendants
        named in ``names``."""
        d, stack = self.dur(i), list(self.children[i])
        while stack:
            c = stack.pop()
            if self.spans[c]["name"] in names:
                d -= self.dur(c)
            else:
                stack.extend(self.children[c])
        return d

    def under(self, i: int, prefix: str) -> bool:
        parent = self.spans[i]["parent"]
        while parent is not None:
            if self.spans[parent]["name"].startswith(prefix):
                return True
            parent = self.spans[parent]["parent"]
        return False

    def self_time(self, i: int) -> float:
        return self.dur(i) - sum(self.dur(c) for c in self.children[i])


def layer_metrics(ix: SpanIndex, keep) -> dict[str, float]:
    """Per-layer metrics over the spans for which ``keep(span)`` holds.  A
    metric whose layer call none of those spans made is left out."""

    def named(name: str) -> list[int]:
        return [i for i in ix.named(name) if keep(ix.spans[i])]

    def less_table(i: int) -> float:
        return ix.minus(i, {"green.table"})

    m: dict[str, float] = {}

    def total(metric: str, spans: list[int], dur=ix.dur) -> None:
        if spans:
            m[metric] = sum(map(dur, spans))

    enumerations = named("families.enumerate")
    tables = named("green.table")
    computed = [i for i in tables if ix.spans[i]["attrs"]]
    oracles = named("rank.oracle")
    closures = [i for i in named("rank.closure") if not ix.under(i, "rank.theorem_hq")]
    total("families.enumerate_s", enumerations)
    total("families.census_s", named("families.census"))
    total("green.table_s", tables)
    for r in RELATIONS:
        outermost = [i for i in named(f"green.partition_{r}") if not ix.under(i, "green.partition_")]
        total(f"green.partition_{r}_s", outermost, less_table)
    total("green.starred_definitional_s", named("green.starred_definitional"), less_table)
    total("green.starred_characterized_s", named("green.starred_characterized"))
    total("rank.essential_s", named("rank.essential"), less_table)
    total("rank.oracle_s", oracles, less_table)
    total("rank.closure_s", closures)
    total("rank.theorem_hq_s", named("rank.theorem_hq"))
    if enumerations:
        elements = sum(ix.spans[i]["attrs"]["elements"] for i in enumerations)
        m["families.elements_per_s"] = elements / m["families.enumerate_s"]
    if computed:
        m["green.table_products"] = sum(ix.spans[i]["attrs"]["products"] for i in computed)
        m["green.products_per_s"] = m["green.table_products"] / sum(map(ix.dur, computed))
        m["green.table_peak_rss_mb"] = max(ix.spans[i]["attrs"]["peak_rss_mb"] for i in computed)
    if oracles:
        paths = [ix.spans[i]["attrs"]["path"] for i in oracles]
        m["rank.path_essentials"] = paths.count("essentials")
        m["rank.path_hitting_set"] = paths.count("hitting_set")
    if closures:
        m["rank.closure_products"] = sum(ix.spans[i]["attrs"]["products"] for i in closures)
        m["rank.closure_products_per_s"] = m["rank.closure_products"] / m["rank.closure_s"]
    for i, s in enumerate(ix.spans):
        if s["parent"] is None and keep(s):
            m[f"{s['name']}_s"] = ix.dur(i)
    return m


def account(ix: SpanIndex, outs: list[Outcome], keep) -> dict:
    """Where the time of one traced pass went: self time per layer (the
    ``cli`` layer is each invocation's own code outside the other layers),
    ``import schroeder.cli`` in the children, each child's start-up and exit
    (its wall time outside ``child.py trace``, payload transfer included) and
    this process reading and checking the outputs."""
    layers: dict[str, float] = defaultdict(float)
    for i, s in enumerate(ix.spans):
        if keep(s):
            layers[s["name"].split(".")[0]] += ix.self_time(i)
    return {
        "self_s": dict(layers),
        "import_s": sum(o.payload["import_s"] for o in outs),
        "process_s": sum(o.run.wall - o.payload["run_s"] for o in outs),
        "check_s": sum(o.check_s for o in outs),
    }


def _median_dicts(dicts: list[dict]) -> dict:
    """Key-wise median of dicts of numbers, or of dicts of such dicts."""
    return {k: _median_dicts([d[k] for d in dicts]) if isinstance(v, dict)
            else statistics.median(d.get(k, 0.0) for d in dicts)
            for k, v in dicts[0].items()}


def traced_run(sp: Spawner, workload: str, suite: dict[str, list[Invocation]], seed: int):
    """Up to TRACE_ROUNDS rounds over the chosen workload, none starting
    TRACE_ROUNDS_S after the first, each running every invocation once
    untraced and once traced, back to back and in alternating order, so that
    the tracing overhead is a difference of neighbouring children; then one
    traced pass of each other workload.

    The printed metrics pool the first traced pass of every workload, so that
    each named layer metric is measured on the invocations that reach it.
    The chosen workload's own layer metrics and time account go to the
    stderr report and the trace file."""
    rng = random.Random(seed)
    ix = SpanIndex()
    outcomes: list[Outcome] = []
    rounds = []
    t0 = time.perf_counter()
    for r in range(TRACE_ROUNDS):
        if rounds and time.perf_counter() - t0 > TRACE_ROUNDS_S:
            break
        order = list(suite[workload])
        rng.shuffle(order)
        plain, traced = [], []
        for inv in order:
            for t in (False, True) if r % 2 == 0 else (True, False):
                (traced if t else plain).append(execute(sp, inv, traced=t))
        rounds.append((plain, traced))
        outcomes += plain + traced
    others = {name: run_pass(sp, invocations, rng, traced=True)[1]
              for name, invocations in suite.items() if name != workload}
    for outs in others.values():
        outcomes += outs
    probe = sp.run([sys.executable, CHILD, "probe", str(seed)])
    if probe.code != 0:
        raise SystemExit(f"perfbench: pmap probe failed: {probe.stderr.strip()}")
    if any(o.error for o in outcomes):
        return outcomes, {}

    for r, (_, traced) in enumerate(rounds):
        for o in traced:
            ix.add_child(o.payload["spans"], workload, seed, r)
    for name, outs in others.items():
        for o in outs:
            ix.add_child(o.payload["spans"], name, seed, 0)

    metrics = layer_metrics(ix, lambda s: s["pass"] == 0)
    metrics.update(json.loads(probe.stdout))
    metrics["cli.import_s"] = statistics.median(
        o.payload["import_s"] for o in outcomes if o.payload)

    def own(r):
        return lambda s: s["workload"] == workload and s["pass"] == r

    per_round = [{
        "untraced_verdict_s": sum(o.wall for o in plain),
        "traced_verdict_s": sum(o.wall for o in traced),
        "overhead_s": sum(o.wall for o in traced) - sum(o.wall for o in plain),
        **account(ix, traced, own(r)),
    } for r, (plain, traced) in enumerate(rounds)]
    report = _median_dicts(per_round)
    report["overhead_rounds_s"] = [r["overhead_s"] for r in per_round]
    report["layers"] = _median_dicts([layer_metrics(ix, own(r)) for r in range(len(rounds))])
    metrics["trace.overhead_s"] = report["overhead_s"]

    untraced = report["untraced_verdict_s"]
    layers = sum(report["self_s"].values()) + report["import_s"]
    parts = layers + report["process_s"] + report["check_s"]
    print(f"{workload}: medians of {len(rounds)} rounds; untraced {untraced:.3f} s, traced "
          f"{report['traced_verdict_s']:.3f} s, tracing overhead {report['overhead_s']:+.3f} s "
          f"(rounds: {', '.join(f'{d:+.3f}' for d in report['overhead_rounds_s'])})", file=sys.stderr)
    print("  traced = self [" + "  ".join(f"{k} {v:.3f}" for k, v in sorted(report["self_s"].items()))
          + f"] + import {report['import_s']:.3f} + child start/exit {report['process_s']:.3f}"
          f" + checking {report['check_s']:.3f} = {parts:.3f} s", file=sys.stderr)
    print(f"  layers + import = {layers:.3f} s, {100 * layers / untraced:.1f}% of untraced; "
          f"untraced - all parts = {untraced - parts:+.3f} s", file=sys.stderr)
    with open(OUT_DIR / f"trace-{workload}-seed{seed}.json", "w") as f:
        json.dump({"workload": workload, "seed": seed, "report": report, "spans": ix.spans}, f)
    return outcomes, metrics


# -- modes --------------------------------------------------------------------


def frontier(sp: Spawner) -> dict:
    """Largest n per command that exits 0 within 60 s under a 1 GB address
    space.  Not part of the repeated runs."""
    probes = {
        "enumerate": (9, lambda n: ["enumerate", "--family", "ss-prime", "--n", n]),
        "green": (6, lambda n: ["green", "--relation", "L", "--n", n]),
        "rank": (6, lambda n: ["rank", "--n", n]),
        "invariants": (8, lambda n: ["invariants", "--n", n]),
    }
    result = {}
    for command, (n, argv) in probes.items():
        largest, tried = None, []
        while True:
            run = sp.run([sys.executable, "-m", "schroeder.cli", *argv(str(n)), "--max-n", str(n)],
                         timeout=60, limit_as=FRONTIER_AS_BYTES)
            ok = run.code == 0 and not run.timed_out
            if ok and command == "enumerate":
                ok = run.stdout.count("\n") == SMALL_SCHROEDER[n]
            tried.append({"n": n, "ok": ok, "wall_s": round(run.wall, 3), "peak_rss_mb": round(run.rss_mb, 1),
                          "exit": run.code, "timed_out": run.timed_out})
            print(f"frontier {command} n={n}: {tried[-1]}", file=sys.stderr)
            if not ok:
                break
            largest, n = n, n + 1
        result[command] = {"largest_n": largest, "probes": tried}
    return result


def digests(sp: Spawner) -> dict[str, str]:
    out = {}
    for invocations in (*workloads().values(), *workloads(tiny=True).values()):
        for inv in invocations:
            run = sp.run(child_command(inv, traced=False), timeout=300)
            out[inv.label] = inv.digest(run.stdout) if run.code == 0 else f"exit {run.code}"
    return out


def _schema_problems(doc: dict, units: dict[str, str]) -> list[str]:
    problems = []
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(doc)}")
    if set(doc.get("metrics", {})) != set(units):
        problems.append(f"metric names differ: {sorted(set(doc.get('metrics', {})) ^ set(units))}")
    for name, metric in doc.get("metrics", {}).items():
        if not (isinstance(metric.get("value"), (int, float)) and metric.get("unit") == units.get(name)):
            problems.append(f"metric {name}: {metric}")
    if not (doc.get("correct") is True and doc.get("failed") == 0 and doc.get("attempted", 0) >= 1):
        problems.append(f"verdict {doc.get('correct')}, {doc.get('failed')}/{doc.get('attempted')} failed")
    return problems


def self_check(sp: Spawner) -> int:
    """Every workload's shape at n <= 4, traced and untraced, with the output
    schema validated and a wrong expected value shown to count as a failure.
    Asserts no timings."""
    import contextlib
    import io

    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(workloads()):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    if [m["name"] for m in spec["end_to_end"]] != list(END_TO_END_UNITS):
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != layer_metric_units(workloads()):
        problems.append("BENCHMARK.json per_layer differs from run.py")

    tiny = workloads(tiny=True)
    for name, invocations in tiny.items():
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                run_workload(sp, name, tiny, seed=1, seconds=0, trace=trace, started=time.perf_counter())
            units = layer_metric_units(tiny) if trace else END_TO_END_UNITS
            for p in _schema_problems(json.loads(out.getvalue().splitlines()[-1]), units):
                problems.append(f"{name} trace={trace}: {p}")
    print("self-check: two FAIL lines for deliberately wrong expected values follow", file=sys.stderr)
    rank = tiny["rank"][0]
    wrong_value = dataclasses.replace(rank, expected={**rank.expected, "rank": rank.expected["rank"] + 1})
    wrong_digest = dataclasses.replace(rank, expected={**rank.expected, "digest": "0" * 64})
    for inv in (wrong_value, wrong_digest):
        if execute(sp, inv).error is None:
            problems.append(f"a wrong expected value for {inv.label} was not counted as a failure")
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print("self-check: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def run_workload(sp: Spawner, name: str, suite: dict[str, list[Invocation]], seed: int, seconds: float,
                 trace: int, started: float) -> None:
    if trace:
        outcomes, metrics = traced_run(sp, name, suite, seed)
        units = layer_metric_units(suite)
    else:
        outcomes, metrics = untraced_run(sp, suite[name], seed, seconds, started)
        units = END_TO_END_UNITS
    if any(o.error for o in outcomes):
        metrics = dict.fromkeys(units, 0.0) | metrics
    emit(outcomes, metrics, units)


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=list(workloads()))
    mode.add_argument("--self-check", action="store_true")
    mode.add_argument("--frontier", action="store_true")
    mode.add_argument("--digests", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "schroeder" / "cli.py").is_file():
        print(f"perfbench: no schroeder sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with Spawner() as sp:
        if args.self_check:
            return self_check(sp)
        if args.frontier:
            result = frontier(sp)
            (OUT_DIR / "frontier.json").write_text(json.dumps(result, indent=1))
            print(json.dumps({c: r["largest_n"] for c, r in result.items()}))
        elif args.digests:
            print(json.dumps(digests(sp), indent=1))
        else:
            run_workload(sp, args.workload, workloads(), args.seed, args.seconds, args.trace, started)
    return 0

if __name__ == "__main__":
    sys.exit(main())
