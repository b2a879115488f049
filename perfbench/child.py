"""Child process of the perfbench benchmark.  Every mode runs in a fresh
interpreter with the checkout's ``src`` on ``PYTHONPATH``.

    child.py generate N HQ_N
        The library workload: close the 3N-4 minimal generators of SS'(N)
        under composition, then run verify_theorem_hq(HQ_N).  Prints one
        JSON object with the verdicts.
    child.py trace LABEL cli ARGV...
    child.py trace LABEL generate N HQ_N
        The same invocation with spans around the public calls into each
        layer.  Prints one JSON object: exit code, captured stdout, the
        import time of schroeder.cli, the time from that import to the end
        of the invocation, and the spans.
    child.py probe SEED
        Throughput of pmap.compose, pmap.parse and PartialMap.encode over
        a seeded sample of pairs drawn from SS'(7).
    child.py reference
        The benchmark's measure of the machine's current speed, with no
        package code in it; prints its time and a count for checking.

The spans are recorded here, in the benchmark's own code, by rebinding the
package's public functions to timing wrappers; the package itself is not
modified.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import random
import resource
import statistics
import sys
import time
import weakref


def generate(n: int, hq_n: int) -> dict:
    import schroeder as S

    gens = S.ss_prime_minimal_generators(n)
    closed = S.closure(gens)
    listing = "\n".join(sorted(a.encode() for a in closed))
    return {
        "n": n,
        "generators": len(gens),
        "closure_size": len(closed),
        "closure_sha256": hashlib.sha256(listing.encode()).hexdigest(),
        "theorem_hq_n": hq_n,
        "theorem_hq": S.verify_theorem_hq(hq_n),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Spans ``[name, start, end, parent, attrs]`` kept in memory; the
    parent index is the enclosing span, or None for the invocation root."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list = [None]

    def open(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), None, self._stack[-1], None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, sid: int, attrs: dict | None = None) -> None:
        self._stack.pop()
        self.spans[sid][2] = time.perf_counter()
        self.spans[sid][4] = attrs

    def wrap(self, name, fn, attrs=None):
        """``name`` is a string or a function of the call's arguments;
        ``attrs(result, *args)`` adds counts taken at the same boundary."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name if isinstance(name, str) else name(*args))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(sid)
                raise
            self.close(sid, attrs(result, *args) if attrs else None)
            return result

        return traced


def _rank_path(result) -> dict:
    if not result.certified:
        return {"path": "uncertified"}
    if result.essential and result.generating_set == tuple(sorted(result.essential)):
        return {"path": "essentials"}
    return {"path": "hitting_set"}


def install(tracer: Tracer) -> None:
    """Rebind the layers' public calls, in every schroeder module that
    imported them, to span-recording wrappers."""
    # import_module, not attribute access: the package's ``green`` is the function
    F, G, R = (importlib.import_module(f"schroeder.{m}") for m in ("families", "green", "rank"))

    # Tables whose full_table ran before: it caches the rows, so only the
    # first call on a table computes products.  Weak references keep no
    # table alive longer than the package does.
    seen: dict[int, weakref.ref] = {}

    def table_attrs(rows, table):
        ref = seen.get(id(table))
        if ref is not None and ref() is table:
            return None
        seen[id(table)] = weakref.ref(table)
        return {"products": len(table) ** 2, "peak_rss_mb": _peak_rss_mb()}

    census = "families.census"
    wrappers = {
        F.enumerate_family: tracer.wrap(
            "families.enumerate", F.enumerate_family, lambda r, *a: {"elements": len(r)}
        ),
        F.count_idempotents: tracer.wrap(census, F.count_idempotents),
        F.count_rstar_classes: tracer.wrap(census, F.count_rstar_classes),
        F.count_lstar_classes: tracer.wrap(census, F.count_lstar_classes),
        G.green: tracer.wrap(lambda table, which: f"green.partition_{which}", G.green),
        G.starred_definitional: tracer.wrap("green.starred_definitional", G.starred_definitional),
        G.starred_characterized: tracer.wrap("green.starred_characterized", G.starred_characterized),
        R.essential_elements: tracer.wrap("rank.essential", R.essential_elements),
        R.rank_oracle: tracer.wrap("rank.oracle", R.rank_oracle, lambda r, *a: _rank_path(r)),
        R.closure: tracer.wrap(
            "rank.closure", R.closure,
            lambda r, gens, *a: {"products": len(r) * len(gens)},
        ),
        R.verify_theorem_hq: tracer.wrap("rank.theorem_hq", R.verify_theorem_hq),
    }
    by_id = {id(fn): wrapped for fn, wrapped in wrappers.items()}
    modules = [m for k, m in sys.modules.items() if k == "schroeder" or k.startswith("schroeder.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in by_id:
                setattr(module, attr, by_id[id(value)])
    G.SemigroupTable.full_table = tracer.wrap(
        "green.table", G.SemigroupTable.full_table, table_attrs
    )


def trace(label: str, kind: str, argv: list[str]) -> dict:
    t0 = time.perf_counter()
    import schroeder  # noqa: F401
    import schroeder.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        root = tracer.open(f"cli.{label}")
        try:
            if kind == "cli":
                code = schroeder.cli.main(argv)
            else:
                print(json.dumps(generate(int(argv[0]), int(argv[1]))))
                code = 0
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        tracer.close(root)
    return {"exit": code, "stdout": out.getvalue(), "import_s": import_s,
            "run_s": time.perf_counter() - t0, "spans": tracer.spans}


def _rate(fn, items, repeats: int = 5) -> float:
    """Median calls per second of ``fn`` over ``items``."""
    rates = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for item in items:
            fn(*item)
        rates.append(len(items) / (time.perf_counter() - t0))
    return statistics.median(rates)


def probe(seed: int, size: int = 20_000) -> dict:
    from schroeder import Family, FamilySpec, PartialMap, compose, enumerate_family, parse

    ss7 = enumerate_family(FamilySpec(Family.SS_PRIME, 7))
    rng = random.Random(seed)
    pairs = [(rng.choice(ss7), rng.choice(ss7)) for _ in range(size)]
    texts = [(a.encode(), 7) for a, _ in pairs]
    maps = [(a,) for a, _ in pairs]
    return {
        "pmap.compose_per_s": _rate(compose, pairs),
        "pmap.parse_per_s": _rate(parse, texts),
        "pmap.encode_per_s": _rate(PartialMap.encode, maps),
    }


def reference(size: int = 400) -> dict:
    """Time a product table built the way ``green.full_table`` builds one,
    in this fresh process, over ``size`` seeded partial maps of {0..6} as
    sorted pair tuples: compose through a dict of each right factor, look
    the product up in an index.  Tables dominate the cayley and rank
    workloads, and a fresh heap meets the host's memory as the package's
    children do, so this tracks their speed on a shared host far better
    than a small computation in run.py does."""
    rng = random.Random(7)
    maps = [tuple(sorted((d, rng.randrange(7)) for d in rng.sample(range(7), rng.randrange(1, 7))))
            for _ in range(size)]
    index = {m: i for i, m in enumerate(maps)}
    dicts = [dict(m) for m in maps]
    t0 = time.perf_counter()
    rows = [[index.get(tuple((d, bd[v]) for d, v in a if v in bd)) for bd in dicts] for a in maps]
    seconds = time.perf_counter() - t0
    return {"seconds": seconds, "found": sum(k is not None for row in rows for k in row)}


def main(argv: list[str]) -> int:
    mode, *rest = argv
    if mode == "generate":
        print(json.dumps(generate(int(rest[0]), int(rest[1]))))
    elif mode == "trace":
        label, kind, *args = rest
        print(json.dumps(trace(label, kind, args)))
    elif mode == "probe":
        print(json.dumps(probe(int(rest[0]))))
    elif mode == "reference":
        print(json.dumps(reference()))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
