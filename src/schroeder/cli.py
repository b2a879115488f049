"""Command-line front end: enumeration, invariant reports, Green's relation
queries, rank verification, and a one-shot verification suite.

Exit codes: 0 success (all rows PASS where applicable), 1 verification
failure, 2 usage error, 3 size guard exceeded (raise --max-n to override;
the guard of verify-all is fixed).
"""

from __future__ import annotations

import argparse
import sys
import time

# what parsing and the census commands need; each other command imports its
# own layer (green, rank) and json or csv only where it writes that format,
# since every command is a short process that compiles what it imports when
# no bytecode is written
from .families import (
    Family,
    FamilySpec,
    binom,
    census,
    count_idempotents,
    family_blocks,
    formula_idempotents,
    formula_rstar_classes,
    height_counts,
    schroeder_small,
    ss_prime_minimal_generators,
)
from .pmap import closure

# characterized starred relations group what they enumerate: on a 2-vCPU VM
# L* at n=11 takes 8.9 s and 849 MB, and n=12 holds about 5x the maps
ENUM_GUARD = 10
# invariants counts from prefix and suffix keys and builds no map: on a
# 2-vCPU VM --n 19 takes 25-30 s and 467 MB, and --n 20 ran past 100 s
INVARIANTS_GUARD = 19
# enumerate writes each block of codes as the scan makes it and holds no
# family: on a 2-vCPU VM --format json takes 0.7 s at n=11, 2.9 s and 27 MB
# at n=12, and 12-14 s and 32 MB at n=13
ENUMERATE_GUARD = 13
# classical relations at n=10, 2-vCPU VM: L/R/H/D/J take 6.6-18.7 s and under 680 MB
GREEN_GUARD = 10
# ideals and quotients seed their Cayley graphs with G(n,p), hundreds of generators; at n=9
# on a 2-vCPU VM the slowest relation takes 21-28 s (L, ideal (9,4)), the largest 678 MB
GREEN_IDEAL_GUARD = 9
# rank certifies from the top layers, then closes the generating set over
# the whole target: SS'(11) takes 11-17 s and 325 MB on a 2-vCPU VM, and
# SS'(12) closes about 5x as many maps in about 5x the memory
RANK_GUARD = 11
# ideals and quotients run the oracle on the quotient at height p itself: on a
# 2-vCPU VM every one at n=10 takes at most 24 s and 640 MB (ideal (10,4))
RANK_QUOTIENT_GUARD = 10
# the definitional starred relations cancel over S^1 in the product table: on
# a 2-vCPU VM L*/R* take 0.50 / 0.73 s and 27 MB at n=6, and 4.1 / 5.6 s and
# 244 / 254 MB at n=7
DEFINITIONAL_GUARD = 7
# verify-all runs every check up to n-max: --n-max 8 takes 20.4 s and 152 MB
# on a 2-vCPU VM
VERIFY_ALL_GUARD = 8

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _fail_guard(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_GUARD


# -- enumerate ----------------------------------------------------------


def cmd_enumerate(args) -> int:
    if args.n < 2:
        return _fail_usage("family enumeration needs n >= 2 (n=1 gives the empty family)")
    guard = args.max_n if args.max_n is not None else ENUMERATE_GUARD
    if args.n > guard:
        return _fail_guard(f"enumeration too large at n={args.n}; raise --max-n")
    # each block is written as the scan makes it; the family is never held,
    # and only csv reads the vectors
    blocks = family_blocks(FamilySpec(Family(args.family), args.n, args.p), args.format == "csv")
    out = sys.stdout
    if args.format == "text":
        for codes, _ in blocks:
            if codes:
                out.write("\n".join(codes) + "\n")
    elif args.format == "json":
        import json

        # the document json.dumps would print, written piecewise: a code
        # holds only digits and ":,-", which JSON quotes as they are
        head = json.dumps({"family": args.family, "n": args.n, "p": args.p, "elements": []})
        out.write(head[:-2])  # up to the opening "["
        sep = ""
        for codes, _ in blocks:
            if codes:
                out.write(sep + '"' + '", "'.join(codes) + '"')
                sep = ", "
        out.write("]}\n")
    else:
        import csv

        writer = csv.writer(out)
        writer.writerow(["element", "height"])
        # the height is the number of distinct nonzero bytes of the vector
        for codes, vecs in blocks:
            writer.writerows(zip(codes, [len(set(v)) - 1 for v in vecs]))
    return EXIT_OK


# -- invariants ---------------------------------------------------------


def _invariant_rows(n: int):
    """Count rows read from the key census of SS'(n): the idempotents from
    ``count_idempotents``, which runs it, and the other rows from
    ``census``, which reads the same keys.  Each row's ``runtime_ms`` is
    the time since the previous row, so the first row carries the census."""
    rows = []
    t0 = time.perf_counter()

    def add(name: str, formula_value: int, oracle_value: int) -> None:
        nonlocal t0
        t1 = time.perf_counter()
        rows.append({
            "name": name,
            "formula_value": formula_value,
            "oracle_value": oracle_value,
            "status": "PASS" if formula_value == oracle_value else "FAIL",
            "runtime_ms": round((t1 - t0) * 1000, 3),
        })
        t0 = t1

    idempotents = count_idempotents(n)
    counts = census(n)
    add("|SS'|", schroeder_small(n), counts.order)
    add("idempotents", formula_idempotents(n), idempotents)
    for p in range(n):
        add(f"Rstar-classes p={p}", formula_rstar_classes(n, p), counts.kernels[p])
    for p in range(1, n):
        add(f"Lstar-classes p={p}", binom(n, p), counts.images[p])
    add("class-count identity", formula_idempotents(n), sum(counts.kernels))
    return rows


def _emit_rows(rows, n: int, fmt: str) -> None:
    if fmt == "json":
        import json

        print(json.dumps({"n": n, "rows": rows}))
    elif fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout)
        writer.writerow(["name", "formula_value", "oracle_value", "status", "runtime_ms"])
        for r in rows:
            writer.writerow([r["name"], r["formula_value"], r["oracle_value"], r["status"], r["runtime_ms"]])
    else:
        width = max(len(r["name"]) for r in rows)
        for r in rows:
            print(f"{r['name']:<{width}}  formula={r['formula_value']}  oracle={r['oracle_value']}  {r['status']}")


def cmd_invariants(args) -> int:
    if args.n < 2:
        return _fail_usage("invariants need n >= 2")
    guard = args.max_n if args.max_n is not None else INVARIANTS_GUARD
    if args.n > guard:
        return _fail_guard(f"n={args.n} exceeds the guard; raise --max-n")
    rows = _invariant_rows(args.n)
    _emit_rows(rows, args.n, args.format)
    return EXIT_OK if all(r["status"] == "PASS" for r in rows) else EXIT_FAIL


# -- green --------------------------------------------------------------


def cmd_green(args) -> int:
    from .green import green, starred_characterized, starred_definitional, target_table

    classical = args.relation in ("L", "R", "H", "D", "J")
    if args.mode == "definitional" and args.relation not in ("Lstar", "Rstar"):
        return _fail_usage("definitional mode exists only for Lstar and Rstar")
    if args.mode == "definitional":
        default, why = DEFINITIONAL_GUARD, "; use --mode characterized or raise --max-n"
    elif classical:
        default = GREEN_GUARD if args.target == "ss-prime" else GREEN_IDEAL_GUARD
        why = ": their Cayley graphs take |S| x |generators| products (raise --max-n)"
    else:
        default, why = ENUM_GUARD, ": it enumerates the target and groups it (raise --max-n)"
    guard = args.max_n if args.max_n is not None else default
    if args.n > guard:
        mode = "classical relations" if classical else f"{args.mode} mode"
        return _fail_guard(f"{mode} guarded at n={guard}{why}")
    table = target_table(args.n, args.target, args.p)
    agrees = True
    if classical:
        part = green(table, args.relation)
    elif args.mode == "definitional":
        part = starred_definitional(table, args.relation)
        agrees = part == starred_characterized(table, args.relation)
        print(f"agreement with characterized: {agrees}")
    else:
        part = starred_characterized(table, args.relation)
    print(f"classes: {part.num_classes()}" + (" (all singletons)" if part.is_identity() else ""))
    if args.verbose:
        print(part.to_json(table, args.relation))
    return EXIT_OK if agrees else EXIT_FAIL


# -- rank ---------------------------------------------------------------


def cmd_rank(args) -> int:
    from .rank import formula_rank_ideal, formula_rank_quotient, rank_layered

    if args.n < 2:
        return _fail_usage(f"rank needs n >= 2 (3n-4 holds for n >= 2 only), got n={args.n}")
    default = RANK_GUARD if args.target == "ss-prime" else RANK_QUOTIENT_GUARD
    guard = args.max_n if args.max_n is not None else default
    if args.n > guard:
        # counted at the first n past the guard: the count only grows with n
        maps = sum(height_counts(guard + 1))
        return _fail_guard(
            f"rank computation guarded at n={guard}: the tables it builds and "
            f"closes grow with SS'(n), which has {maps:,} maps at n={guard + 1} "
            f"(raise --max-n)"
        )
    result, table = rank_layered(args.n, args.target, args.p)
    if args.target == "quotient":
        formula = formula_rank_quotient(args.n, args.p)
    elif args.target == "ideal" and args.p <= args.n - 2:
        formula = formula_rank_ideal(args.n, args.p)
    else:
        formula = 3 * args.n - 4  # SS'(n), and K(n, n-1), the whole semigroup
    status = (
        "UNCERTIFIED" if not result.certified
        else "PASS" if result.rank == formula
        else "FAIL"
    )
    payload = {
        "target": args.target,
        "n": args.n,
        "p": args.p,
        "rank": result.rank,
        "formula": formula,
        "certified": result.certified,
        "status": status,
        "generating_set": sorted(table.element(i).encode() for i in result.generating_set),
        "notes": result.notes,
    }
    if args.format == "json":
        import json

        print(json.dumps(payload))
    elif args.format == "csv":
        import csv
        import json

        writer = csv.writer(sys.stdout)
        writer.writerow(list(payload))
        writer.writerow([json.dumps(v) if isinstance(v, list) else v for v in payload.values()])
    else:
        print(f"rank: {result.rank} (formula {formula}) {status}")
        if result.notes:
            print(f"notes: {result.notes}")
        print("generators:", " ".join(payload["generating_set"]))
    return EXIT_OK if status in ("PASS", "UNCERTIFIED") else EXIT_FAIL


# -- verify-all ---------------------------------------------------------


def _verify_rows(n_max: int, long: bool):
    from .green import abundance_report, green, starred_characterized, starred_definitional, target_table
    from .rank import (
        formula_rank_ideal,
        formula_rank_quotient,
        rank_layered,
        verify_ss1_witnesses,
        verify_theorem_hq,
    )

    rows = []

    def add(name: str, check) -> None:
        t0 = time.perf_counter()
        outcome = check() if callable(check) else check
        status = "SKIPPED" if outcome is None else ("PASS" if outcome else "FAIL")
        rows.append({"name": name, "status": status,
                     "runtime_ms": round((time.perf_counter() - t0) * 1000, 3)})

    for n in range(2, n_max + 1):
        table = target_table(n, "ss-prime")
        ss = table.elements
        counts = census(n)
        add(f"order n={n}", len(ss) == schroeder_small(n))
        add(f"idempotents n={n}",
            lambda n=n: count_idempotents(n) == formula_idempotents(n))
        add(
            f"class counts n={n}",
            all(counts.kernels[p] == formula_rstar_classes(n, p) for p in range(n))
            and all(counts.images[p] == binom(n, p) for p in range(1, n)),
        )
        add(
            f"abundance n={n}",
            lambda table=table: (
                (rep := abundance_report(table)).right_abundant
                and rep.unique_idempotent_per_rstar
                and not rep.left_abundant
            ),
        )
        for target in ("ideal", "quotient"):
            add(
                f"{target} abundance n={n}",
                lambda n=n, target=target: all(
                    (rep := abundance_report(target_table(n, target, p))).right_abundant
                    and not rep.left_abundant
                    for p in range(1, n)
                ),
            )
        add(
            f"green structure n={n}",
            lambda table=table: green(table, "R").is_identity()
            and green(table, "H") == green(table, "R")
            and green(table, "D") == green(table, "L") == green(table, "J"),
        )
        add(
            f"quotient ranks n={n}",
            lambda n=n: all(
                rank_layered(n, "quotient", p)[0].rank == formula_rank_quotient(n, p)
                for p in range(1, n)
            ),
        )
        if n >= 3:
            add(
                f"ideal ranks n={n}",
                lambda n=n: all(
                    rank_layered(n, "ideal", p)[0].rank == formula_rank_ideal(n, p)
                    for p in range(1, n - 1)
                ),
            )
        add(f"semigroup rank n={n}",
            lambda n=n: rank_layered(n, "ss-prime")[0].rank == 3 * n - 4)
        if n <= 7:
            add(f"idempotent+requisite generation n={n}",
                lambda n=n: verify_theorem_hq(n))
        add(
            f"minimal generators n={n}",
            lambda n=n, ss=ss: (
                len(gens := ss_prime_minimal_generators(n)) == 3 * n - 4
                and closure(gens) == set(ss)
            ),
        )
        if n <= 4 or (n == 5 and long):
            add(
                f"starred agreement n={n}",
                lambda table=table: all(
                    starred_definitional(table, w)
                    == starred_characterized(table, w)
                    for w in ("Lstar", "Rstar")
                ),
            )
        else:
            add(f"starred agreement n={n}", None)
        if n >= 4:
            add(f"generator witnesses n={n}", lambda n=n: verify_ss1_witnesses(n))
    return rows


def cmd_verify_all(args) -> int:
    if args.n_max < 2:
        return _fail_usage("need --n-max >= 2")
    if args.n_max > VERIFY_ALL_GUARD:
        return _fail_guard(f"verify-all guarded at n-max = {VERIFY_ALL_GUARD}")
    rows = _verify_rows(args.n_max, args.long)
    if args.format == "json":
        import json

        print(json.dumps({"n_max": args.n_max, "rows": rows}))
    else:
        width = max(len(r["name"]) for r in rows)
        for r in rows:
            print(f"{r['name']:<{width}}  {r['status']}")
    failed = [r for r in rows if r["status"] == "FAIL"]
    print(f"{sum(r['status'] == 'PASS' for r in rows)} passed, "
          f"{len(failed)} failed, {sum(r['status'] == 'SKIPPED' for r in rows)} skipped")
    return EXIT_FAIL if failed else EXIT_OK


# -- parser -------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schroeder",
        description="Construct and analyze isotone order-decreasing partial "
        "transformations whose domain avoids 1, their ideals and Rees quotients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def max_n(text: str) -> int:
        if (n := int(text)) < 1:
            raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
        return n

    def common(p, with_p=True, with_format=True):
        p.add_argument("--n", type=int, required=True)
        if with_p:
            p.add_argument("--p", type=int, default=None)
        if with_format:
            p.add_argument("--format", choices=["text", "json", "csv"], default="text")
        p.add_argument("--max-n", type=max_n, default=None,
                       help="override the size guard for this command")

    p_enum = sub.add_parser("enumerate", help="list a family in canonical order")
    p_enum.add_argument("--family", required=True,
                        choices=[f.value for f in Family])
    common(p_enum)
    p_enum.set_defaults(func=cmd_enumerate)

    p_inv = sub.add_parser("invariants", help="formula-vs-oracle count report")
    common(p_inv, with_p=False)
    p_inv.set_defaults(func=cmd_invariants)

    p_green = sub.add_parser("green", help="Green's or starred Green's classes")
    p_green.add_argument("--relation", required=True,
                         choices=["L", "R", "H", "D", "J", "Lstar", "Rstar", "Hstar", "Dstar"])
    p_green.add_argument("--mode", choices=["characterized", "definitional"],
                         default="characterized")
    p_green.add_argument("--target", choices=["ss-prime", "ideal", "quotient"],
                         default="ss-prime")
    p_green.add_argument("--verbose", action="store_true")
    common(p_green, with_format=False)  # text, and JSON classes under --verbose
    p_green.set_defaults(func=cmd_green)

    p_rank = sub.add_parser("rank", help="certified rank vs closed form")
    p_rank.add_argument("--target", choices=["ss-prime", "ideal", "quotient"],
                        default="ss-prime")
    common(p_rank)
    p_rank.set_defaults(func=cmd_rank)

    p_all = sub.add_parser("verify-all", help="run the whole verification matrix")
    p_all.add_argument("--n-max", type=int, required=True)
    p_all.add_argument("--long", action="store_true")
    p_all.add_argument("--format", choices=["text", "json"], default="text")
    p_all.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # a NotClosedError: an unverified table (``target_table``,
        # ``verify=False``) was not closed; only a command that loaded green
        # builds one
        green = sys.modules.get(f"{__package__}.green")
        if green is not None and isinstance(exc, green.NotClosedError):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FAIL
        return _fail_usage(str(exc))


if __name__ == "__main__":
    sys.exit(main())
