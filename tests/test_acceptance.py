"""Acceptance gate: one test (one pass/fail line under ``pytest -v``) per
criterion.  Every check is exact; there are no tolerances anywhere.
"""

import itertools
import random

import pytest
from green_reference import (
    compose_relations,
    partition_as_relation,
    regular_indices,
    relations_equal,
)
from pmap_reference import all_partial_maps

from schroeder import (
    Family,
    FamilySpec,
    PartialMap,
    abundance_report,
    binom,
    closure,
    count_lstar_classes,
    count_rstar_classes,
    enumerate_family,
    factor_via_requisite,
    formula_idempotents,
    formula_rank_ideal,
    formula_rank_quotient,
    formula_rstar_classes,
    green,
    is_requisite,
    lift_requisite,
    pseudo_inverse,
    rank_oracle,
    schroeder_small,
    ss_prime_minimal_generators,
    starred_characterized,
    starred_definitional,
    verify_identity_corollary,
    verify_ss1_witnesses,
)
from schroeder.pmap import member_ss_prime


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name})" + (f": {detail}" if detail else "")


def test_criterion_01_cardinality(ss):
    expected = [3, 11, 45, 197, 903, 4279, 20793, 103049]
    ok = all(
        len(ss(n)) == schroeder_small(n) == expected[n - 2] for n in range(2, 10)
    )
    _report(1, "cardinality", ok)


def test_criterion_02_idempotent_count(ss):
    ok = all(
        sum(1 for a in ss(n) if a.is_idempotent()) == formula_idempotents(n)
        for n in range(2, 10)
    )
    _report(2, "idempotent count", ok)


def test_criterion_03_green_structure(table):
    ok = True
    for n in range(2, 7):
        t = table(n)
        L = green(t, "L")
        ok &= green(t, "R").is_identity()
        ok &= green(t, "H").is_identity()
        ok &= green(t, "D") == L == green(t, "J")
        grouped = {}
        for i, a in enumerate(t.elements):
            grouped.setdefault((a.image(), tuple(map(a.vector.index, a.image()))), []).append(i)
        ok &= sorted(map(tuple, grouped.values())) == sorted(L.classes)
        ok &= set(regular_indices(t)) == set(t.idempotent_indices())
    _report(3, "Green structure", ok)


def test_criterion_04_starred_agreement(table):
    ok = all(
        starred_definitional(table(n), w) == starred_characterized(table(n), w)
        for n in range(2, 5)
        for w in ("Lstar", "Rstar")
    )
    _report(4, "starred agreement", ok)


@pytest.mark.long
def test_criterion_04_starred_agreement_long(table):
    ok = all(
        starred_definitional(table(5), w) == starred_characterized(table(5), w)
        for w in ("Lstar", "Rstar")
    )
    _report(4, "starred agreement (long, n=5)", ok)


def test_criterion_05_abundance(table):
    failed = []
    for n in range(2, 9):
        t = table(n)
        rep = abundance_report(t)
        i = t.index_of(PartialMap.of(n, {2: 1}))
        witness = starred_characterized(t, "Lstar").class_of(i)
        checks = {
            "right abundant": rep.right_abundant,
            "one idempotent per R*-class": rep.unique_idempotent_per_rstar,
            "not left abundant": not rep.left_abundant,
            "witness idempotent-free": not any(
                t.elements[j].is_idempotent() for j in witness
            ),
            # L* is equal image here, so the class of {2->1} is every map
            # with image {1}: a nonempty domain within {2..n}, each point
            # sent to 1.  Each such map is isotone and order-decreasing, so
            # the class has 2^(n-1) - 1 elements.  The size was once stated
            # as n - 1, which holds only at n = 2; the n - 1 maps {i->1} are
            # a subset of the class, not the class.
            "witness size 2^(n-1)-1": len(witness) == 2 ** (n - 1) - 1,
        }
        if n <= 5:
            # the cancellation definition, so the size does not rest on the
            # image characterization alone
            checks["witness is the definitional L*-class"] = set(
                starred_definitional(t, "Lstar").class_of(i)
            ) == set(witness)
        failed += [(n, prop) for prop, ok in checks.items() if not ok]
    _report(5, "abundance", not failed, f"failed (n, property): {failed}")


def test_criterion_06_relation_algebra(table):
    ok = True
    for n in (4, 5):
        t = table(n)
        L = partition_as_relation(starred_characterized(t, "Lstar"))
        R = partition_as_relation(starred_characterized(t, "Rstar"))
        D = partition_as_relation(starred_characterized(t, "Dstar"))
        ok &= relations_equal(compose_relations(compose_relations(R, L), R), D)
        ok &= relations_equal(compose_relations(compose_relations(L, R), L), D)
        lr, rl = compose_relations(L, R), compose_relations(R, L)
        ok &= not relations_equal(lr, rl)
        i = t.index_of(PartialMap.of(n, {2: 2, 3: 3}))
        j = t.index_of(PartialMap.of(n, {2: 2, 4: 4}))
        ok &= ((i, j) in lr) != ((i, j) in rl)
    _report(6, "relation algebra", ok)


def test_criterion_07_class_counts():
    ok = all(
        count_rstar_classes(n, p) == formula_rstar_classes(n, p)
        for n in range(2, 9)
        for p in range(n)
    )
    ok &= all(
        count_lstar_classes(n, p) == binom(n, p)
        for n in range(2, 9)
        for p in range(1, n)
    )
    ok &= all(verify_identity_corollary(n) for n in range(2, 13))
    _report(7, "class counts", ok)


def test_criterion_08_quotient_ranks(table):
    ok = True
    for n in range(2, 7):
        for p in range(1, n):
            r = rank_oracle(table(n, p, quotient=True))
            ok &= r.certified and r.rank == formula_rank_quotient(n, p)
        ok &= formula_rank_quotient(n, n - 1) == n
    _report(8, "quotient ranks", ok)


def test_criterion_09_ideal_ranks(table):
    ok = formula_rank_ideal(4, 2) == 8 and formula_rank_ideal(5, 2) == 21
    for n in range(3, 7):
        for p in range(1, n - 1):
            r = rank_oracle(table(n, p))
            ok &= r.certified and r.rank == formula_rank_ideal(n, p)
    _report(9, "ideal ranks", ok)


def test_criterion_10_semigroup_rank(table, ss):
    ok = True
    for n in range(2, 7):
        r = rank_oracle(table(n))
        ok &= r.certified and r.rank == 3 * n - 4
    for n in range(2, 9):
        gens = ss_prime_minimal_generators(n)
        ok &= len(gens) == 3 * n - 4
        ok &= closure(gens) == set(ss(n))
    _report(10, "semigroup rank", ok)


def test_criterion_11_constructive_lemmas(ss):
    ok = True

    # fixed points of products, exhaustively over decreasing maps for n <= 5
    for n in range(2, 6):
        decreasing = [a for a in all_partial_maps(n) if a.is_decreasing()]
        for a, b in itertools.product(decreasing, repeat=2):
            want = set(a.fixed_points()) & set(b.fixed_points())
            if set((a * b).fixed_points()) != want or set((b * a).fixed_points()) != want:
                ok = False
    # ... and on 10^5 random pairs for n <= 8
    rng = random.Random(2026)
    for _ in range(100_000):
        n = rng.randint(2, 8)
        a, b = (
            PartialMap.of(
                n,
                {x: rng.randint(1, x) for x in range(1, n + 1) if rng.random() < 0.6},
            )
            for _ in range(2)
        )
        want = set(a.fixed_points()) & set(b.fixed_points())
        if set((a * b).fixed_points()) != want or set((b * a).fixed_points()) != want:
            ok = False

    # pseudo-inverse contract, exhaustively for n <= 6
    for n in range(2, 7):
        for a in ss(n):
            if not a.pairs:
                continue
            ai = pseudo_inverse(a)
            ok &= ai.domain() == a.image()
            ok &= a * ai * a == a
            prod = a * ai
            ok &= prod.is_idempotent() and member_ss_prime(prod)

    # factorization through and lifting of requisite elements, n <= 6
    for n in range(2, 7):
        for a in ss(n):
            if a.pairs and a.image()[0] == 1:
                b, req = factor_via_requisite(a)
                ok &= is_requisite(req) and b * req == a
            if is_requisite(a) and a.height() <= n - 3:
                beta, gamma = lift_requisite(a)
                ok &= beta.is_idempotent() and is_requisite(gamma)
                ok &= beta * gamma == a

    ok &= all(verify_ss1_witnesses(n) for n in range(4, 9))

    # injectivity barrier: the top slice generates only injective maps
    for n in range(3, 8):
        gen = closure([a for a in ss(n) if a.height() == n - 1])
        ok &= all(a.is_injective() for a in gen)
        ok &= not {a for a in ss(n) if a.height() == n - 2} <= gen

    _report(11, "constructive lemmas", ok)
