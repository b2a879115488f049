import random
import tracemalloc

import pytest
from green_reference import target_and_layer_tables
from pmap_reference import all_partial_maps, compose_reference

from schroeder import (
    Family,
    FamilySpec,
    PartialMap,
    RankResult,
    closure,
    closure_indices,
    enumerate_family,
    essential_elements,
    factor_via_requisite,
    formula_rank_ideal,
    formula_rank_quotient,
    generating_set_G,
    is_requisite,
    lift_requisite,
    rank_oracle,
    ss_prime_minimal_generators,
    verify_ss1_witnesses,
    verify_theorem_hq,
)
from schroeder.green import build_table, target_table
from schroeder.pmap import closure_vectors
import schroeder.families
import schroeder.rank
from schroeder.rank import _disjoint_packing, _factor_constraints, rank_layered


# -- slow references on the full |S|^2 product table ----------------------


def essential_reference(table):
    """Indices s with no s = u * g where u != s and g != s, entry by entry."""
    rows = table.full_table()
    size = len(table)
    decomposable = [False] * size
    for u in range(size):
        for g in range(size):
            s = rows[u][g]
            if s != u and s != g:
                decomposable[s] = True
    return {i for i in range(size) if not decomposable[i]}


def factor_constraints_reference(table):
    """The last- and first-factor constraints, entry by entry; the zero of
    a Rees quotient gets none."""
    rows = table.full_table()
    size, zi = len(table), table.zero_index
    pred_right = [set() for _ in range(size)]
    pred_left = [set() for _ in range(size)]
    for u in range(size):
        for g in range(size):
            s = rows[u][g]
            if s != u and s != g and s != zi:
                pred_right[s].add(g)
                pred_left[s].add(u)
    out = []
    for s in range(size):
        if s == zi:
            continue
        out.append(frozenset({s}) | frozenset(pred_right[s]))
        out.append(frozenset({s}) | frozenset(pred_left[s]))
    return out


def factor_constraint_sets(table, essential):
    """The class-row scan of ``_factor_constraints`` with each constraint
    kept as a set of ints and emitted as a frozenset, the form the oracle
    used before it kept shared member arrays."""
    size, zi = len(table), table.zero_index
    dropped = essential | {zi}
    pred_right = [None if s in dropped else set() for s in range(size)]
    pred_left = [None if s in dropped else set() for s in range(size)]
    for u, (_, members, composed) in enumerate(table.class_rows()):
        u_essential = u in essential
        for c, s in enumerate(composed):
            if s != u:
                factors = members[c]
                if len(factors) > 1 or factors[0] != s:
                    right = pred_right[s]
                    if right is not None:
                        if essential.isdisjoint(factors):
                            right.update(factors)
                        else:
                            pred_right[s] = None
                    left = pred_left[s]
                    if left is not None:
                        if u_essential:
                            pred_left[s] = None
                        else:
                            left.add(u)
    out = []
    for s in range(size):
        for preds in (pred_right, pred_left):
            pred = preds[s]
            if pred is not None:
                preds[s] = None
                pred.add(s)
                out.append(frozenset(pred))
    return out


def disjoint_packing_reference(constraints):
    """Pairwise disjoint frozensets, picked greedily by size, ties in the
    given order."""
    used = set()
    packed = []
    for c in sorted(constraints, key=len):
        if used.isdisjoint(c):
            used |= c
            packed.append(c)
    return packed


def as_sets(constraints):
    """Each ``(s, parts)`` of ``_factor_constraints`` as the frozenset it stands for."""
    return [frozenset({s}).union(*parts) for s, parts in constraints]


def closure_indices_reference(table, gen_indices):
    """The subsemigroup generated inside the table, expanding each reached
    element by every generator."""
    rows = table.full_table()
    gens = sorted(set(gen_indices))
    seen = set(gens)
    work = list(gens)
    while work:
        row = rows[work.pop()]
        for g in gens:
            s = row[g]
            if s not in seen:
                seen.add(s)
                work.append(s)
    return seen


def minimal_constraints(constraints):
    """Drop duplicates and supersets (hitting a subset implies the superset)."""
    minimal = []
    for c in sorted(set(constraints), key=len):
        if not any(m <= c for m in minimal):
            minimal.append(c)
    return minimal


def rank_oracle_reference(table):
    """The oracle on the entry-by-entry references, with every step spelled
    out: the minimal constraints that avoid the essentials, a greedy count
    of pairwise disjoint ones for the bound, one pick per minimal
    constraint, and a check that the picks meet the bound."""
    size = len(table)
    essential = essential_reference(table)
    if essential and len(closure_indices(table, essential)) == size:
        return RankResult(len(essential), frozenset(essential), True, tuple(sorted(essential)))
    minimal = minimal_constraints(
        [c for c in factor_constraints_reference(table) if not (c & essential)]
    )
    used, lower = set(), len(essential)
    for c in minimal:
        if not (c & used):
            used |= c
            lower += 1
    candidate = essential | {min(c) for c in minimal}
    if len(candidate) == lower and len(closure_indices(table, candidate)) == size:
        return RankResult(lower, frozenset(essential), True, tuple(sorted(candidate)))
    return RankResult(
        None, frozenset(essential), False, (),
        f"lower bound {lower} (disjoint constraints); no generating set of that size found",
    )


CLASS_SCAN_TARGETS = [
    pytest.param(lambda table, n=n: table(n), id=f"ss-prime-n{n}") for n in range(2, 6)
] + [
    pytest.param(lambda table, c=(n, p, q): table(*c),
                 id=f"{'quotient' if q else 'ideal'}-n{n}-p{p}")
    for n in range(2, 6)
    for p in range(1, n)
    for q in (False, True)
] + [
    pytest.param(
        lambda table: build_table(enumerate_family(FamilySpec(Family.LS, 4)), verify=False),
        id="ls-n4",
    ),
    pytest.param(lambda table: build_table(all_partial_maps(3), verify=False),
                 id="all-partial-maps-n3"),
]


@pytest.mark.parametrize("make", CLASS_SCAN_TARGETS)
def test_class_scans_match_entry_references(table, make):
    """The scans per restriction class find the same essentials and the
    same constraints, in the same order, as the scans per table entry, and
    the packing picks the least member of each constraint that the greedy
    packing of frozensets packs.  With no essentials given, some constraints
    here are blocked by their s alone."""
    t = make(table)
    essential = essential_elements(t)
    assert essential == essential_reference(t)
    constraints = factor_constraints_reference(t)
    for e in (set(), essential):
        got, want = _factor_constraints(t, e), [c for c in constraints if not (c & e)]
        assert as_sets(got) == want
        assert _disjoint_packing(got) == [min(c) for c in disjoint_packing_reference(want)]


@pytest.mark.parametrize("make", CLASS_SCAN_TARGETS + [
    pytest.param(lambda table, c=(6, p, q): table(*c),
                 id=f"{'quotient' if q else 'ideal'}-n6-p{p}")
    for p in range(1, 6)
    for q in (False, True)
])
def test_rank_oracle_matches_reference(table, make):
    """One pick per greedily packed constraint certifies the same rank and
    generating set, and reports the same bound, as one pick per minimal
    constraint checked against the disjoint count."""
    t = make(table)
    got, want = rank_oracle(t), rank_oracle_reference(t)
    assert (got.rank, got.certified, got.generating_set, got.notes) == (
        want.rank, want.certified, want.generating_set, want.notes
    )


LAYER_TABLES = [
    pytest.param(lambda table, c=(n, p, quotient, lo): table(*c),
                 id=f"{'ss-prime' if p is None else 'quotient' if quotient else 'ideal'}-n{n}"
                    + (f"-p{p}" if p else "") + f"-lo{lo}")
    for n in range(2, 7)
    for p, quotient in [(None, False)] + [(p, q) for p in range(1, n) for q in (False, True)]
    for lo in range(p if quotient else 1, (p or n - 1) + 1)
]

COLLAPSED_TABLES = LAYER_TABLES + [
    pytest.param(
        lambda table: build_table([a for a in all_partial_maps(3) if a.height() == 2],
                                  collapse_below=2),
        id="height-2-partial-maps-n3",
    ),
]


@pytest.mark.parametrize("make", COLLAPSED_TABLES)
def test_collapsed_class_rows_keep_one_zero_class(table, make):
    """Under a Rees collapse each row has at most one class whose product is
    the zero, on layer tables and on a table of maps that are not isotone,
    and the rows gathered from the classes equal each entry composed and
    collapsed by ``products``."""
    t = make(table)
    zi = t.zero_index
    for _, _, composed in t.class_rows():
        assert list(composed).count(zi) <= 1
    columns = range(len(t))
    assert [list(row) for row in t.full_table()] == [t.products(i, columns) for i in columns]


QUOTIENTS = [
    pytest.param(n, p, id=f"quotient-n{n}-p{p}") for n in range(2, 7) for p in range(1, n)
]


@pytest.mark.parametrize("n, p", QUOTIENTS)
def test_zero_composes_as_the_empty_map(table, n, p):
    """The zero is composed as the empty map: its class row is one class,
    of every column, whose product is the zero, and every element times the
    zero, or the zero times it, is the zero."""
    t = table(n, p, quotient=True)
    zi, columns = t.zero_index, range(len(t))
    class_of, members, composed = t.class_rows()[zi]
    assert list(class_of) == [0] * len(t)
    assert [list(m) for m in members] == [list(columns)] and list(composed) == [zi]
    assert all(t.products(i, [zi]) == [zi] for i in columns)
    assert t.products(zi, columns) == [zi] * len(t)


@pytest.mark.parametrize("n", range(2, 8))
def test_generating_essentials_leave_no_constraint(n):
    """When the essentials E generate, every element outside E has a
    shortest expression over E whose first and last factors are in E, so
    no factor constraint avoids E and the oracle's candidate is E itself,
    on every target and layer table of SS'(n)."""
    generating = 0
    for label, t in target_and_layer_tables(n):
        essential = essential_elements(t)
        if len(closure_indices(t, essential)) == len(t):
            generating += 1
            assert as_sets(_factor_constraints(t, essential)) == [], label
            result = rank_oracle(t)
            assert result.certified and result.generating_set == tuple(sorted(essential)), label
    assert generating


@pytest.mark.parametrize("n", range(2, 8))
def test_packing_picks_match_the_frozenset_reference(n):
    """The packing over shared member arrays picks, in order, the least
    member of each constraint that the greedy packing of frozensets packs,
    on every target and layer table of SS'(n)."""
    for label, t in target_and_layer_tables(n):
        essential = essential_elements(t)
        constraints = _factor_constraints(t, essential)
        reference = factor_constraint_sets(t, essential)
        assert as_sets(constraints) == reference, label
        assert _disjoint_packing(constraints) == [
            min(c) for c in disjoint_packing_reference(reference)
        ], label


@pytest.mark.parametrize("target, p, lo", [("quotient", 3, 3), ("ideal", 4, 4)],
                         ids=["quotient-n8-p3", "ideal-n8-p4-lo4"])
def test_rank_oracle_holds_less_than_the_class_rows(target, p, lo):
    """Above the class rows it reads, the oracle's traced peak stays below
    the traced size of those rows: no constraint holds a union of the
    member arrays it shares with them."""
    t = target_table(8, target, p, lo)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        t.class_rows()
        rows = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert rank_oracle(t).certified
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < rows, (peak, rows)


@pytest.mark.parametrize("make", CLASS_SCAN_TARGETS + LAYER_TABLES)
def test_closure_indices_matches_reference(table, make):
    """Expanding each element once per distinct class of the generators in
    its row reaches the same elements as expanding it by every generator:
    from the essentials, from the oracle's generating set and from seeded
    random draws."""
    t = make(table)
    rng = random.Random(len(t))
    draws = [rng.sample(range(len(t)), min(len(t), k)) for k in (1, 2, 3, 5)]
    for gens in [essential_elements(t), rank_oracle(t).generating_set, *draws]:
        assert closure_indices(t, gens) == closure_indices_reference(t, gens)


def _layered_cases(n):
    return [pytest.param(n, "ss-prime", None, id=f"ss-prime-n{n}")] + [
        pytest.param(n, target, p, id=f"{target}-n{n}-p{p}")
        for target in ("ideal", "quotient")
        for p in range(1, n)
    ]


def _assert_layered_matches_whole(table, n, target, p):
    result, layers = rank_layered(n, target, p)
    t = table(n) if target == "ss-prime" else table(n, p, target == "quotient")
    want = rank_oracle(t)
    assert (result.rank, result.certified) == (want.rank, want.certified)
    assert sorted(layers.elements[i].encode() for i in result.generating_set) == sorted(
        t.elements[i].encode() for i in want.generating_set
    )


@pytest.mark.parametrize("n, target, p", [c for n in range(2, 8) for c in _layered_cases(n)])
def test_layered_rank_matches_the_whole_table_oracle(table, n, target, p):
    """The rank certified from the top layers equals the whole target's
    oracle: same rank, certification and generating set."""
    _assert_layered_matches_whole(table, n, target, p)


@pytest.mark.long
@pytest.mark.parametrize("n, target, p", [
    pytest.param(8, "ss-prime", None, id="ss-prime-n8"),
    pytest.param(8, "ideal", 1, id="ideal-n8-p1"),
    pytest.param(8, "ideal", 2, id="ideal-n8-p2"),
])
def test_layered_rank_matches_the_whole_table_oracle_n8(table, n, target, p):
    """The same at n = 8 where the whole-table oracle stays small: ideal
    (8,3) takes 665 MB there and (8,4)..(8,6) 1.7-2.7 GB, and a quotient's
    layered rank is the oracle on the quotient itself."""
    _assert_layered_matches_whole(table, n, target, p)


@pytest.mark.parametrize("n", range(3, 8))
def test_layered_rank_steps_down_to_height_n_minus_2(n):
    """The top height alone generates only injective maps, so SS'(n) and
    its top ideal K(n,n-1) are certified from heights n-2 and n-1."""
    for target, p in (("ss-prime", None), ("ideal", n - 1)):
        result, layers = rank_layered(n, target, p)
        assert layers.collapse_below == n - 2
        assert result.certified and result.rank == 3 * n - 4


def test_layered_rank_falls_back_to_the_whole_target(table, monkeypatch):
    """When no layer's generating set closes to the target, lo steps down
    to 0 and the whole target's oracle decides."""
    monkeypatch.setattr(schroeder.rank, "closure_vectors", lambda gens: set())
    result, t = rank_layered(5, "ideal", 3)
    assert t.collapse_below is None and len(t) == len(table(5, 3))
    assert result == rank_oracle(table(5, 3))


@pytest.mark.parametrize("target, p", [("ss-prime", None), ("quotient", 2)],
                         ids=["ss-prime-n6", "quotient-n5-p2"])
def test_rank_oracle_builds_no_product_table(target, p):
    t = target_table(6 if p is None else 5, target, p)
    assert rank_oracle(t).certified
    assert t._rows is None


def test_closure_basics():
    a = PartialMap.of(3, {2: 1, 3: 2})
    got = closure([a])
    # a, a^2 = {3->1}, a^3 = empty
    assert got == {a, PartialMap.of(3, {3: 1}), PartialMap.empty(3)}
    assert closure([]) == set()
    assert closure_vectors([]) == set()


def closure_reference(generators):
    """Least composition-closed superset, by a search over the pair-by-pair
    ``compose_reference``."""
    seen = set(generators)
    work = list(seen)
    while work:
        a = work.pop()
        for g in generators:
            c = compose_reference(a, g)
            if c not in seen:
                seen.add(c)
                work.append(c)
    return seen


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closure_matches_compose_reference_on_random_maps(n):
    """Seeded generator sets drawn from every partial map of {1..n}: maps
    with 1 in the domain, maps that are not isotone, repeated maps."""
    maps = list(all_partial_maps(n))
    rng = random.Random(n)
    drawn = set()
    for _ in range(40):
        gens = rng.choices(maps, k=rng.randint(1, 4))
        drawn.update(gens)
        expected = closure_reference(gens)
        assert closure(gens) == expected
    assert any(1 in a.domain() for a in drawn)
    assert n == 1 or any(not a.is_isotone() for a in drawn)


def merges_restrictions(generators, reached):
    """Whether two generators compose to one product with some reached
    nonempty map, so that they share a restriction class of its image."""
    return any(len({a * g for g in generators}) < len(generators) for a in reached if a.height())


@pytest.mark.parametrize("n", range(2, 7))
def test_closure_matches_compose_reference_on_ss_prime(ss, n):
    """The minimum generators, the top height, the idempotents, and the
    idempotents with the requisites."""
    idems = [a for a in ss(n) if a.is_idempotent()]
    reqs = [a for a in ss(n) if is_requisite(a)]
    for gens in (ss_prime_minimal_generators(n), [a for a in ss(n) if a.height() == n - 1],
                 idems, idems + reqs):
        expected = closure_reference(gens)
        assert closure(gens) == expected
        assert closure_vectors(gens) == {a.vector for a in expected}
        assert n < 3 or merges_restrictions(gens, expected)


G_CASES = [(n, p) for n in range(2, 8) for p in range(1, n)]


@pytest.mark.parametrize(
    "n, p",
    [pytest.param(n, p, marks=pytest.mark.long) if (n, p) in {(7, 3), (7, 4)} else (n, p)
     for n, p in G_CASES],
    ids=[f"n{n}-p{p}" for n, p in G_CASES],
)
def test_closure_matches_reference_on_generating_set_G(n, p):
    gens = sorted(generating_set_G(n, p))
    expected = closure_reference(gens)
    assert closure(gens) == expected
    assert merges_restrictions(gens, expected)


def test_closure_matches_reference_on_large_random_draws():
    """Seeded draws of 10-40 maps from every partial map of {1..4}: many
    generators share a restriction to each image."""
    maps = list(all_partial_maps(4))
    rng = random.Random(4)
    for _ in range(12):
        gens = rng.sample(maps, rng.randint(10, 40))
        expected = closure_reference(gens)
        assert closure(gens) == expected
        assert merges_restrictions(gens, expected)


def test_closure_rejects_mixed_or_oversized_n():
    with pytest.raises(ValueError, match="ambient size mismatch"):
        closure([PartialMap.of(3, {2: 1}), PartialMap.of(4, {2: 1})])
    with pytest.raises(ValueError, match="n <= 255"):
        closure([PartialMap.of(256, {2: 1})])
    assert closure([PartialMap.of(255, {255: 1})]) == {
        PartialMap.of(255, {255: 1}), PartialMap.empty(255)
    }


def test_hot_paths_do_not_compose_partial_maps(monkeypatch, ss):
    """closure, verify_theorem_hq and the rank oracle compose byte vectors
    and wrap the products unchecked: none of them reaches the validating
    constructor ``PartialMap(n, pairs)`` or checks a vector with
    ``from_vector``, and only the enumeration of SS'(4) in verify_theorem_hq
    wraps scanned vectors, one per element.  The generators and the table
    are built first."""
    gens = ss_prime_minimal_generators(5)
    t = target_table(4, "ss-prime")
    size = len(ss(4))
    wrap = schroeder.families._wrap
    wrapped = []

    def refuse(self, n, pairs):
        raise AssertionError("validating constructor reached from a hot path")

    def refuse_check(cls, vector):
        raise AssertionError("a vector checked again on a hot path")

    def counted(vector):
        wrapped.append(vector)
        return wrap(vector)

    monkeypatch.setattr(PartialMap, "__init__", refuse)
    monkeypatch.setattr(PartialMap, "from_vector", classmethod(refuse_check))
    monkeypatch.setattr(schroeder.families, "_wrap", counted)
    assert len(closure(gens)) == 197
    assert not wrapped
    assert verify_theorem_hq(4)
    assert len(wrapped) == size
    result = rank_oracle(t)
    assert result.certified and result.rank == 8
    assert len(wrapped) == size


def test_closure_indices_respects_quotient(table):
    t = table(4, 2, quotient=True)
    gens = [i for i in range(len(t)) if i != t.zero_index]
    reached = closure_indices(t, gens)
    assert t.zero_index in reached  # collapse products land on zero


def test_essential_elements_are_required(table):
    """Dropping any essential element from the full element set loses it."""
    for n in (3, 4):
        t = table(n)
        ess = essential_elements(t)
        assert ess  # never empty here
        everything = set(range(len(t)))
        for e in ess:
            assert e not in closure_indices(t, everything - {e})


def test_rank_oracle_small(table):
    r = rank_oracle(table(2))
    assert r.certified and r.rank == 2


def test_rank_oracle_certifies_quotients(table):
    for n in range(2, 6):
        for p in range(1, n):
            r = rank_oracle(table(n, p, quotient=True))
            assert r.certified
            assert r.rank == formula_rank_quotient(n, p)
            # the reported set really generates
            t = table(n, p, quotient=True)
            assert len(closure_indices(t, r.generating_set)) == len(t)


def test_rank_oracle_certifies_ideals(table):
    for n in range(3, 6):
        for p in range(1, n - 1):
            r = rank_oracle(table(n, p))
            assert r.certified
            assert r.rank == formula_rank_ideal(n, p)


def test_rank_oracle_is_honest_when_constraints_overlap():
    """On all partial maps of {1,2,3} no element is essential and the
    factor constraints overlap: one pick per packed constraint meets the
    disjoint-constraint bound but does not generate, so nothing is
    certified."""
    r = rank_oracle(build_table(all_partial_maps(3), verify=False))
    assert r.certified is False
    assert r.rank is None
    assert r.generating_set == ()
    assert "lower bound 3" in r.notes


@pytest.mark.parametrize("n", range(2, 7))
def test_minimal_constraints_are_pairwise_disjoint(table, n):
    """The oracle's certificate is complete on the paper's targets because
    the minimal constraints left after the essentials never share an
    element: the disjoint count is then the minimum hitting set."""
    counts = []
    for p in range(1, n):
        for quotient in (False, True):
            t = table(n, p, quotient)
            essential = essential_elements(t)
            minimal = minimal_constraints(as_sets(_factor_constraints(t, essential)))
            assert sum(map(len, minimal)) == len(frozenset().union(*minimal))
            counts.append(len(minimal))
    assert n < 4 or max(counts) > 1  # from n=4 on there is something to overlap


def test_quotient_rank_formula_values():
    assert formula_rank_quotient(4, 2) == 8
    assert formula_rank_quotient(5, 2) == 21
    # at the top height the quotient rank is n
    for n in range(2, 9):
        assert formula_rank_quotient(n, n - 1) == n
    with pytest.raises(ValueError):
        formula_rank_quotient(4, 0)


def test_ideal_rank_formula_range():
    assert formula_rank_ideal(4, 2) == 8
    assert formula_rank_ideal(5, 2) == 21
    with pytest.raises(ValueError):
        formula_rank_ideal(4, 3)  # the top ideal is the whole semigroup


def test_generating_set_G_generates_quotient(table):
    for n in (3, 4, 5):
        for p in range(1, n):
            t = table(n, p, quotient=True)
            gens = {t.index_of(a) for a in generating_set_G(n, p)}
            assert closure_indices(t, gens) == set(range(len(t)))


def test_semigroup_rank(table):
    for n in range(2, 6):
        r = rank_oracle(table(n))
        assert r.certified
        assert r.rank == 3 * n - 4


def test_minimal_generators(ss):
    for n in range(2, 8):
        gens = ss_prime_minimal_generators(n)
        assert len(gens) == 3 * n - 4
        assert closure(gens) == set(ss(n))


def test_factor_via_requisite_round_trip(ss):
    for n in range(2, 7):
        for a in ss(n):
            if not a.pairs:
                continue
            if a.image()[0] != 1:
                with pytest.raises(ValueError):
                    factor_via_requisite(a)
                continue
            b, req = factor_via_requisite(a)
            assert is_requisite(req)
            assert req.image() == a.image()
            assert b.kernel() == a.kernel()
            assert b * req == a


def test_lift_requisite_round_trip(ss):
    for n in range(3, 7):
        for a in ss(n):
            if not is_requisite(a):
                continue
            if a.height() > n - 3:
                with pytest.raises(ValueError):
                    lift_requisite(a)
                continue
            beta, gamma = lift_requisite(a)
            assert beta.is_idempotent()
            assert is_requisite(gamma)
            assert beta.height() == gamma.height() == a.height() + 1
            assert beta * gamma == a


def test_ss1_witnesses():
    for n in range(4, 9):
        assert verify_ss1_witnesses(n)


def test_idempotents_plus_requisites_generate():
    for n in range(2, 8):
        assert verify_theorem_hq(n)


def test_injectivity_barrier(ss):
    """The top height slice generates only injective maps, so the slice one
    height down is out of reach."""
    for n in range(3, 8):
        top = [a for a in ss(n) if a.height() == n - 1]
        gen = closure(top)
        assert all(a.is_injective() for a in gen)
        below = {a for a in ss(n) if a.height() == n - 2}
        assert not below <= gen
