import importlib
import random
import tracemalloc
from array import array
from itertools import chain

import pytest
from green_reference import (
    compose_relations,
    left_cayley_reference,
    partition_as_relation,
    partition_reference,
    regular_indices,
    relations_equal,
    right_cayley_reference,
    scc_reference,
)
from pmap_reference import all_partial_maps, compose_reference

from schroeder import (
    ZERO,
    EqPartition,
    Family,
    FamilySpec,
    PartialMap,
    abundance_report,
    build_table,
    enumerate_family,
    green,
    starred_characterized,
    starred_definitional,
)
from schroeder.green import _scc_partition, target_table


# -- slow references on the full |S|^2 product table ----------------------


def green_reference(table, which):
    """Green's relations from principal-ideal reachability over every
    product: L (R, J) is mutual reachability under all left (right, both)
    multiplications; H = L intersect R; D is the equivalence generated by
    L and R, the components of the graph joining each element to its L- and
    R-class."""
    rows = table.full_table()
    size = len(table)
    if which == "L":
        return _scc_partition(size, lambda i: [row[i] for row in rows])
    if which == "R":
        return _scc_partition(size, rows.__getitem__)
    if which == "J":
        return _scc_partition(size, lambda i: [row[i] for row in rows] + list(rows[i]))
    L, R = green_reference(table, "L"), green_reference(table, "R")
    if which == "H":
        return EqPartition.from_keys(list(zip(L.class_id, R.class_id)))
    return _scc_partition(size, lambda i: L.class_of(i) + R.class_of(i))


def product_reference(table, i, j):
    """Index of i*j by composing the maps with ``compose_reference``,
    collapsing a product of height below ``collapse_below`` to the zero, and
    looking the result up; a missing product raises KeyError."""
    a, b = table.elements[i], table.elements[j]
    if a is ZERO or b is ZERO:
        return table.zero_index
    c = compose_reference(a, b)
    if table.collapse_below is not None and c.height() < table.collapse_below:
        return table.zero_index
    return table.index_of(c)


def regular_reference(table):
    """Indices a with a b a == a for some b, by scanning every b."""
    rows = table.full_table()
    size = len(table)
    return [i for i in range(size) if any(rows[rows[i][b]][i] == i for b in range(size))]


TARGETS = [(n, None, False) for n in range(2, 7)] + [
    (n, p, quotient)
    for n in range(2, 6)
    for p in range(1, n)
    for quotient in (False, True)
]


def _target_id(case):
    n, p, quotient = case
    if p is None:
        return f"ss-prime-n{n}"
    return f"{'quotient' if quotient else 'ideal'}-n{n}-p{p}"


@pytest.mark.parametrize("case", TARGETS, ids=_target_id)
def test_green_matches_table_reference(table, case):
    t = table(*case)
    for which in "LRHDJ":
        assert green(t, which) == green_reference(t, which), which


@pytest.mark.parametrize(
    "elements",
    [
        pytest.param(lambda: enumerate_family(FamilySpec(Family.LS, 4)), id="ls-n4"),
        # all partial maps of {1,2,3}: not R-trivial, and J differs from L
        pytest.param(lambda: all_partial_maps(3), id="all-partial-maps-n3"),
    ],
)
def test_green_matches_table_reference_without_seed(elements):
    """These hold maps of height n, so no seed applies and the greedy
    completion alone finds the generating set."""
    t = build_table(elements(), verify=False)
    for which in "LRHDJ":
        assert green(t, which) == green_reference(t, which), which


CAYLEY_CASES = [
    pytest.param(lambda n=n: target_table(n, "ss-prime"), id=f"ss-prime-n{n}") for n in range(2, 7)
] + [
    pytest.param(lambda n=n, t=t, p=p: target_table(n, t, p), id=f"{t}-n{n}-p{p}")
    for n in range(2, 7)
    for p in range(1, n)
    for t in ("ideal", "quotient")
] + [
    # no seed applies to these, so the greedy completion merges batches
    pytest.param(lambda: build_table(enumerate_family(FamilySpec(Family.LS, 4)), verify=False),
                 id="ls-n4"),
    pytest.param(lambda: build_table(all_partial_maps(3), verify=False),
                 id="all-partial-maps-n3"),
]


@pytest.mark.parametrize("make", CAYLEY_CASES)
def test_cayley_graphs_match_one_successor_per_generator(make):
    """The graphs of distinct successors, right rows composed once per
    restriction class, against the graphs with one successor per
    generator: the same generators, the same successor set in every row,
    no repeat in a row, and the same L/R/H/D/J partitions."""
    t, ref = make(), make()
    ref._gens, ref._right = right_cayley_reference(ref)
    ref._left = left_cayley_reference(ref, ref._gens)
    right, left = t.right_cayley(), t.left_cayley()
    assert t._gens == ref._gens
    for x in range(len(t)):
        assert len(set(right[x])) == len(right[x]), x
        assert len(set(left[x])) == len(left[x]), x
        assert set(right[x]) == set(ref._right[x]), x
        assert set(left[x]) == set(ref._left[x]), x
    for which in "LRHDJ":
        assert green(t, which) == green(ref, which), which


def test_left_graph_holds_no_block_of_generator_rows():
    """Above the built right graph, the left graph's traced peak stays
    below |A| x |S| pointers, the rows of products one per generator would
    hold, on ideal (8,4): 18,377 elements and 244 generators."""
    t = target_table(8, "ideal", 4)
    t.right_cayley()
    block = len(t._gens) * len(t) * 8
    assert (len(t), len(t._gens)) == (18377, 244)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        t.left_cayley()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < block, (peak, block)


def test_tables_graphs_and_the_oracle_wrap_no_map(monkeypatch):
    """A table, its rank oracle and its Cayley graphs read only byte
    vectors: none wraps a vector in a map."""
    green_module = importlib.import_module("schroeder.green")
    rank_module = importlib.import_module("schroeder.rank")

    def refuse(v):
        raise AssertionError(f"wrapped {v!r}")

    monkeypatch.setattr(green_module, "_wrap", refuse)
    for target, p in [("ss-prime", None), ("ideal", 3), ("quotient", 3)]:
        t = target_table(6, target, p)
        assert rank_module.rank_oracle(t).certified
        green(t, "D")


@pytest.mark.parametrize(
    "make",
    [pytest.param(lambda table, case=c: table(*case), id=_target_id(c))
     for c in TARGETS if c[0] <= 5]
    + [pytest.param(
        lambda table: build_table(enumerate_family(FamilySpec(Family.LS, 4)), verify=False),
        id="ls-n4",
    )],
)
def test_full_table_matches_compose_reference(table, make):
    """Every entry of the memoized rows equals the product composed
    directly, Rees collapse included."""
    t = make(table)
    rows = t.full_table()
    size = len(t)
    assert len(rows) == size
    for i, row in enumerate(rows):
        assert list(row) == [product_reference(t, i, j) for j in range(size)], i


def test_full_table_rejects_non_closed():
    # the empty map is a product of two of the other partial maps of {1,2,3}
    elements = [a for a in all_partial_maps(3) if a.pairs]
    t = build_table(elements, verify=False)
    with pytest.raises(ValueError, match="not closed"):
        t.full_table()


@pytest.mark.parametrize("case", [c for c in TARGETS if c[0] <= 5], ids=_target_id)
def test_regular_matches_reference(table, case):
    t = table(*case)
    assert regular_indices(t) == regular_reference(t)


def test_green_builds_no_product_table():
    t = target_table(6, "ss-prime")
    for which in "LRHDJ":
        green(t, which)
    regular_indices(t)
    t.idempotent_indices()
    assert t._rows is None
    assert t._classes is None  # the Cayley graphs never group every column


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_seed_gives_the_minimal_generating_set(n):
    """Seeded with the 3n-4 minimum generators, the search adds none; the
    greedy completion alone picks 86 generators at n=6 and makes the
    graphs several times larger."""
    t = target_table(n, "ss-prime")
    t.right_cayley()
    assert len(t._gens) == 3 * n - 4


def test_small_table_skips_the_seed(monkeypatch):
    """Seeding walks height slices of SS'(n), and a middle slice is a large
    share of its maps (13.6 million at n=12); a table of one element skips
    the seed whatever its height."""
    green_module = importlib.import_module("schroeder.green")

    def unaffordable(*args):
        raise AssertionError("seed computed for a one-element table")

    monkeypatch.setattr(green_module, "ss_prime_minimal_generators", unaffordable)
    monkeypatch.setattr(green_module, "generating_set_G", unaffordable)
    t = build_table([PartialMap.of(12, {i: i for i in range(2, 13)})])
    assert green(t, "J").num_classes() == 1


def test_seed_rule_reads_no_closed_form():
    """The seed rule counts the slices it walks with ``height_counts``; the
    Cayley graphs behind the rank and Green's checks use no closed form."""
    assert "schroeder_small" not in vars(importlib.import_module("schroeder.green"))


def test_build_table_rejects_a_collapse_below_height_1():
    """Below height 1 no product collapses, so the zero would be composed
    as an ordinary empty map."""
    a = PartialMap.of(3, {2: 2, 3: 3})
    with pytest.raises(ValueError, match="height >= 1"):
        build_table([a, PartialMap.empty(3)], collapse_below=0)


@pytest.mark.parametrize("n", [0, -2])
def test_target_table_needs_a_point(n):
    with pytest.raises(ValueError, match=f"n={n}"):
        target_table(n, "ss-prime")


def _random_digraph(rng, size):
    """Successor lists with self-loops, repeated successors and, at low
    edge counts, isolated nodes."""
    successors = [[] for _ in range(size)]
    for _ in range(rng.randrange(3 * size + 1)):
        successors[rng.randrange(size)].append(rng.randrange(size))
    return successors


# the shapes the relations give: L/R rows, D's step pairs, J's chained rows
SUCCESSOR_SHAPES = {
    "list": lambda lists: lists.__getitem__,
    "array": lambda lists: [array("I", s) for s in lists].__getitem__,
    "tuple": lambda lists: [tuple(s) for s in lists].__getitem__,
    "chain": lambda lists: lambda v: chain(lists[v][::2], lists[v][1::2]),
}


@pytest.mark.parametrize("shape", SUCCESSOR_SHAPES)
def test_scc_matches_reference_on_random_digraphs(shape):
    rng = random.Random(f"scc-{shape}")
    for _ in range(400):
        lists = _random_digraph(rng, rng.randint(1, 30))
        got = _scc_partition(len(lists), SUCCESSOR_SHAPES[shape](lists))
        assert got == scc_reference(len(lists), lists.__getitem__), lists


@pytest.mark.parametrize("cycle", [False, True], ids=["chain", "cycle"])
def test_scc_needs_no_recursion(cycle):
    """A path 100,000 nodes deep, far past the interpreter's recursion
    limit: every node alone, or all in one class when the path closes."""
    size = 100_000
    part = _scc_partition(size, lambda v: (v + 1,) if v + 1 < size else (0,) * cycle)
    if cycle:
        assert part.classes == (tuple(range(size)),)
    else:
        assert part.is_identity() and part.class_id == tuple(range(size))


def test_from_keys_numbers_classes_by_smallest_member():
    """Keys first seen out of their own order: the classes still come by
    smallest member, as a sort of the groups puts them."""
    keys = [7, "b", 7, 3, "b", 0, 3, 7, ("x",), 0]
    got = EqPartition.from_keys(keys)
    want = partition_reference(keys)
    assert got.class_id == want.class_id == (0, 1, 0, 2, 1, 3, 2, 0, 4, 3)
    assert got.classes == want.classes


@pytest.mark.parametrize("seed", range(4))
def test_from_keys_matches_the_sorted_grouping(seed):
    """Seeded keys drawn from one value, a few, many, and all distinct (all
    singletons), and no keys at all: the classes and ids of the sort."""
    rng = random.Random(seed)
    size = rng.randrange(1, 2000)
    cases = [[rng.randrange(k) for _ in range(size)] for k in (1, 5, size)]
    cases += [rng.sample(range(size), size), []]
    for keys in cases:
        got = EqPartition.from_keys(keys)
        assert got == partition_reference(keys), keys
        assert all(type(members) is tuple for members in got.classes)


@pytest.mark.parametrize("p", [1, 3])
def test_target_table_of_ss_prime_takes_no_height(p):
    with pytest.raises(ValueError, match=f"takes no height p .*p={p}"):
        target_table(5, "ss-prime", p)


@pytest.mark.parametrize("which", "LRJ")
def test_green_rejects_non_closed(which):
    # {2->1, 3->2} squared is {3->1}, missing from this set
    t = build_table([PartialMap.of(3, {2: 1, 3: 2})], verify=False)
    with pytest.raises(ValueError, match="not closed"):
        green(t, which)


def test_build_table_rejects_non_closed():
    # {2->1, 3->2} squared is {3->1}, missing from this set
    a = PartialMap.of(3, {2: 1, 3: 2})
    with pytest.raises(ValueError, match="not closed"):
        build_table([a])


@pytest.mark.parametrize("n", range(2, 7))
def test_target_table_matches_the_filtered_semigroup(ss, n):
    """Each target built from its own family equals the table of the
    enumerated SS'(n) filtered by height: same elements, zero and class
    rows."""
    def reference(target, p):
        if target == "ss-prime":
            return build_table(ss(n), verify=False)
        if target == "ideal":
            return build_table([a for a in ss(n) if a.height() <= p], verify=False)
        return build_table([a for a in ss(n) if a.height() == p], collapse_below=p,
                           verify=False)

    cases = [("ss-prime", None)] + [(t, p) for t in ("ideal", "quotient") for p in range(1, n)]
    for target, p in cases:
        got, want = target_table(n, target, p), reference(target, p)
        assert got.elements == want.elements, (target, p)
        assert got.zero_index == want.zero_index, (target, p)
        assert got.class_rows() == want.class_rows(), (target, p)


@pytest.mark.parametrize("n", range(2, 7))
def test_layer_tables_match_the_filtered_semigroup(ss, n):
    """The layer table of heights lo..top of a target equals the table of
    the enumerated SS'(n) filtered to those heights and collapsed below lo:
    same elements in encode order, zero and class rows."""
    for top in range(1, n):
        for lo in range(1, top + 1):
            want = build_table([a for a in ss(n) if lo <= a.height() <= top],
                               collapse_below=lo, verify=False)
            targets = [("ideal", top)] + ([("ss-prime", None)] if top == n - 1 else [])
            targets += [("quotient", top)] if lo == top else []
            for target, p in targets:
                got = target_table(n, target, p, lo)
                assert got.elements == want.elements, (target, p, lo)
                assert got.collapse_below == lo and got.zero_index == want.zero_index
                assert got.class_rows() == want.class_rows(), (target, p, lo)


def test_target_table_is_one_scan_and_sorts_nothing(monkeypatch):
    """Every target and lo at n <= 6: one scan of heights lo..top, and no
    ``encode()`` call, so no sort by it."""
    green_module = importlib.import_module("schroeder.green")
    height_blocks = green_module._height_blocks
    scans = []

    def counted(n, lo, hi):
        scans.append((n, lo, hi))
        return height_blocks(n, lo, hi)

    def refuse(self):
        raise AssertionError("target_table called encode()")

    monkeypatch.setattr(green_module, "_height_blocks", counted)
    monkeypatch.setattr(PartialMap, "encode", refuse)
    for n in range(2, 7):
        cases = [("ss-prime", None, n - 1)]
        cases += [(t, p, p) for t in ("ideal", "quotient") for p in range(1, n)]
        for target, p, top in cases:
            for lo in range(p if target == "quotient" else 0, top + 1):
                scans.clear()
                target_table(n, target, p, lo)
                assert scans == [(n, lo, top)], (target, p, lo)


@pytest.mark.parametrize(
    "make",
    [pytest.param(lambda n=n, t=t, p=p, lo=lo: target_table(n, t, p, lo), id=f"{t}-n{n}-p{p}-lo{lo}")
     for n in range(1, 6)
     for t, p, top in [("ss-prime", None, n - 1)]
     + [(t, p, p) for t in ("ideal", "quotient") for p in range(1, n)]
     for lo in range(p if t == "quotient" else 0, top + 1)]
    + [pytest.param(lambda: build_table(enumerate_family(FamilySpec(Family.LS, 4)), verify=False),
                    id="ls-n4"),
       pytest.param(lambda: build_table(all_partial_maps(3), verify=False),
                    id="all-partial-maps-n3")],
)
def test_table_layout_follows_its_vectors_and_cut(make):
    """A table puts the zero first exactly when it has a cut, composes the
    zero as the empty map, and keys every element once in ``_index``, each
    map by the vector it is composed by."""
    t = make()
    n = t.n
    assert (t.zero_index == 0) == (t.collapse_below is not None)
    assert t.zero_index in (0, None)
    if t.zero_index is not None:
        assert t.elements[0] is ZERO and t._vectors[0] == bytes(n + 1)
        assert t.index_of(ZERO) == 0
    for i, a in enumerate(t.elements):
        if i != t.zero_index:
            assert a.vector == t._vectors[i] and t.index_of(a) == i, i
    assert len(t._index) == len(t.elements) == len(t._vectors)


def test_build_table_rejects_an_empty_set():
    with pytest.raises(ValueError, match="^empty element set$"):
        build_table([])


def test_product_builds_no_class_rows(ss):
    t = build_table(ss(5))
    a, b = ss(5)[7], ss(5)[30]
    assert t.elements[t.product(t.index_of(a), t.index_of(b))] == a * b
    assert t._classes is None


def test_target_table_rejects_heights_outside_the_target():
    with pytest.raises(ValueError, match="heights 2..2, not 1"):
        target_table(4, "quotient", 2, 1)
    with pytest.raises(ValueError, match="heights 0..3, not 4"):
        target_table(4, "ss-prime", None, 4)


def test_build_table_lazy_verification(ss):
    t = build_table([PartialMap.of(3, {2: 1, 3: 2})], verify=False)
    with pytest.raises(ValueError, match="not closed"):
        t.product(0, 0)


def test_quotient_collapses_to_zero(ss):
    t = build_table(
        [a for a in ss(4) if a.height() == 2], collapse_below=2, verify=False
    )
    assert t.elements[0] is ZERO
    z = t.zero_index
    # zero absorbs
    assert t.product(z, 1) == z and t.product(1, z) == z
    # some product of two height-2 maps drops height and lands on zero
    size = len(t)
    assert any(
        t.product(i, j) == z for i in range(1, size) for j in range(1, size)
    )


def test_green_r_trivial(table):
    for n in (2, 3, 4, 5):
        t = table(n)
        assert green(t, "R").is_identity()
        assert green(t, "H") == green(t, "R")


def test_green_d_equals_l_equals_j(table):
    for n in (2, 3, 4, 5):
        t = table(n)
        L = green(t, "L")
        assert green(t, "D") == L
        assert green(t, "J") == L


def test_green_l_matches_image_and_block_mins(table):
    """Two maps are L-related iff they share image and per-block minima."""
    for n in (3, 4, 5):
        t = table(n)
        L = green(t, "L")
        keys = [(a.image(), tuple(map(a.vector.index, a.image()))) for a in t.elements]
        grouped = {}
        for i, k in enumerate(keys):
            grouped.setdefault(k, []).append(i)
        assert sorted(map(tuple, grouped.values())) == sorted(L.classes)


def test_green_small_example(table):
    t = table(3)
    i = t.index_of(PartialMap.of(3, {2: 1, 3: 2}))
    j = t.index_of(PartialMap.of(3, {2: 1}))
    assert not green(t, "L").same_class(i, j)


def test_regular_iff_idempotent(table):
    for n in (2, 3, 4, 5):
        t = table(n)
        assert set(regular_indices(t)) == set(t.idempotent_indices())


def test_starred_definitional_matches_characterized(table):
    for n in (2, 3, 4):
        t = table(n)
        for which in ("Lstar", "Rstar"):
            assert starred_definitional(t, which) == starred_characterized(t, which)


@pytest.mark.long
def test_starred_definitional_matches_characterized_n5(table):
    t = table(5)
    for which in ("Lstar", "Rstar"):
        assert starred_definitional(t, which) == starred_characterized(t, which)


def test_starred_relations_on_quotient(table):
    """In a quotient the zero sits alone in every starred class."""
    t = table(4, 2, quotient=True)
    for which in ("Lstar", "Rstar", "Hstar", "Dstar"):
        part = starred_characterized(t, which)
        assert part.class_of(t.zero_index) == (t.zero_index,)


def test_hstar_is_equality(table):
    assert starred_characterized(table(4), "Hstar").is_identity()


def test_dstar_counts_heights(table):
    for n in (3, 4, 5):
        assert starred_characterized(table(n), "Dstar").num_classes() == n


def test_relation_composition(table):
    """D* is each alternating triple composite, yet the two double
    composites differ."""
    for n in (4, 5):
        t = table(n)
        L = partition_as_relation(starred_characterized(t, "Lstar"))
        R = partition_as_relation(starred_characterized(t, "Rstar"))
        D = partition_as_relation(starred_characterized(t, "Dstar"))
        lrl = compose_relations(compose_relations(L, R), L)
        rlr = compose_relations(compose_relations(R, L), R)
        assert relations_equal(lrl, D)
        assert relations_equal(rlr, D)
        lr = compose_relations(L, R)
        rl = compose_relations(R, L)
        assert not relations_equal(lr, rl)
        # the witness pair: related one way round but not the other
        i = t.index_of(PartialMap.of(n, {2: 2, 3: 3}))
        j = t.index_of(PartialMap.of(n, {2: 2, 4: 4}))
        assert ((i, j) in lr) != ((i, j) in rl)


def test_abundance(table):
    for n in (2, 3, 4, 5, 6):
        rep = abundance_report(table(n))
        assert rep.right_abundant
        assert rep.unique_idempotent_per_rstar
        assert not rep.left_abundant
        assert rep.lstar_witness is not None


def test_abundance_witness_has_no_idempotent(table):
    t = table(4)
    rep = abundance_report(t)
    for i in rep.lstar_witness:
        a = t.elements[i]
        assert not a.is_idempotent()


# -- starred relations and abundance on ideals and quotients ----------------


HEIGHT_TARGETS = [(n, p, quotient) for n in range(2, 7) for p in range(1, n)
                  for quotient in (False, True)]


def join_reference(p, q):
    """The least equivalence containing both partitions, by union-find."""
    parent = list(range(len(p.class_id)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for part in (p, q):
        for members in part.classes:
            for i in members[1:]:
                parent[find(i)] = find(members[0])
    return EqPartition.from_keys([find(i) for i in range(len(parent))])


@pytest.mark.parametrize("case", HEIGHT_TARGETS, ids=_target_id)
def test_starred_characterized_matches_definitional_on_ideals_and_quotients(table, case):
    """At every (n, p) with n <= 6: the characterized L* and R* are the
    definitional ones, H* is their intersection and D* their join."""
    t = table(*case)
    lstar = starred_definitional(t, "Lstar")
    rstar = starred_definitional(t, "Rstar")
    assert starred_characterized(t, "Lstar") == lstar
    assert starred_characterized(t, "Rstar") == rstar
    hstar = EqPartition.from_keys(list(zip(lstar.class_id, rstar.class_id)))
    assert starred_characterized(t, "Hstar") == hstar
    assert starred_characterized(t, "Dstar") == join_reference(lstar, rstar)


def test_quotient_lstar_merges_the_images_holding_1(table):
    """In RSS'(3,2), 2:1,3:2 and 2:1,3:3 have different images, yet each
    sends every element of S to the zero, so they are L*-related."""
    t = table(3, 2, quotient=True)
    part = starred_characterized(t, "Lstar")
    assert part.num_classes() == 3
    i = t.index_of(PartialMap.of(3, {2: 1, 3: 2}))
    j = t.index_of(PartialMap.of(3, {2: 1, 3: 3}))
    assert part.same_class(i, j)


@pytest.mark.parametrize("case", [c for c in HEIGHT_TARGETS if c[0] <= 5], ids=_target_id)
def test_ideals_and_quotients_right_but_not_left_abundant(table, case):
    """The abundance theorem on K(n,p) and RSS'(n,p) from the definitional
    relations: every R*-class holds an idempotent, and an L*-class holds
    none, the witness that ``abundance_report`` names."""
    t = table(*case)
    idempotents = set(t.idempotent_indices())
    rstar = starred_definitional(t, "Rstar")
    lstar = starred_definitional(t, "Lstar")
    assert all(idempotents & set(members) for members in rstar.classes)
    witnesses = [members for members in lstar.classes if not idempotents & set(members)]
    assert witnesses
    rep = abundance_report(t)
    assert rep.right_abundant and not rep.left_abundant
    assert rep.lstar_witness == witnesses[0]
