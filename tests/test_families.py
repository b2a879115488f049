import itertools

import pytest
from families_reference import census_reference, scan_reference
from pmap_reference import all_partial_maps

from schroeder import (
    Family,
    FamilySpec,
    PartialMap,
    binom,
    count_idempotents,
    count_lstar_classes,
    count_rstar_classes,
    enumerate_family,
    formula_idempotents,
    formula_rstar_classes,
    member_ss_prime,
    schroeder_small,
    verify_identity_corollary,
)
import schroeder.families
from schroeder._census import key_census, split_point
from schroeder.families import _height_blocks, census, family_blocks, height_counts, ss_prime_minimal_generators
from schroeder.pmap import eps_1k, kernel_vector, requisite_from_image


def test_schroeder_small_values():
    assert [schroeder_small(n) for n in range(10)] == [
        1, 1, 3, 11, 45, 197, 903, 4279, 20793, 103049,
    ]


def test_enumeration_against_brute_force():
    """The direct tabular-form generator agrees with filtering all
    (n+1)^n partial maps."""
    for n in (2, 3, 4, 5):
        brute = sorted(
            (a for a in all_partial_maps(n) if member_ss_prime(a)),
            key=lambda a: a.encode(),
        )
        assert enumerate_family(FamilySpec(Family.SS_PRIME, n)) == brute


@pytest.mark.parametrize("kind", list(Family))
def test_enumeration_is_sorted_and_duplicate_free(kind):
    """``enumerate_family`` lists the scan as it comes, neither sorting nor
    deduplicating, so the scan itself must come sorted and never repeat a
    map."""
    needs_p = kind in (Family.IDEAL_K, Family.JSTAR_SLICE, Family.REQUISITE)
    for n in range(2, 8):
        heights = list(range(n)) if needs_p or kind is Family.IDEMPOTENTS else []
        if not needs_p:
            heights.append(None)
        for p in heights:
            codes = [a.encode() for a in enumerate_family(FamilySpec(kind, n, p))]
            assert codes == sorted(codes), (kind, n, p)
            assert len(set(codes)) == len(codes), (kind, n, p)


def fill_images_reference(n, blocks):
    """Every increasing choice of images a_1 < a_2 < ... with a_i <= min A_i
    for the given consecutive blocks A_1, A_2, ... of a domain."""
    mins = [b[0] for b in blocks]

    def rec(i, lo, acc):
        if i == len(blocks):
            yield acc
            return
        for a in range(lo, mins[i] + 1):
            yield from rec(i + 1, a + 1, acc + [a])

    for images in rec(0, 1, []):
        v = bytearray(n + 1)
        for value, block in zip(images, blocks):
            for d in block:
                v[d] = value
        yield PartialMap.from_vector(v)


def full_walk_reference(n, domain_pool):
    """Every isotone order-decreasing map with domain within the pool, from
    the block-cut form: the kernel classes of an isotone map are consecutive
    runs of its domain, so pick a domain, cut it into runs and fill in the
    images.  Maps come by domain size, domain, then number of blocks: the
    slow reference that each family, filtered by height, must equal."""
    yield PartialMap.empty(n)
    for r in range(1, len(domain_pool) + 1):
        for dom in itertools.combinations(domain_pool, r):
            for k in range(r):
                for cuts in itertools.combinations(range(1, r), k):
                    bounds = (0, *cuts, r)
                    blocks = [dom[bounds[i]:bounds[i + 1]] for i in range(k + 1)]
                    yield from fill_images_reference(n, blocks)


def family_reference(walks, kind, n, p):
    """Each family as the filter of one full walk, sorted by ``encode()``."""
    ss_prime, ls = walks
    if kind is Family.SS_PRIME:
        members = ss_prime
    elif kind is Family.LS:
        members = ls
    elif kind is Family.SS:
        members = [a for a in ls if 1 in a.domain()]
    elif kind is Family.IDEAL_K:
        members = [a for a in ss_prime if a.height() <= p]
    elif kind is Family.JSTAR_SLICE:
        members = [a for a in ss_prime if a.height() == p]
    elif kind is Family.IDEMPOTENTS:
        members = [a for a in ss_prime if (p is None or a.height() == p) and a.is_idempotent()]
    else:  # REQUISITE: one per image {1} + (p-1 points of {2..n})
        members = [requisite_from_image(n, (1, *rest))
                   for rest in itertools.combinations(range(2, n + 1), p - 1)] if p else []
    return sorted(members, key=lambda a: a.encode())


def assert_scan_matches_reference(walks, kind, n, p):
    """The scan lists the reference in ``encode()`` order, and each code it
    builds from its parent's is the encoding of the map it comes with."""
    blocks = list(family_blocks(FamilySpec(kind, n, p)))
    want = family_reference(walks, kind, n, p)
    assert [PartialMap.from_vector(v) for _, vecs in blocks for v in vecs] == want, (kind, n, p)
    assert [code for codes, _ in blocks for code in codes] == [a.encode() for a in want], (kind, n, p)


@pytest.mark.parametrize("n", range(2, 8))
def test_height_slices_match_the_filtered_full_walk(n):
    """Generating only the asked heights yields the filtered full walk in
    canonical text order, for every family and height."""
    walks = [list(full_walk_reference(n, pool)) for pool in (range(2, n + 1), range(1, n + 1))]
    for kind in Family:
        heights = [None] if kind not in schroeder.families._NEEDS_P else []
        if kind in schroeder.families._NEEDS_P or kind is Family.IDEMPOTENTS:
            heights += range(n)
        for p in heights:
            assert_scan_matches_reference(walks, kind, n, p)
            assert enumerate_family(FamilySpec(kind, n, p)) == family_reference(walks, kind, n, p)


def assert_blocks_match_reference(n, pool, lo, hi):
    """The blocks of the scan, end to end, are the reference walk, compared
    a slice at a time so that no band is held whole."""
    got = itertools.chain.from_iterable(
        zip(codes, vecs) for codes, vecs in schroeder.families._blocks(n, pool, lo, hi))
    want = scan_reference(n, pool, lo, hi)
    while True:
        chunk = list(itertools.islice(got, 4096))
        assert chunk == list(itertools.islice(want, 4096)), (n, pool, lo, hi)
        if not chunk:
            break


def pools(n):
    """The domain pools of the scan: {2..n} for SS'(n), {1..n} for LS(n)."""
    return tuple(range(2, n + 1)), tuple(range(1, n + 1))


@pytest.mark.parametrize("n", range(2, 9))
def test_blocks_match_the_reference_walk_on_every_band(n):
    """Without vectors the scan makes the same codes and no vector; without
    codes, the vectors of the codes-and-vectors scan and no code.  The pools
    are those of SS'(n) and LS(n), and the census's suffixes."""
    scan = schroeder.families._blocks
    for pool in (*pools(n), tuple(range(split_point(n), n + 1))):
        for lo in range(n + 1):
            for hi in range(lo, n + 1):
                assert_blocks_match_reference(n, pool, lo, hi)
                blocks = list(scan(n, pool, lo, hi, vectors=False))
                assert all(vecs is None for _, vecs in blocks)
                codes = [code for codes, _ in blocks for code in codes]
                assert codes == [code for code, _ in scan_reference(n, pool, lo, hi)], (n, pool, lo, hi)
                blocks = list(scan(n, pool, lo, hi, codes=False))
                assert all(codes is None for codes, _ in blocks)
                vectors = [v for _, vecs in blocks for v in vecs]
                assert vectors == [v for _, vecs in scan(n, pool, lo, hi) for v in vecs], (n, pool, lo, hi)


def edge_bands(n):
    """The bands from height 0, of one height, and up to height n."""
    return sorted({(0, h) for h in range(n + 1)} | {(h, h) for h in range(n + 1)}
                  | {(h, n) for h in range(n + 1)})


class Reader:
    """Blocks read back as parallel lists of a given length, however the
    blocks were cut."""

    def __init__(self, blocks):
        self.blocks, self.codes, self.vectors, self.at = iter(blocks), [], [], 0

    def take(self, k):
        codes, vectors = [], []
        while len(codes) < k:
            if self.at == len(self.codes):
                block = next(self.blocks, None)
                if block is None:
                    break
                (self.codes, self.vectors), self.at = block, 0
            end = self.at + k - len(codes)
            codes += self.codes[self.at:end]
            vectors += self.vectors[self.at:end]
            self.at = min(end, len(self.codes))
        return codes, vectors


@pytest.mark.parametrize("n", [
    9, pytest.param(10, marks=pytest.mark.long), pytest.param(11, marks=pytest.mark.long),
])
def test_blocks_match_the_reference_walk_where_points_cross_the_middle(n):
    """From n = 10 on, two-digit points sort before the one-digit ones, on
    both sides of the middle point where the subtree tables start.  A band's
    reference is the walk of every height filtered to the band, so one
    reference walk per pool, read a slice at a time, serves every band."""
    for pool in pools(n):
        scans = {band: Reader(schroeder.families._blocks(n, pool, *band)) for band in edge_bands(n)}
        walk = scan_reference(n, pool, 0, n)
        while chunk := list(itertools.islice(walk, 1 << 16)):
            codes = [code for code, _ in chunk]
            vectors = [v for _, v in chunk]
            heights = bytes(len(set(v)) - 1 for v in vectors)
            for (lo, hi), scan in scans.items():
                keep = heights.translate(bytes(lo <= h <= hi for h in range(256)))
                want = list(itertools.compress(codes, keep)), list(itertools.compress(vectors, keep))
                assert scan.take(len(want[0])) == want, (n, pool, lo, hi)
        for band, scan in scans.items():
            assert scan.take(1) == ([], []), (n, pool, band)


@pytest.mark.long
def test_scan_order_with_two_digit_points():
    """At n = 10 points and values reach two digits, so the text order puts
    "10:" before "1:" and "2:", and "1" before "10" and "2"; 1 is in the
    domain of LS.  Codes only: each code is checked against ``encode()`` at
    n <= 7, and SS'(10) is the part of LS(10) whose code avoids "1:"."""
    ls = sorted(a.encode() for a in full_walk_reference(10, range(1, 11)))
    ss_prime = [code for code in ls if not code.startswith("1:")]
    for kind, want in ((Family.LS, ls), (Family.SS_PRIME, ss_prime)):
        got = [code for codes, _ in family_blocks(FamilySpec(kind, 10)) for code in codes]
        assert got == want, kind


def test_small_family_listing():
    assert [a.encode() for a in enumerate_family(FamilySpec(Family.SS_PRIME, 2))] == [
        "-", "2:1", "2:2",
    ]


def test_large_family_contains_small():
    for n in (2, 3, 4):
        ls = set(enumerate_family(FamilySpec(Family.LS, n)))
        ssp = set(enumerate_family(FamilySpec(Family.SS_PRIME, n)))
        ss = set(enumerate_family(FamilySpec(Family.SS, n)))
        assert ssp <= ls
        assert ss <= ls
        assert not (ss & ssp)
        assert len(ls) == len(ss) + len(ssp)  # split by "1 in domain"


def test_both_halves_counted_by_schroeder():
    # both halves of the "1 in domain" split have the same count, so the
    # large family has 2 s_n members
    for n in (2, 3, 4, 5):
        assert len(enumerate_family(FamilySpec(Family.SS_PRIME, n))) == schroeder_small(n)
        assert len(enumerate_family(FamilySpec(Family.SS, n))) == schroeder_small(n)
        assert len(enumerate_family(FamilySpec(Family.LS, n))) == 2 * schroeder_small(n)


def test_ideal_and_slice_partition():
    n = 5
    ssp = enumerate_family(FamilySpec(Family.SS_PRIME, n))
    slices = [
        enumerate_family(FamilySpec(Family.JSTAR_SLICE, n, p)) for p in range(n)
    ]
    assert sum(len(s) for s in slices) == len(ssp)
    assert set(itertools.chain.from_iterable(slices)) == set(ssp)
    for p in range(n):
        ideal = enumerate_family(FamilySpec(Family.IDEAL_K, n, p))
        assert set(ideal) == {a for a in ssp if a.height() <= p}


@pytest.mark.parametrize("n", range(2, 9))
def test_height_counts_count_the_ideals(n):
    """The counting DP gives the order of every ideal K(n,top), top = 0..n-1,
    as enumerated: in particular |SS'(n)| at top = n-1."""
    counts = height_counts(n)
    for top in range(n):
        ideal = enumerate_family(FamilySpec(Family.IDEAL_K, n, top))
        assert sum(counts[: top + 1]) == len(ideal)


def test_height_counts_need_a_point():
    assert height_counts(1) == (1,)  # the empty map alone
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"n={n}"):
            height_counts(n)


def test_ideal_is_two_sided():
    n, p = 4, 2
    ssp = enumerate_family(FamilySpec(Family.SS_PRIME, n))
    ideal = set(enumerate_family(FamilySpec(Family.IDEAL_K, n, p)))
    for a in ideal:
        for s in ssp:
            assert a * s in ideal
            assert s * a in ideal


def test_idempotent_count_formula():
    for n in range(2, 8):
        assert count_idempotents(n) == formula_idempotents(n)


def test_idempotents_are_partial_identities():
    for n in (3, 4, 5):
        for e in enumerate_family(FamilySpec(Family.IDEMPOTENTS, n)):
            assert e.is_idempotent()
            # idempotents here fix a final segment of each kernel block value
            assert all(e(v) == v for v in e.image())


def test_requisite_family_size():
    for n in range(2, 8):
        for p in range(1, n):
            reqs = enumerate_family(FamilySpec(Family.REQUISITE, n, p))
            assert len(reqs) == binom(n - 1, p - 1)
            assert all(r.height() == p for r in reqs)
            assert len({r.image() for r in reqs}) == len(reqs)


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec(Family.SS_PRIME, 1)
    for kind in (Family.SS_PRIME, Family.SS, Family.LS):  # they take no height
        with pytest.raises(ValueError, match="takes no height"):
            FamilySpec(kind, 4, 2)
    assert FamilySpec(Family.IDEMPOTENTS, 4, 2).p == 2  # optional there
    with pytest.raises(ValueError):
        FamilySpec(Family.IDEAL_K, 4)  # needs p
    with pytest.raises(ValueError):
        FamilySpec(Family.IDEAL_K, 4, 4)  # p out of range


def test_binom_convention():
    assert binom(-1, -1) == 1
    assert binom(3, -1) == 0
    assert binom(0, -1) == 0
    assert binom(5, 2) == 10
    assert binom(2, 5) == 0


def test_class_count_formulas():
    for n in range(2, 7):
        for p in range(n):
            assert count_rstar_classes(n, p) == formula_rstar_classes(n, p)
        for p in range(1, n):
            assert count_lstar_classes(n, p) == binom(n, p)


def test_identity_corollary():
    for n in range(2, 13):
        assert verify_identity_corollary(n)


def test_p_zero_slice_is_empty_map_alone():
    for n in (2, 3, 4):
        assert enumerate_family(FamilySpec(Family.JSTAR_SLICE, n, 0)) == [
            PartialMap.empty(n)
        ]
        assert formula_rstar_classes(n, 0) == 1


def test_census_matches_count_references():
    for n in (2, 3, 4, 5, 6):
        counts = census(n)
        assert counts.order == schroeder_small(n)
        assert counts.kernels == tuple(count_rstar_classes(n, p) for p in range(n))
        assert counts.images[1:] == tuple(count_lstar_classes(n, p) for p in range(1, n))


def test_census_takes_a_stream():
    """The per-map reference census reads any iterable once, so a scan can
    feed it without the family being held; an empty one has no n to count
    over."""
    for n in (2, 5):
        spec = FamilySpec(Family.SS_PRIME, n)
        streamed = census_reference(v for _, vecs in family_blocks(spec) for v in vecs)
        assert streamed == census_reference([a.vector for a in enumerate_family(spec)])
    with pytest.raises(ValueError):
        census_reference(iter(()))


def scanned_vectors(n):
    """The vectors of SS'(n) as the heights scan yields them, one at a time."""
    return (v for _, vecs in _height_blocks(n, 0, n - 1) for v in vecs)


def split_points(n):
    """The split points the key census is checked at: the ends 2 and n+1,
    the middle point of the scan, and n from n = 2 on."""
    return sorted({2, n - n // 2 + 1, max(n, 2), n + 1})


@pytest.mark.parametrize("n", range(2, 8))
def test_split_facts_hold_for_every_map(n):
    """The four facts the key census rests on, for every map of SS'(n) and
    every split point m in 2..n+1, against the map's own height, image,
    kernel vector and square: P is the map on 2..m-1, S on m..n, and
    v = max Im P."""
    pad = bytes(255 - n)
    for m in range(2, n + 2):
        pairs, kernels = {}, {}
        for a in scanned_vectors(n):
            prefix, suffix = a[:m] + bytes(n + 1 - m), bytes(m) + a[m:]
            image_p, image_s = set(prefix) - {0}, set(suffix) - {0}
            v = max(image_p, default=0)
            assert min(image_s, default=v) >= v
            assert len(set(a)) - 1 == len(image_p) + len(image_s - {v})
            assert set(a) - {0} == image_p | image_s
            rank = {w: r for r, w in enumerate(sorted({v} | image_s), 1)}
            relative = bytes(rank[w] if w else 0 for w in a[m:])
            shifted = bytes(r + len(image_p) - 1 if r else 0 for r in relative)
            assert kernel_vector(a) == kernel_vector(prefix)[:m] + shifted
            # the census files S under its least value u and its own kernel
            # vector: under v its relative kernel is that vector, plus 1 on
            # each defined point unless v = u
            u = min(image_s, default=n + 1)
            assert relative == bytes(r + (v != u) if r else 0 for r in kernel_vector(suffix)[m:])
            pair = (kernel_vector(prefix), relative)
            assert pairs.setdefault(pair, kernel_vector(a)) == kernel_vector(a)
            assert kernels.setdefault(kernel_vector(a), pair) == pair
            idempotent = a.translate(a + pad) == a
            assert idempotent == (prefix.translate(prefix + pad) == prefix
                                  and all(w == v for w in image_s if w < m)
                                  and all(suffix[w] == w for w in image_s if w >= m)), (a, m)


@pytest.mark.parametrize("n", [
    *range(1, 10), pytest.param(10, marks=pytest.mark.long), pytest.param(11, marks=pytest.mark.long),
])
def test_key_census_matches_the_per_map_reference(n):
    """The census and the idempotents from prefix and suffix keys equal the
    per-map census and the squared vectors of the scan, at four split
    points and at the one ``census`` and ``count_idempotents`` choose."""
    want = census_reference(scanned_vectors(n))
    pad = bytes(255 - n)
    idempotents = sum(v.translate(v + pad) == v for v in scanned_vectors(n))
    for m in split_points(n):
        assert key_census(n, m) == (want.order, want.kernels, want.images, idempotents), m
    assert census(n) == want
    assert count_idempotents(n) == idempotents


def test_key_census_needs_a_point():
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"n={n}"):
            census(n)
        with pytest.raises(ValueError, match=f"n={n}"):
            count_idempotents(n)


def minimal_generators_reference(n):
    """The 3n-4 minimum generators as G(n, n-1) plus G(n, n-2) less its
    requisites and the partial identity missing point 2, each G(n,p) read
    from the requisite and idempotent families (two walks of SS'(n))."""

    def G(p):
        return set(enumerate_family(FamilySpec(Family.REQUISITE, n, p))) | set(
            enumerate_family(FamilySpec(Family.IDEMPOTENTS, n, p))
        )

    if n == 2:
        return G(1)
    reqs = set(enumerate_family(FamilySpec(Family.REQUISITE, n, n - 2)))
    return (G(n - 2) - reqs - {eps_1k(n, 2)}) | G(n - 1)


@pytest.mark.parametrize("n", range(2, 8))
def test_minimal_generators_match_reference(n):
    gens = ss_prime_minimal_generators(n)
    assert gens == minimal_generators_reference(n)
    assert len(gens) == 3 * n - 4


def test_minimal_generators_walk_once(monkeypatch):
    walks = []
    real = schroeder.families._blocks

    def counting(n, domain_pool, lo, hi, **kinds):
        walks.append((n, domain_pool, lo, hi))
        return real(n, domain_pool, lo, hi, **kinds)

    monkeypatch.setattr(schroeder.families, "_blocks", counting)
    ss_prime_minimal_generators(6)
    assert walks == [(6, (2, 3, 4, 5, 6), 4, 5)]
