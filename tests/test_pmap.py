import itertools
import pickle
import random

import pytest
from green_reference import target_and_layer_tables
from hypothesis import given, settings
from hypothesis import strategies as st
from pmap_reference import all_partial_maps, compose_reference, restriction_groups_reference

from schroeder import (
    Family,
    FamilySpec,
    PartialMap,
    alpha_i,
    alpha_ik,
    compose,
    enumerate_family,
    eps_1k,
    is_requisite,
    left_identity,
    member_ss_prime,
    parse,
    pseudo_inverse,
    requisite,
    requisite_from_image,
    shift_embed,
    ss_prime_minimal_generators,
)
from schroeder.pmap import MAX_VECTOR_N, _restriction_groups, closure_vectors, kernel_vector


def test_construction_and_views():
    a = PartialMap.of(4, {2: 1, 3: 3, 4: 4})
    assert a.domain() == (2, 3, 4)
    assert a.image() == (1, 3, 4)
    assert a.height() == 3
    assert a.fixed_points() == (3, 4)
    assert a(2) == 1
    with pytest.raises(KeyError):
        a(1)


def test_validation():
    with pytest.raises(ValueError):
        PartialMap(3, ((2, 4),))  # value out of range
    with pytest.raises(ValueError):
        PartialMap(3, ((2, 1), (2, 2)))  # repeated domain point
    with pytest.raises(ValueError):
        PartialMap(0, ())


def test_empty_map():
    e = PartialMap.empty(3)
    assert e.encode() == "-"
    assert e.height() == 0
    assert member_ss_prime(e)
    assert e.is_idempotent()


def test_composition_left_to_right():
    a = PartialMap.of(3, {2: 1, 3: 2})
    b = PartialMap.of(3, {2: 2})
    # x (a b) = ((x)a)b: only 3 survives (3 -> 2 -> 2)
    assert compose(a, b) == PartialMap.of(3, {3: 2})
    assert a * b == compose(a, b)
    with pytest.raises(ValueError):
        compose(a, PartialMap.empty(4))


def test_composition_associative_exhaustive_n3():
    elems = enumerate_family(FamilySpec(Family.SS_PRIME, 3))
    for a, b, c in itertools.product(elems, repeat=3):
        assert (a * b) * c == a * (b * c)


@given(st.integers(2, 6), st.data())
@settings(max_examples=200, deadline=None)
def test_composition_associative_random(n, data):
    elems = enumerate_family(FamilySpec(Family.SS_PRIME, n))
    pick = st.sampled_from(elems)
    a, b, c = data.draw(pick), data.draw(pick), data.draw(pick)
    assert (a * b) * c == a * (b * c)


def test_family_closed_under_composition():
    for n in (2, 3, 4):
        elems = enumerate_family(FamilySpec(Family.SS_PRIME, n))
        for a, b in itertools.product(elems, repeat=2):
            assert member_ss_prime(a * b)


def test_membership_predicate():
    assert member_ss_prime(PartialMap.of(3, {2: 1, 3: 3}))
    assert not member_ss_prime(PartialMap.of(3, {1: 1}))  # 1 in domain
    assert not member_ss_prime(PartialMap.of(3, {2: 3}))  # increasing
    assert not member_ss_prime(PartialMap.of(3, {2: 2, 3: 1}))  # not isotone


def test_kernel_vector():
    a = PartialMap.of(5, {2: 1, 3: 1, 4: 4, 5: 4})
    assert a.kernel() == kernel_vector(a.vector) == bytes([0, 0, 1, 1, 2, 2])
    assert PartialMap.empty(3).kernel() == bytes(4)
    assert PartialMap.of(3, {1: 3, 2: 1, 3: 3}).kernel() == bytes([0, 2, 1, 2])


def ker(a):
    """ker a = {(x, y) : x a = y a}, x and y in the domain of a."""
    return frozenset((x, y) for x in a.domain() for y in a.domain() if a(x) == a(y))


def test_kernel_vector_reads_the_kernel_relation():
    """On every partial map of {1..4}: the kernel vector is 0 off the domain,
    equal at x and y exactly when (x, y) is in ker a, and ranks the values
    in their order; so among isotone maps, whose blocks are ordered by their
    points, equal kernel vectors are equal kernels."""
    maps = list(all_partial_maps(4))
    for a in maps:
        k, v = a.kernel(), a.vector
        assert k[0] == 0 and set(k) == set(range(a.height() + 1))
        for x in range(1, 5):
            assert (k[x] == 0) == (v[x] == 0)
            for y in range(1, 5):
                assert (k[x] and k[x] == k[y]) == ((x, y) in ker(a))
                assert (k[x] < k[y]) == (v[x] < v[y])
    isotone = [a for a in maps if a.is_isotone()]
    by_kernel = {}
    for a in isotone:
        by_kernel.setdefault(a.kernel(), set()).add(ker(a))
    assert all(len(kers) == 1 for kers in by_kernel.values())
    assert len(by_kernel) == len({ker(a) for a in isotone})


def test_encode_parse_round_trip():
    for n in (2, 3, 4):
        for a in enumerate_family(FamilySpec(Family.SS_PRIME, n)):
            assert parse(a.encode(), n) == a


def encode_reference(a):
    """The text form written pair by pair with an f-string."""
    return ",".join([f"{d}:{x}" for d, x in a.pairs]) or "-"


def test_encode_matches_the_f_string_form_on_ls4():
    maps = enumerate_family(FamilySpec(Family.LS, 4))
    assert any(1 in a.domain() for a in maps)
    for a in maps:
        assert a.encode() == encode_reference(a)


@pytest.mark.parametrize("n", [10, 100, 255])
def test_encode_matches_the_f_string_form_with_long_numbers(n):
    """Points and values of one, two and three digits, up to n = 255."""
    rng = random.Random(n)
    maps = [PartialMap.empty(n), PartialMap.of(n, {n: n}), PartialMap.of(n, {1: n, n: 1}),
            PartialMap.of(n, {d: n + 1 - d for d in range(1, n + 1)})]
    for _ in range(40):
        points = sorted(rng.sample(range(1, n + 1), rng.randint(1, min(n, 12))))
        maps.append(PartialMap(n, tuple((d, rng.randint(1, n)) for d in points)))
    for a in maps:
        assert a.encode() == encode_reference(a)
        assert parse(a.encode(), n) == a
    digits = {len(str(x)) for a in maps for pair in a.pairs for x in pair}
    assert digits == ({1, 2, 3} if n >= 100 else {1, 2})


def test_parse_errors():
    with pytest.raises(ValueError):
        parse("2-1", 3)
    with pytest.raises(ValueError):
        parse("2:9", 3)
    with pytest.raises(ValueError):
        parse("", 3)


def test_total_order_matches_encoding():
    elems = enumerate_family(FamilySpec(Family.SS_PRIME, 4))
    assert elems == sorted(elems)
    assert [a.encode() for a in elems] == sorted(a.encode() for a in elems)


def test_pseudo_inverse_contract_exhaustive():
    """a a' a == a with a a' idempotent, dom a' == im a, for all of n <= 6."""
    for n in range(2, 7):
        for a in enumerate_family(FamilySpec(Family.SS_PRIME, n)):
            if not a.pairs:
                with pytest.raises(ValueError):
                    pseudo_inverse(a)
                continue
            ai = pseudo_inverse(a)
            # ai itself may fall outside the family (e.g. {2->1}' = {1->2});
            # the contract is about the products
            assert ai.domain() == a.image()
            assert a * ai * a == a
            assert (a * ai).is_idempotent()
            assert member_ss_prime(a * ai)


def test_pseudo_inverse_rejects_outsiders():
    with pytest.raises(ValueError):
        pseudo_inverse(PartialMap.of(3, {1: 1}))


def test_requisite_shapes():
    # full shift {2..n} -> {1..n-1}
    assert requisite(4, 4, ()) == PartialMap.of(4, {2: 1, 3: 2, 4: 3})
    # shift then fixed tail
    r = requisite(5, 3, (4, 5))
    assert r == PartialMap.of(5, {2: 1, 3: 2, 4: 4, 5: 5})
    assert is_requisite(r)
    assert r.is_injective() and not r.is_idempotent()
    with pytest.raises(ValueError):
        requisite(4, 1, ())
    with pytest.raises(ValueError):
        requisite(4, 3, (3,))  # tail must lie above i


def test_requisite_from_image_unique():
    for n in range(2, 7):
        for a in enumerate_family(FamilySpec(Family.SS_PRIME, n)):
            if is_requisite(a):
                assert requisite_from_image(n, a.image()) == a
    with pytest.raises(ValueError):
        requisite_from_image(4, (2, 3))  # image must contain 1


def test_requisite_is_sole_requisite_in_its_image_class():
    for n in (3, 4, 5):
        for a in enumerate_family(FamilySpec(Family.SS_PRIME, n)):
            if is_requisite(a):
                peers = [
                    b
                    for b in enumerate_family(FamilySpec(Family.SS_PRIME, n))
                    if b.image() == a.image() and is_requisite(b)
                ]
                assert peers == [a]


def test_distinguished_elements():
    assert alpha_i(4, 2) == PartialMap.of(4, {2: 1, 3: 3, 4: 4})
    assert alpha_i(4, 4) == PartialMap.of(4, {2: 1, 3: 2, 4: 3})
    assert alpha_ik(4, 2, 3) == PartialMap.of(4, {2: 1, 4: 4})
    assert eps_1k(4, 3) == PartialMap.of(4, {2: 2, 4: 4})
    assert left_identity(4) == PartialMap.of(4, {2: 2, 3: 3, 4: 4})


def test_left_identity_is_left_identity():
    n = 4
    e = left_identity(n)
    for a in enumerate_family(FamilySpec(Family.SS_PRIME, n)):
        assert e * a == a
    # ... but not a right identity: anything with 1 in its image loses it
    a = PartialMap.of(n, {2: 1})
    assert a * e != a


def test_shift_embed_is_monomorphism():
    for n in (2, 3, 4):
        elems = enumerate_family(FamilySpec(Family.SS_PRIME, n))
        images = {shift_embed(a) for a in elems}
        assert len(images) == len(elems)
        for b in images:
            assert b.n == n + 1
            assert 1 not in b.domain() and 1 not in b.image()
            assert member_ss_prime(b)
        for a, b in itertools.product(elems, repeat=2):
            assert shift_embed(a * b) == shift_embed(a) * shift_embed(b)


def test_fixed_points_of_products():
    """F(ab) == F(a) & F(b) == F(ba) for order-decreasing maps; exhaustive at
    n = 4, randomized at n = 7."""
    decreasing4 = [a for a in all_partial_maps(4) if a.is_decreasing()]
    for a, b in itertools.product(decreasing4, repeat=2):
        expected = set(a.fixed_points()) & set(b.fixed_points())
        assert set((a * b).fixed_points()) == expected
        assert set((b * a).fixed_points()) == expected
    rng = random.Random(99)
    n = 7
    def rand_decreasing():
        return PartialMap.of(
            n, {x: rng.randint(1, x) for x in range(1, n + 1) if rng.random() < 0.6}
        )
    for _ in range(2000):
        a, b = rand_decreasing(), rand_decreasing()
        expected = set(a.fixed_points()) & set(b.fixed_points())
        assert set((a * b).fixed_points()) == expected
        assert set((b * a).fixed_points()) == expected


# -- the byte vector and its kernel ----------------------------------------


def test_vector_is_the_only_stored_form():
    a = PartialMap.of(4, {2: 1, 4: 3})
    assert PartialMap.__slots__ == ("vector",)
    assert a.vector == bytes([0, 0, 1, 0, 3])
    assert a.n == 4 and a.pairs == ((2, 1), (4, 3))
    assert PartialMap.from_vector(a.vector) == a
    assert hash(PartialMap.from_vector(a.vector)) == hash(a) == hash((a.vector,))
    assert a != a.vector and a != (a.vector,)
    assert PartialMap.empty(3).vector == bytes(4)
    with pytest.raises(AttributeError):
        a.vector = bytes(5)
    with pytest.raises(AttributeError):
        del a.vector
    with pytest.raises(AttributeError):
        a.extra = 1
    b = pickle.loads(pickle.dumps(a))
    assert b == a and type(b) is PartialMap


def test_from_vector_validation():
    for bad in (b"", b"\x00", b"\x01\x00", b"\x00\x02", bytes(MAX_VECTOR_N + 2)):
        with pytest.raises(ValueError):
            PartialMap.from_vector(bad)
    assert PartialMap.from_vector(bytearray([0, 1])) == PartialMap.of(1, {1: 1})


def test_size_limit_names_it():
    assert PartialMap.of(MAX_VECTOR_N, {MAX_VECTOR_N: 1}).n == 255
    for build in (lambda: PartialMap(256, ()), lambda: PartialMap.empty(256),
                  lambda: PartialMap.of(256, {2: 1}), lambda: parse("2:1", 256)):
        with pytest.raises(ValueError, match="n <= 255"):
            build()


def test_order_mixes_n_then_text():
    maps = [PartialMap.of(3, {3: 1}), PartialMap.empty(4), PartialMap.of(3, {2: 2}),
            PartialMap.empty(3), PartialMap.of(3, {2: 1, 3: 3})]
    assert [(a.n, a.encode()) for a in sorted(maps)] == sorted((a.n, a.encode()) for a in maps)
    assert PartialMap.empty(3) < PartialMap.of(3, {2: 1}) <= PartialMap.of(3, {2: 1})


def test_compose_matches_reference_on_all_partial_maps_n3():
    maps = list(all_partial_maps(3))
    assert len(maps) == 64
    for a, b in itertools.product(maps, repeat=2):
        c = compose_reference(a, b)
        assert compose(a, b) == c and a * b == c
        assert compose(a, b).pairs == c.pairs
    for a in maps:
        assert a.is_idempotent() == (compose_reference(a, a) == a)


def test_compose_matches_reference_on_random_maps_n8():
    rng = random.Random(8)
    n = 8

    def random_map():
        return PartialMap.of(n, {d: rng.randint(1, n) for d in range(1, n + 1) if rng.random() < 0.7})

    for _ in range(2000):
        a, b = random_map(), random_map()
        assert compose(a, b) == compose_reference(a, b)
        assert a.is_idempotent() == (compose_reference(a, a) == a)


def test_is_requisite_exactly_the_requisite_shapes():
    for n in range(1, 5):
        shapes = {
            requisite(n, i, tail)
            for i in range(2, n + 1)
            for r in range(n - i + 1)
            for tail in itertools.combinations(range(i + 1, n + 1), r)
        }
        assert {a for a in all_partial_maps(n) if is_requisite(a)} == shapes


def assert_groups_match_reference(v, vectors, cut):
    """``_restriction_groups`` over the joined vectors against the
    translate-keyed reference over their tables: the same class of every
    factor, the same members, and the zero's class that of the factors
    whose products collapse."""
    tables = [u + bytes(256 - len(u)) for u in vectors]
    class_of, members, zero = _restriction_groups(v, b"".join(vectors), cut)
    want_class_of, want_members = restriction_groups_reference(v, tables, cut)
    assert class_of == want_class_of and members == want_members, (v, cut)
    collapsed = [c for c, t in zip(want_class_of, tables)
                 if cut is not None and len(set(v.translate(t))) <= cut]
    assert zero == (collapsed[0] if collapsed else None), (v, cut)


@pytest.mark.parametrize("n", range(2, 7))
def test_restriction_groups_match_the_translate_keyed_reference_on_tables(n):
    """Every image of every target and layer table of SS'(n), the zero's
    included, grouping all the table's vectors under every Rees cut."""
    for _, t in target_and_layer_tables(n):
        images = {frozenset(v): v for v in t._vectors}
        for v in images.values():
            for cut in [None, *range(1, n)]:
                assert_groups_match_reference(v, t._vectors, cut)


@pytest.mark.parametrize("n", range(2, 7))
def test_restriction_groups_match_the_reference_on_closed_generators(ss, n):
    """The generator sets that ``closure_vectors`` groups, over every image
    of their closure: the minimum generators, the top height, the
    idempotents and the idempotents with the requisites of SS'(n), and
    drawn sets of any partial maps at n <= 4."""
    idems = [a for a in ss(n) if a.is_idempotent()]
    reqs = [a for a in ss(n) if is_requisite(a)]
    sets = [ss_prime_minimal_generators(n), [a for a in ss(n) if a.height() == n - 1],
            idems, idems + reqs]
    if n <= 4:
        rng = random.Random(n)
        maps = list(all_partial_maps(n))
        sets += [rng.choices(maps, k=rng.randint(1, 6)) for _ in range(20)]
    for gens in sets:
        vectors = list({a.vector for a in gens})
        images = {frozenset(v): v for v in closure_vectors(gens)}
        for v in images.values():
            assert_groups_match_reference(v, vectors, None)


@pytest.mark.parametrize("n", [7, 8, 15, 16, 40, 255])
def test_restriction_groups_match_the_reference_on_keys_of_several_words(n):
    """Images of 7 to 255 points pack each key into one to 32 words; drawn
    factors take few distinct values, so that many share a class, and some
    are undefined on most of the image, so that some collapse."""
    rng = random.Random(n)
    for _ in range(5):
        v = bytes([0] + [rng.choice([0, *range(1, n + 1)]) for _ in range(n)])
        vectors = []
        for _ in range(60):
            values = rng.sample(range(n + 1), 3)
            vectors.append(bytes([0] + [rng.choice(values) for _ in range(n)]))
        vectors += rng.choices(vectors, k=20)
        for cut in (None, 1, 2, 3, n):
            assert_groups_match_reference(v, vectors, cut)
