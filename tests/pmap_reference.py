"""References for the tests: the pair-by-pair composition the byte-vector
kernel in ``schroeder.pmap`` is checked against, the translate-keyed
grouping of right factors that ``pmap._restriction_groups`` is checked
against, and every partial map of {1..n}."""

import itertools
from array import array
from typing import Iterator, Sequence

from schroeder import PartialMap


def compose_reference(a: PartialMap, b: PartialMap) -> PartialMap:
    """Left-to-right composition x(a b) = ((x)a)b through a dict of the
    right factor's pairs, built with the validating constructor."""
    if a.n != b.n:
        raise ValueError(f"ambient size mismatch: {a.n} != {b.n}")
    bd = dict(b.pairs)
    return PartialMap(a.n, tuple((d, bd[v]) for d, v in a.pairs if v in bd))


def all_partial_maps(n: int) -> Iterator[PartialMap]:
    """Every partial transformation of {1..n}; (n+1)^n of them."""
    for vals in itertools.product(range(n + 1), repeat=n):
        yield PartialMap.from_vector(bytes((0, *vals)))


def restriction_groups_reference(
    v: bytes, tables: Sequence[bytes], cut: int | None
) -> tuple[array, list[array]]:
    """Group right factors b, given by their 256-byte translate tables, by
    b restricted to Im v, keyed by ``v.translate(t_b)``, the vector of v*b:
    the class of each factor and each class's positions, classes in order of
    their first factor.  With ``cut``, a key of at most ``cut`` distinct
    bytes joins the zero's class."""
    ids: dict = {}  # key -> class; None keys the zero's class
    class_of = array("I")
    members: list[array] = []
    for j, key in enumerate(map(v.translate, tables)):
        if (c := ids.get(key)) is None:
            zero = cut is not None and len(set(key)) <= cut
            c = ids[key] = ids.setdefault(None, len(members)) if zero else len(members)
            if c == len(members):
                members.append(array("I"))
        members[c].append(j)
        class_of.append(c)
    return class_of, members
