"""References for the tests: the pair-by-pair composition the byte-vector
kernel in ``schroeder.pmap`` is checked against, and every partial map of
{1..n}."""

import itertools
from typing import Iterator

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
