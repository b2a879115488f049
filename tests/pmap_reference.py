"""Reference composition for the tests: the pair-by-pair composition the
byte-vector kernel in ``schroeder.pmap`` is checked against."""

from schroeder import PartialMap


def compose_reference(a: PartialMap, b: PartialMap) -> PartialMap:
    """Left-to-right composition x(a b) = ((x)a)b through a dict of the
    right factor's pairs, built with the validating constructor."""
    if a.n != b.n:
        raise ValueError(f"ambient size mismatch: {a.n} != {b.n}")
    bd = dict(b.pairs)
    return PartialMap(a.n, tuple((d, bd[v]) for d, v in a.pairs if v in bd))
