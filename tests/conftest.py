import pytest

from schroeder import Family, FamilySpec, enumerate_family
from schroeder.green import target_table


@pytest.fixture(scope="session")
def ss():
    """Cache of the full family per n: ss(n) -> sorted element list."""
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = enumerate_family(FamilySpec(Family.SS_PRIME, n))
        return cache[n]

    return get


@pytest.fixture(scope="session")
def table():
    """Cache of built semigroup tables: table(n) for the full semigroup,
    table(n, p) for the ideal, table(n, p, quotient=True) for the quotient;
    ``lo`` picks a layer table, as in ``target_table``."""
    cache = {}

    def get(n, p=None, quotient=False, lo=None):
        key = (n, p, quotient, lo)
        if key not in cache:
            target = "ss-prime" if p is None else "quotient" if quotient else "ideal"
            cache[key] = target_table(n, target, p, lo)
        return cache[key]

    return get
