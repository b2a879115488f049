"""Enumeration of element families over the chain {1..n}, the closed-form
counting formulas they satisfy, and the distinguished generating sets built
from them.

Families are generated directly from the tabular form (choose a domain
avoiding 1, split it into consecutive blocks, pick an increasing image with
a_i <= min A_i) rather than by filtering all (n+1)^n partial maps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

from .pmap import PartialMap, eps_1k, requisite_from_image

__all__ = [
    "Family",
    "FamilySpec",
    "enumerate_family",
    "schroeder_small",
    "binom",
    "count_idempotents",
    "formula_idempotents",
    "count_rstar_classes",
    "formula_rstar_classes",
    "count_lstar_classes",
    "height_counts",
    "Census",
    "census",
    "generating_set_G",
    "ss_prime_minimal_generators",
    "verify_identity_corollary",
]


class Family(str, Enum):
    SS_PRIME = "ss-prime"      # isotone decreasing, 1 not in domain
    SS = "ss"                  # isotone decreasing, 1 in domain
    LS = "ls"                  # all isotone decreasing partial maps
    IDEAL_K = "ideal"          # members of SS_PRIME of height <= p
    JSTAR_SLICE = "jstar"      # members of SS_PRIME of height exactly p
    IDEMPOTENTS = "idempotents"
    REQUISITE = "requisite"


_NEEDS_P = {Family.IDEAL_K, Family.JSTAR_SLICE, Family.REQUISITE}


@dataclass(frozen=True)
class FamilySpec:
    kind: Family
    n: int
    p: int | None = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"family enumeration needs n >= 2, got n={self.n}")
        if self.kind in _NEEDS_P and self.p is None:
            raise ValueError(f"family {self.kind.value} needs a height parameter p")
        if self.p is not None and not 0 <= self.p <= self.n - 1:
            raise ValueError(f"need 0 <= p <= n-1, got p={self.p}, n={self.n}")


def _isotone_decreasing(
    n: int, domain_pool: tuple[int, ...], heights: Sequence[int]
) -> Iterator[PartialMap]:
    """The isotone order-decreasing maps of the given heights whose domain
    is a subset of the pool.

    Kernel classes of an isotone map are consecutive runs of the domain, so
    we pick a domain, cut it into h runs for each asked height h, and choose
    images left to right subject to a_prev < a_i <= min A_i.  Maps come by
    domain size, then domain, then height ascending.
    """
    if 0 in heights:
        yield PartialMap.from_vector(bytes(n + 1))  # the empty map
    block_counts = sorted(set(heights) - {0})
    if not block_counts:
        return
    for r in range(block_counts[0], len(domain_pool) + 1):
        for dom in itertools.combinations(domain_pool, r):
            for h in block_counts:
                if h > r:
                    break
                # h - 1 cut positions between consecutive domain points
                for cuts in itertools.combinations(range(1, r), h - 1):
                    bounds = (0, *cuts, r)
                    blocks = [dom[bounds[i]:bounds[i + 1]] for i in range(h)]
                    yield from _fill_images(n, blocks)


def _fill_images(n: int, blocks: list[tuple[int, ...]]) -> Iterator[PartialMap]:
    mins = [b[0] for b in blocks]

    def rec(i: int, lo: int, acc: list[int]) -> Iterator[list[int]]:
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


def _iter_family(spec: FamilySpec) -> Iterator[PartialMap]:
    n, p = spec.n, spec.p
    avoiding_1 = tuple(range(2, n + 1))
    if spec.kind is Family.SS_PRIME:
        yield from _isotone_decreasing(n, avoiding_1, range(n))
    elif spec.kind is Family.LS:
        yield from _isotone_decreasing(n, (1, *avoiding_1), range(n + 1))
    elif spec.kind is Family.SS:
        for a in _isotone_decreasing(n, (1, *avoiding_1), range(n + 1)):
            if 1 in a.domain():
                yield a
    elif spec.kind is Family.IDEAL_K:
        yield from _isotone_decreasing(n, avoiding_1, range(p + 1))
    elif spec.kind is Family.JSTAR_SLICE:
        yield from _isotone_decreasing(n, avoiding_1, (p,))
    elif spec.kind is Family.IDEMPOTENTS:
        heights = range(n) if p is None else (p,)
        for a in _isotone_decreasing(n, avoiding_1, heights):
            if a.is_idempotent():
                yield a
    elif spec.kind is Family.REQUISITE:
        if p == 0:
            return
        # one requisite per image {1} + (p-1 points of {2..n})
        for rest in itertools.combinations(avoiding_1, p - 1):
            yield requisite_from_image(n, (1, *rest))
    else:  # pragma: no cover
        raise ValueError(f"unsupported family {spec.kind}")


def enumerate_family(spec: FamilySpec) -> list[PartialMap]:
    """All members of the family, sorted by canonical text encoding
    (``_iter_family`` yields each member once)."""
    return sorted(_iter_family(spec), key=lambda a: a.encode())


# -- counting formulas ---------------------------------------------------


def schroeder_small(n: int) -> int:
    """The small Schroeder number s_n, by its summation formula.

    Exact integer arithmetic; the defining division is checked to be exact.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if n == 0:
        return 1
    total = sum(
        math.comb(n + 1, n - r) * math.comb(n + r, r) for r in range(n + 1)
    )
    q, rem = divmod(total, 2 * (n + 1))
    assert rem == 0, "small Schroeder sum must be divisible by 2(n+1)"
    return q


def binom(m: int, k: int) -> int:
    """Binomial coefficient with the convention C(-1,-1)=1 and C(m,-1)=0 for
    m >= 0 (needed so the p=0 term of the class-count identity is 1)."""
    if k == -1:
        return 1 if m == -1 else 0
    if m < 0 or k < 0 or k > m:
        return 0
    return math.comb(m, k)


def count_idempotents(n: int) -> int:
    return len(enumerate_family(FamilySpec(Family.IDEMPOTENTS, n)))


def formula_idempotents(n: int) -> int:
    """(3^(n-1) + 1) / 2."""
    if n < 2:
        raise ValueError("need n >= 2")
    q, rem = divmod(3 ** (n - 1) + 1, 2)
    assert rem == 0
    return q


def formula_rstar_classes(n: int, p: int) -> int:
    """Number of kernels among height-p members:
    sum_{r=p}^{n-1} C(n-1,r) C(r-1,p-1)."""
    if not 0 <= p <= n - 1:
        raise ValueError(f"need 0 <= p <= n-1, got p={p}")
    return sum(binom(n - 1, r) * binom(r - 1, p - 1) for r in range(p, n))


def count_rstar_classes(n: int, p: int) -> int:
    """Distinct kernels (domain + block partition) among height-p members."""
    kernels = {
        a.kernel_blocks()
        for a in enumerate_family(FamilySpec(Family.JSTAR_SLICE, n, p))
    }
    return len(kernels)


def count_lstar_classes(n: int, p: int) -> int:
    """Distinct images among height-p members; equals C(n,p)."""
    if not 1 <= p <= n - 1:
        raise ValueError(f"need 1 <= p <= n-1, got p={p}")
    images = {
        a.image() for a in enumerate_family(FamilySpec(Family.JSTAR_SLICE, n, p))
    }
    return len(images)


def height_counts(n: int) -> tuple[int, ...]:
    """Number of members of SS'(n) of each height h = 0..n-1, counted over
    the tabular form without enumerating a member; |K(n,p)| is the sum of
    the first p+1 counts.

    A scan x = 2..n either leaves x out of the domain or sends it to a value
    v with last <= v <= x, where last is the value of the previous domain
    point (0 before the first, and every value is at least 1): exactly the
    isotone, order-decreasing choices.  The height grows by one when
    v > last.  The state is (last, height so far).
    """
    ways = {(0, 0): 1}
    for x in range(2, n + 1):
        step = dict(ways)  # x left out of the domain
        for (last, h), w in ways.items():
            for v in range(max(last, 1), x + 1):
                state = (v, h + (v > last))
                step[state] = step.get(state, 0) + w
        ways = step
    counts = [0] * n
    for (_, h), w in ways.items():
        counts[h] += w
    return tuple(counts)


@dataclass(frozen=True)
class Census:
    """Counts over SS'(n): the order, and per height p = 0..n-1 the numbers
    of distinct kernels (R*-classes) and of distinct images (L*-classes)."""

    order: int
    kernels: tuple[int, ...]
    images: tuple[int, ...]


def census(elements: Sequence[PartialMap]) -> Census:
    """All the counts of :class:`Census` in one pass over the enumerated
    SS'(n); ``count_rstar_classes`` and ``count_lstar_classes`` are the slow
    references.  Idempotents are left to ``count_idempotents``, which tests
    each map by squaring it."""
    n = elements[0].n
    kernels: list[set] = [set() for _ in range(n)]
    images: list[set] = [set() for _ in range(n)]
    for a in elements:
        image = a.image()
        kernels[len(image)].add(a.kernel_blocks())
        images[len(image)].add(image)
    return Census(len(elements), tuple(map(len, kernels)), tuple(map(len, images)))


# -- distinguished generating sets ------------------------------------------


def _idempotents_at(n: int, heights: Sequence[int]) -> dict[int, set[PartialMap]]:
    """The idempotents of SS'(n) of each given height, from one walk of
    those heights; each map is tested by squaring it."""
    found: dict[int, set[PartialMap]] = {p: set() for p in heights}
    for a in _isotone_decreasing(n, tuple(range(2, n + 1)), heights):
        if a.is_idempotent():
            found[a.height()].add(a)
    return found


def generating_set_G(n: int, p: int) -> set[PartialMap]:
    """Height-p requisite elements together with height-p idempotents."""
    if not 1 <= p <= n - 1:
        raise ValueError(f"need 1 <= p <= n-1, got p={p}, n={n}")
    reqs = enumerate_family(FamilySpec(Family.REQUISITE, n, p))
    return set(reqs) | _idempotents_at(n, (p,))[p]


def ss_prime_minimal_generators(n: int) -> set[PartialMap]:
    """A minimum generating set of the whole semigroup, of size 3n-4:
    all of height n-1 (requisites and idempotents) plus the height n-2
    idempotents other than the partial identity missing point 2."""
    if n < 2:
        raise ValueError("need n >= 2")
    idems = _idempotents_at(n, (n - 1, n - 2))
    reqs = set(enumerate_family(FamilySpec(Family.REQUISITE, n, n - 1)))
    return reqs | idems[n - 1] | (idems[n - 2] - {eps_1k(n, 2)})


def verify_identity_corollary(n: int) -> bool:
    """sum_p sum_{r=p}^{n-1} C(n-1,r) C(r-1,p-1) == (3^(n-1)+1)/2."""
    if n < 2:
        raise ValueError("need n >= 2")
    lhs = sum(formula_rstar_classes(n, p) for p in range(n))
    return lhs == formula_idempotents(n)
