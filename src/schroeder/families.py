"""Enumeration of element families over the chain {1..n}, the closed-form
counting formulas they satisfy, and the distinguished generating sets built
from them.

Every family but the requisites comes from one depth-first scan over the
domain points (``_scan``), not from filtering all (n+1)^n partial maps: a
code "d1:v1,...,dk:vk" grows by a point d above dk with a value v,
max(vk,1) <= v <= d, so every prefix is itself an isotone order-decreasing
map.  The scan visits the children of a prefix in text order and emits each
prefix before them, so it lists a family in canonical text order (that of
``encode()``) with no sort, building each code once from its parent's.
Heights outside the asked range are pruned.  ``iter_heights`` scans
SS'(n) between two heights, the band every family of SS'(n) and every
target table of ``green`` is read from; ``iter_family`` streams the
(code, vector) pairs of a family; ``enumerate_family`` lists the maps.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from typing import Iterable, Iterator

from ._record import Record
from .pmap import _RANKS, PartialMap, eps_1k, requisite_from_image

__all__ = [
    "Family",
    "FamilySpec",
    "enumerate_family",
    "iter_family",
    "iter_heights",
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


class FamilySpec(Record):
    """A family of ``Family`` kind over {1..n}, with its height p where the
    kind needs one; checked at construction."""

    __slots__ = _fields = ("kind", "n", "p")

    def __init__(self, kind: Family, n: int, p: int | None = None) -> None:
        Record.__init__(self, kind, n, p)
        if self.n < 2:
            raise ValueError(f"family enumeration needs n >= 2, got n={self.n}")
        if self.kind in _NEEDS_P and self.p is None:
            raise ValueError(f"family {self.kind.value} needs a height parameter p")
        if self.p is not None and not 0 <= self.p <= self.n - 1:
            raise ValueError(f"need 0 <= p <= n-1, got p={self.p}, n={self.n}")


def _scan(n: int, pool: tuple[int, ...], lo: int, hi: int) -> Iterator[tuple[str, bytes]]:
    """The code and byte vector of every isotone order-decreasing map of
    {1..n} whose domain lies in the pool and whose height lies in lo..hi,
    in canonical text order.

    A node of the scan is a prefix "d1:v1,...,dk:vk" of a code.  Its
    children append "d:v" with d > dk in the pool and max(vk,1) <= v <= d
    (the scan that ``height_counts`` counts), visited in the string order of
    "d:" and then of str(v), and each node comes before its children.
    Every token of a code is followed by "," or its end, both below the
    digits, so this pre-order is the order of ``encode()``, also where
    two-digit points and values appear ("10:" < "1:" < "2:", "1" < "10").
    A child whose height passes hi, or whose remaining points can no longer
    lift it to lo, is pruned.  An explicit stack carries each node's code
    and vector, so every code is built once from its parent's.
    """
    points = sorted(pool, key=lambda d: f"{d}:")
    # the most a node at point d can still grow: one per pool point above d
    room = {d: sum(e > d for e in pool) for d in (0, *pool)}
    # the children of a node by its (last point, last value), each with its
    # token, the tail of its vector from its point on and its own children;
    # reversed, so that the stack pops them in text order
    kids: dict[tuple[int, int], list] = {(0, 0): []}
    kids.update({(d, v): [] for d in pool for v in range(1, d + 1)})
    for (last, val), children in kids.items():
        for d in points:
            if d > last:
                for v in sorted(range(max(val, 1), d + 1), key=str):
                    tok = f",{d}:{v}" if last else f"{d}:{v}"
                    children.append((tok, d, bytes((v,)) + bytes(n - d), v > val, kids[d, v], room[d]))
        children.reverse()
    stack = [("", bytes(n + 1), kids[0, 0], 0)]
    pop, push = stack.pop, stack.append
    while stack:
        code, vec, children, h = pop()
        if h >= lo:
            yield code or "-", vec
        for tok, d, tail, up, grandchildren, r in children:
            g = h + up
            if g <= hi and g + r >= lo:
                push((code + tok, vec[:d] + tail, grandchildren, g))


def iter_heights(n: int, lo: int, hi: int) -> Iterator[tuple[str, bytes]]:
    """The code and byte vector of every member of SS'(n) of height lo..hi,
    in canonical text order."""
    return _scan(n, tuple(range(2, n + 1)), lo, hi)


def _idempotents(n: int, lo: int, hi: int) -> Iterator[tuple[str, bytes]]:
    """The members of SS'(n) of height lo..hi that are idempotent: each
    scanned vector, padded to a ``bytes.translate`` table, is squared once."""
    pad = bytes(255 - n)
    return ((code, v) for code, v in iter_heights(n, lo, hi) if v.translate(v + pad) == v)


def iter_family(spec: FamilySpec) -> Iterator[tuple[str, bytes]]:
    """The canonical code and byte vector of each member of the family, in
    canonical text order, made as the scan reaches it, so no member is held;
    only the requisites, C(n-1,p-1) of them, are made first and sorted."""
    n, p = spec.n, spec.p
    if spec.kind is Family.SS_PRIME:
        yield from iter_heights(n, 0, n - 1)
    elif spec.kind is Family.LS:
        yield from _scan(n, tuple(range(1, n + 1)), 0, n)
    elif spec.kind is Family.SS:
        for code, v in _scan(n, tuple(range(1, n + 1)), 0, n):
            if v[1]:
                yield code, v
    elif spec.kind is Family.IDEAL_K:
        yield from iter_heights(n, 0, p)
    elif spec.kind is Family.JSTAR_SLICE:
        yield from iter_heights(n, p, p)
    elif spec.kind is Family.IDEMPOTENTS:
        lo, hi = (0, n - 1) if p is None else (p, p)
        yield from _idempotents(n, lo, hi)
    elif spec.kind is Family.REQUISITE:
        if p == 0:
            return
        # one requisite per image {1} + (p-1 points of {2..n})
        reqs = (requisite_from_image(n, (1, *rest))
                for rest in itertools.combinations(range(2, n + 1), p - 1))
        yield from sorted((a.encode(), a.vector) for a in reqs)
    else:  # pragma: no cover
        raise ValueError(f"unsupported family {spec.kind}")


def enumerate_family(spec: FamilySpec) -> list[PartialMap]:
    """All members of the family in canonical text order, as
    :func:`iter_family` makes them."""
    return [PartialMap.from_vector(v) for _, v in iter_family(spec)]


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
    """The idempotents of SS'(n), counted as the scan makes them."""
    return sum(1 for _ in iter_family(FamilySpec(Family.IDEMPOTENTS, n)))


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
    """Distinct kernels ker a = {(x, y) : x a = y a} among height-p members,
    each read as that relation on the domain: the slow reference that the
    census's kernel vectors are checked against."""
    points = range(1, n + 1)
    kernels = set()
    for a in enumerate_family(FamilySpec(Family.JSTAR_SLICE, n, p)):
        v = a.vector
        kernels.add(frozenset((x, y) for x in points for y in points if v[x] and v[x] == v[y]))
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


class Census(Record):
    """Counts over SS'(n): the order, and per height p = 0..n-1 the numbers
    of distinct kernels (R*-classes) and of distinct images (L*-classes)."""

    __slots__ = _fields = ("order", "kernels", "images")

    def __init__(self, order: int, kernels: tuple[int, ...], images: tuple[int, ...]) -> None:
        Record.__init__(self, order, kernels, images)


def census(vectors: Iterable[bytes]) -> Census:
    """All the counts of :class:`Census` in one pass over the byte vectors of
    SS'(n), listed or streamed; no map is built.  Each kernel is counted by
    its kernel vector, ranked as :func:`pmap.kernel_vector` ranks it through
    the sorted image the image count needs anyway.  ``count_rstar_classes``
    and ``count_lstar_classes`` are the slow references.  Idempotents are
    left to ``count_idempotents``, which squares each scanned vector."""
    vectors = iter(vectors)
    first = next(vectors, None)
    if first is None:
        raise ValueError("census needs at least one map")
    kernels: list[set] = [set() for _ in range(len(first) - 1)]
    images: list[set] = [set() for _ in range(len(first) - 1)]
    order = 0
    for order, v in enumerate(itertools.chain((first,), vectors), 1):
        image = bytes(sorted(set(v)))  # led by v[0] = 0, which keeps rank 0
        h = len(image) - 1
        kernels[h].add(v.translate(bytes.maketrans(image, _RANKS[:h + 1])))
        images[h].add(image)
    return Census(order, tuple(map(len, kernels)), tuple(map(len, images)))


# -- distinguished generating sets ------------------------------------------


def _idempotents_at(n: int, lo: int, hi: int) -> dict[int, set[PartialMap]]:
    """The idempotents of SS'(n) of each height lo..hi, from one scan of
    those heights."""
    found: dict[int, set[PartialMap]] = {p: set() for p in range(lo, hi + 1)}
    for _, v in _idempotents(n, lo, hi):
        a = PartialMap.from_vector(v)
        found[a.height()].add(a)
    return found


def generating_set_G(n: int, p: int) -> set[PartialMap]:
    """Height-p requisite elements together with height-p idempotents."""
    if not 1 <= p <= n - 1:
        raise ValueError(f"need 1 <= p <= n-1, got p={p}, n={n}")
    reqs = enumerate_family(FamilySpec(Family.REQUISITE, n, p))
    return set(reqs) | _idempotents_at(n, p, p)[p]


def ss_prime_minimal_generators(n: int) -> set[PartialMap]:
    """A minimum generating set of the whole semigroup, of size 3n-4:
    all of height n-1 (requisites and idempotents) plus the height n-2
    idempotents other than the partial identity missing point 2."""
    if n < 2:
        raise ValueError("need n >= 2")
    idems = _idempotents_at(n, n - 2, n - 1)
    reqs = set(enumerate_family(FamilySpec(Family.REQUISITE, n, n - 1)))
    return reqs | idems[n - 1] | (idems[n - 2] - {eps_1k(n, 2)})


def verify_identity_corollary(n: int) -> bool:
    """sum_p sum_{r=p}^{n-1} C(n-1,r) C(r-1,p-1) == (3^(n-1)+1)/2."""
    if n < 2:
        raise ValueError("need n >= 2")
    lhs = sum(formula_rstar_classes(n, p) for p in range(n))
    return lhs == formula_idempotents(n)
