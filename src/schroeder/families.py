"""Enumeration of element families over the chain {1..n}, the closed-form
counting formulas they satisfy, the census of SS'(n) from prefix and suffix
keys, and the distinguished generating sets built from them.

Every family but the requisites comes from one depth-first scan over the
domain points (``_blocks``), not from filtering all (n+1)^n partial maps: a
code "d1:v1,...,dk:vk" grows by a point d above dk with a value v,
max(vk,1) <= v <= d, so every prefix is itself an isotone order-decreasing
map.  The scan visits the children of a prefix in text order and emits each
prefix before them, so it lists a family in canonical text order (that of
``encode()``) with no sort.  Heights outside the asked range are pruned.
The prefixes before the middle point are walked one by one; below them,
each subtree is built once as a table of code suffixes and vector tails and
emitted behind every prefix that reaches it, so the scan yields blocks,
pairs of parallel lists of codes and vectors, or of codes alone for a
caller that reads no vector.  ``family_blocks`` reads a family as blocks;
``iter_heights`` scans SS'(n) between two heights, the band every target
table of ``green`` is read from, and ``iter_family`` streams a family, both
one (code, vector) pair at a time; ``enumerate_family`` lists the maps.

``census`` and ``count_idempotents`` make no vector of SS'(n): they split
every map at a point m into a prefix, a member of SS'(m-1), and a suffix on
m..n, scan both sides once, and count each map by combining its prefix's
keys with its suffix's (``_census``).
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
    "family_blocks",
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
_TAKES_NO_P = {Family.SS_PRIME, Family.SS, Family.LS}


class FamilySpec(Record):
    """A family of ``Family`` kind over {1..n}, with its height p where the
    kind needs or takes one; checked at construction."""

    __slots__ = _fields = ("kind", "n", "p")

    def __init__(self, kind: Family, n: int, p: int | None = None) -> None:
        Record.__init__(self, kind, n, p)
        if self.n < 2:
            raise ValueError(f"family enumeration needs n >= 2, got n={self.n}")
        if self.kind in _NEEDS_P and self.p is None:
            raise ValueError(f"family {self.kind.value} needs a height parameter p")
        if self.kind in _TAKES_NO_P and self.p is not None:
            raise ValueError(f"family {self.kind.value} takes no height parameter p, got p={self.p}")
        if self.p is not None and not 0 <= self.p <= self.n - 1:
            raise ValueError(f"need 0 <= p <= n-1, got p={self.p}, n={self.n}")


# the maps a block of the scan holds at least, but for its last block
_BLOCK = 512
# the table of a walked node: itself, and nothing below it
_WALKED_CODE = [""]
_WALKED_VECTOR = [b""]


def _blocks(n: int, pool: tuple[int, ...], lo: int, hi: int, vectors: bool = True) -> Iterator[tuple[list[str], list[bytes] | None]]:
    """The code and byte vector of every isotone order-decreasing map of
    {1..n} whose domain lies in the pool and whose height lies in lo..hi,
    in canonical text order, as blocks: pairs of parallel lists of codes
    and vectors.

    A node of the scan is a prefix "d1:v1,...,dk:vk" of a code.  Its
    children append "d:v" with d > dk in the pool and max(vk,1) <= v <= d
    (the scan that ``height_counts`` counts), visited in the string order of
    "d:" and then of str(v), and each node comes before its children.
    Every token of a code is followed by "," or its end, both below the
    digits, so this pre-order is the order of ``encode()``, also where
    two-digit points and values appear ("10:" < "1:" < "2:", "1" < "10").
    A child whose height passes hi, or whose remaining points can no longer
    lift it to lo, is pruned.

    What lies below a node depends only on its last point and value and on
    the heights it may still add, clipped to what its points above can
    add.  So from the middle point m = n - n//2 + 1 on, the subtree of a
    node is built once per such key, as code suffixes and vector tails
    made from its children's, and every node that reaches the key emits it
    whole behind its own code and vector.  Nodes before m are walked with
    an explicit stack that carries each node's code and vector, so every
    walked code is built once from its parent's.  What the nodes emit is
    gathered into blocks of at least _BLOCK maps, so that narrow bands,
    whose subtrees hold a few maps each, do not pay per subtree.  Without
    ``vectors`` no vector or tail is built, and each block carries None for
    its vectors.
    """
    points = sorted(pool, key=lambda d: f"{d}:")
    mid = n - n // 2 + 1
    # the most a node at point d can still grow: one per pool point above d
    room = {d: sum(e > d for e in pool) for d in (0, *pool)}
    # the children of a node by its (last point, last value), in text order,
    # each with its token, point, value, the height it adds, its room, and
    # its vector from its point on: to the end for a walked node, its value
    # alone for a node whose subtree is a table, empty without vectors
    kids: dict[tuple[int, int], list] = {(0, 0): []}
    kids.update({(d, v): [] for d in pool for v in range(1, d + 1)})
    for (last, val), children in kids.items():
        for d in points:
            if d > last:
                for v in sorted(range(max(val, 1), d + 1), key=str):
                    tok = f",{d}:{v}" if last else f"{d}:{v}"
                    tail = bytes((v,)) + bytes(n - d) if d < mid else bytes((v,))
                    children.append((tok, d, v, v > val, room[d], tail if vectors else b""))
    # reversed, so that the stack pops them in text order
    walk = {key: children[::-1] for key, children in kids.items() if key[0] < mid}
    tables: dict[tuple[int, int, int, int], tuple[list[str], list[bytes]]] = {}

    def subtree(d: int, v: int, a: int, b: int) -> tuple[list[str], list[bytes]]:
        """The code suffixes and the vector tails (points d+1..n) of the
        nodes below one at point d with value v, itself included, that add
        a..b to its height, in pre-order."""
        table = tables.get((d, v, a, b))
        if table is None:
            sfx, tails = ([""], [bytes(n - d)]) if a == 0 else ([], [])
            for tok, e, w, up, r, _ in kids[d, v]:
                if up <= b and a - up <= r:
                    codes, vecs = subtree(e, w, max(a - up, 0), min(b - up, r))
                    sfx += [tok + s for s in codes]
                    if vectors:
                        head = bytes(e - d - 1) + bytes((w,))
                        tails += [head + t for t in vecs]
            table = tables[d, v, a, b] = sfx, tails
        return table

    # the nodes to emit, each as its code or vector and the table of what
    # it heads (the empty suffix alone for a walked node)
    heads: list[tuple[str, list[str]]] = []
    bodies: list[tuple[bytes, list[bytes]]] = []
    size = 0

    def block() -> tuple[list[str], list[bytes] | None]:
        codes = [c + s for c, sfx in heads for s in sfx]
        return codes, [b + t for b, tails in bodies for t in tails] if vectors else None

    # a table node's table by its (point, value, height): the band is fixed
    at: dict[tuple[int, int, int], tuple[list[str], list[bytes]]] = {}
    stack = [("", bytes(n + 1) if vectors else b"", 0, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        code, vec, d, v, h = pop()
        if d >= mid:
            table = at.get((d, v, h))
            if table is None:
                table = at[d, v, h] = subtree(d, v, max(lo - h, 0), min(hi - h, room[d]))
            heads.append((code, table[0]))
            bodies.append((vec, table[1]))
            size += len(table[0])
            if size >= _BLOCK:
                yield block()
                heads.clear()
                bodies.clear()
                size = 0
            continue
        if h >= lo:
            heads.append((code or "-", _WALKED_CODE))
            bodies.append((vec, _WALKED_VECTOR))
        for tok, e, w, up, r, tail in walk[d, v]:
            g = h + up
            if g <= hi and g + r >= lo:
                push((code + tok, vec[:e] + tail, e, w, g))
    if heads:
        yield block()


def _pairs(blocks: Iterable[tuple[list[str], list[bytes]]]) -> Iterator[tuple[str, bytes]]:
    """The (code, vector) pairs of the blocks, one at a time."""
    return itertools.chain.from_iterable(itertools.starmap(zip, blocks))


def _height_blocks(n: int, lo: int, hi: int) -> Iterator[tuple[list[str], list[bytes]]]:
    """The members of SS'(n) of height lo..hi, as blocks."""
    return _blocks(n, tuple(range(2, n + 1)), lo, hi)


def iter_heights(n: int, lo: int, hi: int) -> Iterator[tuple[str, bytes]]:
    """The code and byte vector of every member of SS'(n) of height lo..hi,
    in canonical text order."""
    return _pairs(_height_blocks(n, lo, hi))


def _idempotent_blocks(n: int, lo: int, hi: int) -> Iterator[tuple[list[str], list[bytes]]]:
    """The members of SS'(n) of height lo..hi that are idempotent, as
    blocks: each scanned vector, padded to a ``bytes.translate`` table, is
    squared once."""
    pad = bytes(255 - n)
    for codes, vecs in _height_blocks(n, lo, hi):
        keep = [v.translate(v + pad) == v for v in vecs]
        yield list(itertools.compress(codes, keep)), list(itertools.compress(vecs, keep))


def _ss_blocks(n: int) -> Iterator[tuple[list[str], list[bytes]]]:
    """The members of LS(n) with 1 in their domain, as blocks."""
    for codes, vecs in _blocks(n, tuple(range(1, n + 1)), 0, n):
        keep = [v[1] for v in vecs]
        yield list(itertools.compress(codes, keep)), list(itertools.compress(vecs, keep))


def family_blocks(spec: FamilySpec, vectors: bool = True) -> Iterator[tuple[list[str], list[bytes] | None]]:
    """The members of the family as blocks, pairs of parallel lists of
    canonical codes and byte vectors that end to end list the family in
    canonical text order; a block may be empty.  Each block is made as the
    scan reaches it, so the family is never held; only the requisites,
    C(n-1,p-1) of them, are made first and sorted into one block.  Without
    ``vectors``, for a caller that reads the codes alone, a family that
    needs no vector to choose its members may carry None for the vectors
    of a block."""
    n, p, kind = spec.n, spec.p, spec.kind
    ss_prime = tuple(range(2, n + 1))
    if kind is Family.SS_PRIME:
        return _blocks(n, ss_prime, 0, n - 1, vectors)
    if kind is Family.LS:
        return _blocks(n, tuple(range(1, n + 1)), 0, n, vectors)
    if kind is Family.SS:
        return _ss_blocks(n)
    if kind is Family.IDEAL_K:
        return _blocks(n, ss_prime, 0, p, vectors)
    if kind is Family.JSTAR_SLICE:
        return _blocks(n, ss_prime, p, p, vectors)
    if kind is Family.IDEMPOTENTS:
        return _idempotent_blocks(n, *((0, n - 1) if p is None else (p, p)))
    if kind is Family.REQUISITE:
        if p == 0:
            return iter(())
        # one requisite per image {1} + (p-1 points of {2..n})
        reqs = sorted((a.encode(), a.vector) for a in (
            requisite_from_image(n, (1, *rest))
            for rest in itertools.combinations(range(2, n + 1), p - 1)))
        return iter([([code for code, _ in reqs], [v for _, v in reqs])])
    raise ValueError(f"unsupported family {spec.kind}")  # pragma: no cover


def iter_family(spec: FamilySpec) -> Iterator[tuple[str, bytes]]:
    """The canonical code and byte vector of each member of the family, in
    canonical text order: the blocks of :func:`family_blocks` one pair at a
    time."""
    return _pairs(family_blocks(spec))


def enumerate_family(spec: FamilySpec) -> list[PartialMap]:
    """All members of the family in canonical text order, as
    :func:`family_blocks` makes them."""
    return [PartialMap.from_vector(v) for _, vecs in family_blocks(spec) for v in vecs]


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
    """The idempotents of SS'(n), from the prefix and suffix keys of
    :func:`census`: a map is idempotent iff its prefix squares to itself
    and each value of its suffix is v below the split point and a fixed
    point of the suffix from it up."""
    from ._census import key_census, split_point

    return key_census(n, split_point(n))[3]


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
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
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


def census(n: int) -> Census:
    """All the counts of :class:`Census` over SS'(n), from prefix and suffix
    keys (``_census.key_census``): no map is built and no vector of SS'(n)
    is made.  Each map still counts through its own prefix and its
    suffix's keys; no closed form enters.  ``count_rstar_classes`` and
    ``count_lstar_classes`` are the slow references."""
    from ._census import key_census, split_point

    order, kernels, images, _ = key_census(n, split_point(n))
    return Census(order, kernels, images)


# -- distinguished generating sets ------------------------------------------


def _idempotents_at(n: int, lo: int, hi: int) -> dict[int, set[PartialMap]]:
    """The idempotents of SS'(n) of each height lo..hi, from one scan of
    those heights."""
    found: dict[int, set[PartialMap]] = {p: set() for p in range(lo, hi + 1)}
    for _, vecs in _idempotent_blocks(n, lo, hi):
        for v in vecs:
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
