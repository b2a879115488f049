"""Partial transformations of the chain {1..n} and the element-level
constructions used throughout the package.

A partial transformation is a function from a subset of {1..n} into {1..n}.
The value type here, :class:`PartialMap`, is immutable and canonical: two
maps are equal iff they have the same ambient size and the same graph.
Composition is left-to-right: ``x (a * b) = ((x)a)b``.

The hot paths compose with one private kernel instead of :func:`compose`.
A map becomes a byte vector ``v`` of length n+1: ``v[x]`` is the image of x,
or 0 where x is undefined, and ``v[0] = 0``.  Padded with zeros to 256
bytes, ``v`` is also a ``bytes.translate`` table, so the product a*b is
``va.translate(tb)`` with ``tb`` the padded vector of b, one C call per
product.  The height of a map is ``len(set(v)) - 1``.  Every value must fit
in a byte, so the kernel serves n <= 255 (``MAX_VECTOR_N``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

__all__ = [
    "PartialMap",
    "KernelView",
    "compose",
    "member_ss_prime",
    "pseudo_inverse",
    "requisite",
    "requisite_from_image",
    "is_requisite",
    "alpha_i",
    "alpha_ik",
    "eps_1k",
    "left_identity",
    "shift_embed",
    "parse",
]

Pairs = tuple[tuple[int, int], ...]


@dataclass(frozen=True, order=True)
class PartialMap:
    """A partial transformation of {1..n}, stored as a sorted pair list.

    ``pairs`` is a tuple of (point, value) with points strictly increasing;
    the empty tuple is the empty map.  Instances are immutable, hashable and
    totally ordered by ``(n, encode-key)``.
    """

    n: int
    pairs: Pairs = field(compare=False)
    # sort key mirroring the canonical text encoding ("-" sorts first)
    _key: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"ambient size must be >= 1, got {self.n}")
        prev = 0
        for d, v in self.pairs:
            if not (1 <= d <= self.n and 1 <= v <= self.n):
                raise ValueError(f"pair {d}:{v} out of range for n={self.n}")
            if d <= prev:
                raise ValueError("domain points must be strictly increasing")
            prev = d
        object.__setattr__(self, "_key", (self.n, self.encode()))

    @classmethod
    def of(cls, n: int, mapping: Mapping[int, int] | Iterable[tuple[int, int]]) -> "PartialMap":
        items = mapping.items() if isinstance(mapping, Mapping) else mapping
        return cls(n, tuple(sorted(items)))

    @classmethod
    def empty(cls, n: int) -> "PartialMap":
        return cls(n, ())

    # -- basic views ---------------------------------------------------

    def __call__(self, x: int) -> int:
        for d, v in self.pairs:
            if d == x:
                return v
        raise KeyError(f"{x} not in domain")

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    def domain(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.pairs)

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(set(v for _, v in self.pairs)))

    def height(self) -> int:
        """h(a) = size of the image."""
        return len(set(v for _, v in self.pairs))

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(d for d, v in self.pairs if d == v)

    def kernel_view(self) -> "KernelView":
        return KernelView.of(self)

    def kernel_blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks of the kernel (same-value classes of the domain), ordered
        by their common value.  Identifies the R*-relevant data of a map."""
        groups: dict[int, list[int]] = {}
        for d, v in self.pairs:
            groups.setdefault(v, []).append(d)
        return tuple(tuple(groups[v]) for v in sorted(groups))

    # -- predicates ----------------------------------------------------

    def is_isotone(self) -> bool:
        vals = [v for _, v in self.pairs]  # domain already ascending
        return all(x <= y for x, y in zip(vals, vals[1:]))

    def is_decreasing(self) -> bool:
        return all(v <= d for d, v in self.pairs)

    def is_injective(self) -> bool:
        vals = [v for _, v in self.pairs]
        return len(set(vals)) == len(vals)

    def is_partial_identity(self) -> bool:
        return all(d == v for d, v in self.pairs)

    def is_idempotent(self) -> bool:
        return compose(self, self) == self

    # -- algebra -------------------------------------------------------

    def __mul__(self, other: "PartialMap") -> "PartialMap":
        return compose(self, other)

    # -- text form -----------------------------------------------------

    def encode(self) -> str:
        """Canonical text form: "-" for the empty map, else "d:v,d:v,..."."""
        if not self.pairs:
            return "-"
        return ",".join(f"{d}:{v}" for d, v in self.pairs)

    def __str__(self) -> str:
        return self.encode()


@dataclass(frozen=True)
class KernelView:
    """The tabular form of a map: blocks (A_i, a_i) ordered by image value.

    For isotone maps the blocks are linearly ordered; for members of the
    order-decreasing families additionally a_i <= min A_i.
    """

    blocks: tuple[tuple[tuple[int, ...], int], ...]

    @classmethod
    def of(cls, a: PartialMap) -> "KernelView":
        return cls(tuple(zip(a.kernel_blocks(), a.image())))

    def mins(self) -> tuple[int, ...]:
        return tuple(min(block) for block, _ in self.blocks)


def compose(a: PartialMap, b: PartialMap) -> PartialMap:
    """Left-to-right composition: x(a b) = ((x)a)b."""
    if a.n != b.n:
        raise ValueError(f"ambient size mismatch: {a.n} != {b.n}")
    bd = dict(b.pairs)
    return PartialMap(a.n, tuple((d, bd[v]) for d, v in a.pairs if v in bd))


# -- the byte-vector kernel ----------------------------------------------

MAX_VECTOR_N = 255


def _vector_n(maps: Iterable[PartialMap]) -> int:
    """The common ambient size of ``maps`` (at least one), checked to fit
    the byte-vector kernel."""
    sizes = {a.n for a in maps}
    if len(sizes) != 1:
        raise ValueError(f"ambient size mismatch: {sorted(sizes)}")
    (n,) = sizes
    if n > MAX_VECTOR_N:
        raise ValueError(
            f"byte-vector composition needs n <= {MAX_VECTOR_N}, got n={n}"
        )
    return n


def _vector(a: PartialMap) -> bytes:
    """The byte vector of a: ``v[x]`` is the image of x, 0 if undefined."""
    v = bytearray(a.n + 1)
    for d, x in a.pairs:
        v[d] = x
    return bytes(v)


def _table(v: bytes) -> bytes:
    """``v`` padded with zeros to a 256-byte ``bytes.translate`` table, so
    that ``u.translate(_table(v))`` is the vector of the product u*v."""
    return v + bytes(256 - len(v))


def _from_vector(n: int, v: bytes) -> PartialMap:
    return PartialMap(n, tuple((d, x) for d, x in enumerate(v) if x))


def _vector_closure(vectors: Iterable[bytes], stop_at: int | None = None) -> set[bytes]:
    """Vectors of the least composition-closed superset of ``vectors``.

    Worklist search over right multiplication by the generators, so every
    product g1 g2 ... gk is reached left to right; each generator's table is
    built once.  Stops early once ``stop_at`` vectors are reached.
    """
    seen = set(vectors)
    tables = [_table(v) for v in seen]
    work = list(seen)
    while work and len(seen) != stop_at:
        a = work.pop()
        for t in tables:
            c = a.translate(t)
            if c not in seen:
                seen.add(c)
                work.append(c)
    return seen


def member_ss_prime(a: PartialMap) -> bool:
    """Membership in the small Schroeder semigroup: isotone, order-decreasing,
    and 1 not in the domain.  The empty map is a member."""
    return a.is_isotone() and a.is_decreasing() and (not a.pairs or a.pairs[0][0] != 1)


def pseudo_inverse(a: PartialMap) -> PartialMap:
    """The map a' with domain Im a sending a_i to min A_i.

    Satisfies a a' a == a, with a a' an idempotent member of the same family.
    Undefined (raises) for the empty map, whose tabular form has no blocks.
    """
    if not member_ss_prime(a):
        raise ValueError("pseudo-inverse requires an isotone decreasing map avoiding 1")
    if not a.pairs:
        raise ValueError("pseudo-inverse undefined for empty map")
    return PartialMap.of(a.n, {v: min(block) for block, v in a.kernel_view().blocks})


# -- distinguished elements and shapes ---------------------------------


def requisite(n: int, i: int, tail: Iterable[int]) -> PartialMap:
    """The injective map shifting {2..i} down by one and fixing ``tail``.

    ``tail`` must be an ascending set of points above i.  An empty tail with
    i == n gives the full shift {2..n} -> {1..n-1}.
    """
    tail = tuple(sorted(tail))
    if i < 2 or i > n:
        raise ValueError(f"not a valid requisite shape: need 2 <= i <= n, got i={i}")
    if tail and (tail[0] <= i or tail[-1] > n):
        raise ValueError(f"not a valid requisite shape: tail {tail} must lie in ({i}, {n}]")
    if len(set(tail)) != len(tail):
        raise ValueError("not a valid requisite shape: tail has repeats")
    pairs = [(j, j - 1) for j in range(2, i + 1)] + [(t, t) for t in tail]
    return PartialMap(n, tuple(pairs))


def requisite_from_image(n: int, image: Iterable[int]) -> PartialMap:
    """The unique requisite element with the given image, if one exists.

    The image must look like {1, 2, ..., i-1} followed by a tail above i;
    in particular it must contain 1.
    """
    img = tuple(sorted(image))
    if not img or img[0] != 1:
        raise ValueError("no requisite in L*-class: image must contain 1")
    m = 0
    while m < len(img) and img[m] == m + 1:
        m += 1
    i = m + 1
    tail = img[m:]
    if i > n:
        raise ValueError("no requisite in L*-class: shift part exceeds the chain")
    return requisite(n, i, tail)


def is_requisite(a: PartialMap) -> bool:
    """True iff a == requisite(n, i, tail) for some valid (i, tail)."""
    if not a.pairs:
        return False
    shift = [d for d, v in a.pairs if v == d - 1]
    fixed = [d for d, v in a.pairs if v == d]
    if len(shift) + len(fixed) != len(a.pairs):
        return False
    i = len(shift) + 1
    if shift != list(range(2, i + 1)) or i < 2:
        return False
    return not fixed or fixed[0] > i


def alpha_i(n: int, i: int) -> PartialMap:
    """Height n-1 requisite: shift on {2..i}, identity on {i+1..n}."""
    if not 2 <= i <= n:
        raise ValueError(f"need 2 <= i <= n, got i={i}, n={n}")
    return requisite(n, i, range(i + 1, n + 1))


def alpha_ik(n: int, i: int, k: int) -> PartialMap:
    """Height n-2 requisite with k removed from the domain (and i from the
    image): shift on {2..i}, identity on {i+1..n} minus k."""
    if not 2 <= i < k <= n:
        raise ValueError(f"need 2 <= i < k <= n, got i={i}, k={k}, n={n}")
    return requisite(n, i, (t for t in range(i + 1, n + 1) if t != k))


def eps_1k(n: int, k: int) -> PartialMap:
    """Partial identity on {2..n} \\ {k}."""
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    return PartialMap(n, tuple((j, j) for j in range(2, n + 1) if j != k))


def left_identity(n: int) -> PartialMap:
    """The partial identity on {2..n}: the unique left identity of the family."""
    if n < 2:
        raise ValueError("left identity needs n >= 2")
    return PartialMap(n, tuple((j, j) for j in range(2, n + 1)))


def shift_embed(a: PartialMap) -> PartialMap:
    """Relabel every point x -> x+1, embedding maps over n-1 into maps over n
    whose domain and image avoid 1.  A composition-preserving bijection onto
    {maps over n avoiding 1 in domain and image}."""
    return PartialMap(a.n + 1, tuple((d + 1, v + 1) for d, v in a.pairs))


# -- text grammar -------------------------------------------------------


def parse(text: str, n: int) -> PartialMap:
    """Inverse of PartialMap.encode: "-" or comma-separated "d:v" pairs."""
    if text == "-":
        return PartialMap.empty(n)
    pairs = []
    pos = 0
    for chunk in text.split(","):
        d, sep, v = chunk.partition(":")
        if not sep or not d.isdigit() or not v.isdigit():
            raise ValueError(f"parse error at position {pos}: expected 'd:v', got {chunk!r}")
        pairs.append((int(d), int(v)))
        pos += len(chunk) + 1
    try:
        return PartialMap(n, tuple(pairs))
    except ValueError as exc:
        raise ValueError(f"parse error: {exc}") from exc


def all_partial_maps(n: int) -> Iterator[PartialMap]:
    """Every partial transformation of {1..n}; (n+1)^n of them.  Test oracle."""
    for vals in itertools.product(range(n + 1), repeat=n):
        yield PartialMap(n, tuple((d, v) for d, v in enumerate(vals, start=1) if v))
