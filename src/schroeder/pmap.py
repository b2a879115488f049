"""Partial transformations of the chain {1..n} and the element-level
constructions used throughout the package.

A partial transformation is a function from a subset of {1..n} into {1..n}.
The value type here, :class:`PartialMap`, is immutable and stores only its
byte vector ``v`` of length n+1: ``v[x]`` is the image of x, or 0 where x is
undefined, and ``v[0] = 0``; so n <= 255 (``MAX_VECTOR_N``), and the height
is ``len(set(v)) - 1``.  Composition is left-to-right: ``x (a * b) =
((x)a)b``.  Padded with zeros to 256 bytes, ``v`` is a ``bytes.translate``
table, so the vector of a*b is ``va.translate(tb)``, one C call: the one
composition kernel, behind :func:`compose`, ``a * b``, ``is_idempotent``,
:func:`closure` (through :func:`closure_vectors`) and the product rows of
``green.SemigroupTable``.  a*b depends on b only through b restricted to
Im a, and one helper, ``_restriction_groups``, groups right factors by that
restriction: :func:`closure_vectors`, ``green.SemigroupTable.class_rows``
and the right Cayley graph compose each map once per class.  They compose a
Rees zero as the empty map, whose products all fall below the height cut.

Maps are checked where they enter (``PartialMap(n, pairs)``, ``of``,
``empty``, ``from_vector`` and :func:`parse`); a product of valid vectors is
valid, so the kernel wraps its results unchecked.
"""

from __future__ import annotations

import functools
from array import array
from typing import Iterable, Mapping, Sequence

__all__ = [
    "MAX_VECTOR_N",
    "PartialMap",
    "ambient_size",
    "kernel_vector",
    "compose",
    "closure",
    "closure_vectors",
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

MAX_VECTOR_N = 255


@functools.total_ordering
class PartialMap:
    """A partial transformation of {1..n}, stored as its byte vector.

    ``PartialMap(n, pairs)`` takes (point, value) pairs with points strictly
    increasing; the empty tuple gives the empty map.  Instances are
    immutable, hashable and totally ordered by ``(n, encode())``; two maps
    are equal when their vectors are.
    """

    __slots__ = ("vector",)
    vector: bytes

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]]) -> None:
        if n < 1:
            raise ValueError(f"ambient size must be >= 1, got {n}")
        if n > MAX_VECTOR_N:
            raise ValueError(f"a partial map needs n <= {MAX_VECTOR_N}, got n={n}")
        v = bytearray(n + 1)
        prev = 0
        for d, x in pairs:
            if not (1 <= d <= n and 1 <= x <= n):
                raise ValueError(f"pair {d}:{x} out of range for n={n}")
            if d <= prev:
                raise ValueError("domain points must be strictly increasing")
            prev = d
            v[d] = x
        object.__setattr__(self, "vector", bytes(v))

    @classmethod
    def of(cls, n: int, mapping: Mapping[int, int] | Iterable[tuple[int, int]]) -> "PartialMap":
        items = mapping.items() if isinstance(mapping, Mapping) else mapping
        return cls(n, tuple(sorted(items)))

    @classmethod
    def empty(cls, n: int) -> "PartialMap":
        return cls(n, ())

    @classmethod
    def from_vector(cls, vector: bytes | bytearray) -> "PartialMap":
        """The map whose byte vector is ``vector`` (see the module)."""
        v = bytes(vector)
        if not 2 <= len(v) <= MAX_VECTOR_N + 1 or v[0] or max(v) >= len(v):
            raise ValueError(f"not the vector of a map of {{1..n}}, n <= {MAX_VECTOR_N}: {v!r}")
        return _wrap(v)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.vector == other.vector
        return NotImplemented

    def __hash__(self) -> int:
        # the hash a frozen dataclass gives, so under a fixed PYTHONHASHSEED
        # (perfbench uses 0) sets of maps iterate in the dataclass's order
        return hash((self.vector,))

    def __lt__(self, other):
        if not isinstance(other, PartialMap):
            return NotImplemented
        return (self.n, self.encode()) < (other.n, other.encode())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return PartialMap.from_vector, (self.vector,)

    def __repr__(self) -> str:
        return f"PartialMap(n={self.n}, pairs={self.pairs!r})"

    # -- basic views ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vector) - 1

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:  # points ascending
        return tuple((d, x) for d, x in enumerate(self.vector) if x)

    def __call__(self, x: int) -> int:
        if 0 < x < len(self.vector) and self.vector[x]:
            return self.vector[x]
        raise KeyError(f"{x} not in domain")

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    def domain(self) -> tuple[int, ...]:
        return tuple(d for d, x in enumerate(self.vector) if x)

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.vector)))[1:]  # v[0] = 0 is no value

    def height(self) -> int:
        """h(a) = size of the image."""
        return len(set(self.vector)) - 1

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(d for d, x in enumerate(self.vector) if x == d and x)

    def kernel(self) -> bytes:
        """The kernel vector of the map: see :func:`kernel_vector`."""
        return kernel_vector(self.vector)

    # -- predicates ----------------------------------------------------

    def is_isotone(self) -> bool:
        vals = [x for x in self.vector if x]  # in ascending order of points
        return all(x <= y for x, y in zip(vals, vals[1:]))

    def is_decreasing(self) -> bool:
        return all(x <= d for d, x in enumerate(self.vector))

    def is_injective(self) -> bool:
        v = self.vector
        return len(set(v)) - 1 == len(v) - v.count(0)

    def is_idempotent(self) -> bool:
        v = self.vector
        return v.translate(_table(v)) == v

    # -- algebra -------------------------------------------------------

    def translate_table(self) -> bytes:
        """The vector padded with zeros to a 256-byte ``bytes.translate``
        table: ``u.translate(b.translate_table())`` is the vector of the
        product u*b for any vector u of the same n."""
        return _table(self.vector)

    def __mul__(self, other: "PartialMap") -> "PartialMap":
        return compose(self, other)

    # -- text form -----------------------------------------------------

    def encode(self) -> str:
        """Canonical text form: "-" for the empty map, else "d:v,d:v,..."."""
        return ",".join([_POINTS[d] + _VALUES[x] for d, x in enumerate(self.vector) if x]) or "-"

    def __str__(self) -> str:
        return self.encode()


# the text of each point with its colon, and of each value, for encode
_POINTS = [f"{d}:" for d in range(256)]
_VALUES = [str(x) for x in range(256)]


def _wrap(v: bytes) -> PartialMap:
    """The map with vector ``v``, unchecked: for products of valid vectors."""
    a = object.__new__(PartialMap)
    object.__setattr__(a, "vector", v)
    return a


def _table(v: bytes) -> bytes:
    return v + bytes(256 - len(v))


_RANKS = bytes(range(256))


def kernel_vector(v: bytes) -> bytes:
    """The kernel of the map with byte vector ``v``, as a vector: each value
    replaced by its rank in the image (1 for the least), 0 where undefined,
    so ``2:1,3:1,4:4,5:4`` gives ``0,0,1,1,2,2``.  Two maps have equal
    kernel vectors exactly when they have the same domain and the same
    blocks {x : x a = c} in the same order of their values c; for isotone
    maps, when ker a = {(x, y) : x a = y a} is the same relation."""
    image = bytes(sorted(set(v)))  # v[0] = 0 comes first and keeps rank 0
    return v.translate(bytes.maketrans(image, _RANKS[:len(image)]))


def ambient_size(maps: Iterable[PartialMap]) -> int:
    """The common n of ``maps`` (at least one); ValueError if they differ."""
    sizes = {a.n for a in maps}
    if len(sizes) != 1:
        raise ValueError(f"ambient size mismatch: {sorted(sizes)}")
    return sizes.pop()


def compose(a: PartialMap, b: PartialMap) -> PartialMap:
    """Left-to-right composition: x(a b) = ((x)a)b."""
    if len(a.vector) != len(b.vector):
        raise ValueError(f"ambient size mismatch: {a.n} != {b.n}")
    return _wrap(a.vector.translate(_table(b.vector)))


def closure(generators: Iterable[PartialMap]) -> set[PartialMap]:
    """Least composition-closed superset of the generators.

    Worklist search over right multiplication, so every product g1 g2 ... gk
    is reached left to right (see :func:`closure_vectors`).  The generators
    must share one n, else ValueError.
    """
    return set(map(_wrap, closure_vectors(generators)))


def closure_vectors(generators: Iterable[PartialMap]) -> set[bytes]:
    """The byte vectors of :func:`closure`, none wrapped in a map: half the
    memory where only the closure's size is needed.

    x*g depends on g only through g restricted to Im x, so each reached map
    composes one generator per class of :func:`_restriction_groups`, found
    once per image, keyed by ``frozenset(v)`` (the image and 0).
    """
    gens = list(generators)
    if not gens:
        return set()
    ambient_size(gens)
    seen = {a.vector for a in gens}
    tables = [_table(v) for v in seen]
    by_image: dict[frozenset, list[bytes]] = {}
    work = list(seen)
    while work:
        v = work.pop()
        reps = by_image.get(key := frozenset(v))
        if reps is None:
            reps = by_image[key] = [tables[m[0]] for m in _restriction_groups(v, tables, None)[1]]
        for t in reps:
            c = v.translate(t)
            if c not in seen:
                seen.add(c)
                work.append(c)
    return seen


def _restriction_groups(
    v: bytes, tables: Sequence[bytes], cut: int | None
) -> tuple[array, list[array]]:
    """Group right factors b, given by their translate tables (the empty
    map's for a Rees zero), by b restricted to Im v: the class of each
    factor, and each class's positions in ``tables``, classes in order of
    their first factor.  The key ``v.translate(t_b)``, the vector of v*b,
    determines that restriction, so distinct classes give every map of Im v
    distinct products.  With ``cut``, a key of at most ``cut`` distinct bytes
    (0 and b(Im v & Dom b), fixed by the class) joins the zero's class."""
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


def member_ss_prime(a: PartialMap) -> bool:
    """Membership in the small Schroeder semigroup: isotone, order-decreasing,
    and 1 not in the domain.  The empty map is a member."""
    return not a.vector[1] and a.is_isotone() and a.is_decreasing()


def pseudo_inverse(a: PartialMap) -> PartialMap:
    """The map a' with domain Im a sending each value c of a to the least
    point of its block {x : x a = c}, the first point carrying c.

    Satisfies a a' a == a, with a a' an idempotent member of the same family.
    Undefined (raises) for the empty map, whose tabular form has no blocks.
    """
    if not member_ss_prime(a):
        raise ValueError("pseudo-inverse requires an isotone decreasing map avoiding 1")
    if not a.height():
        raise ValueError("pseudo-inverse undefined for empty map")
    return PartialMap.of(a.n, {x: a.vector.index(x) for x in a.image()})


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
    """True iff a == requisite(n, i, tail) for some valid (i, tail): a sends
    each of 2..i to its predecessor (i >= 2) and fixes the rest of its
    domain."""
    v = a.vector
    i = 1
    while i < a.n and v[i + 1] == i:
        i += 1
    return i >= 2 and not v[1] and all(x in (0, d) for d, x in enumerate(v[i + 1:], i + 1))


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

