"""Finite semigroup container and Green's / starred Green's relations.

A :class:`SemigroupTable` indexes the byte vectors of a composition-closed
set of partial maps (after a distinguished zero for Rees quotients) and
exposes the product on element indices: ``build_table`` makes one from
maps, ``target_table`` from one scan of SS'(n) between two heights.
Classical Green's relations are the strongly connected components of the
left and right Cayley graphs over a generating set, so no |S|^2 product
table is built for them; starred relations come in a definitional variant
(the cancellation biconditional quantified over S^1) and a characterized
fast path (grouping by image / kernel / height).
"""

from __future__ import annotations

import json
from array import array
from itertools import chain, islice
from typing import Iterable, Literal, Sequence

from ._record import Record
from .families import (
    _height_blocks,
    generating_set_G,
    height_counts,
    ss_prime_minimal_generators,
)
from .pmap import PartialMap, _restriction_groups, _table, _wrap, ambient_size, kernel_vector

__all__ = [
    "Zero",
    "ZERO",
    "NotClosedError",
    "SemigroupTable",
    "EqPartition",
    "build_table",
    "green",
    "starred_definitional",
    "starred_characterized",
    "abundance_report",
    "AbundanceReport",
]

GreenName = Literal["L", "R", "H", "D", "J"]
StarName = Literal["Lstar", "Rstar", "Hstar", "Dstar"]


class Zero:
    """Distinguished absorbing zero of a Rees quotient.

    Not a partial map: in the quotient the whole lower ideal collapses to
    this single atom, while the empty map stays an ordinary element of the
    ambient semigroup.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def encode(self) -> str:
        return "0"

    def __repr__(self) -> str:
        return "ZERO"


ZERO = Zero()


class NotClosedError(ValueError):
    """A product of two elements of a table is missing from it."""


class SemigroupTable:
    """An indexed, composition-closed set of partial maps, after a zero
    when the table is a Rees quotient.

    Built from distinct valid byte vectors (see ``pmap``) of one n, in the
    order given.  With ``collapse_below`` the zero ZERO is element 0 and
    every product of height below it is the zero.  ``_vectors`` holds the
    vectors composed, the empty map's for ZERO, and ``_index`` maps each
    element's vector, or ZERO, to its index.  Nothing else is kept per
    element: :meth:`element` wraps one vector unchecked, as products are,
    and ``elements`` wraps them all on its first read.
    """

    def __init__(self, vectors: list[bytes], collapse_below: int | None) -> None:
        zero = collapse_below is not None
        self.n = n = len(vectors[0]) - 1
        self.collapse_below = collapse_below
        self.zero_index = 0 if zero else None
        self._vectors = [bytes(n + 1)] * zero + vectors
        self._index = {v: i for i, v in enumerate(vectors, zero)}
        if zero:
            self._index[ZERO] = 0
        self._elements: list | None = None  # every element wrapped, lazy
        self._classes: list | None = None  # class-compressed rows, lazy
        self._rows: list | None = None  # full product table, lazy
        self._gens: list | None = None  # generating set, lazy
        self._right: list | None = None  # right Cayley graph, lazy
        self._left: list | None = None  # left Cayley graph, lazy

    def __len__(self) -> int:
        return len(self._vectors)

    @property
    def elements(self) -> list:
        """Every element, ZERO or a map, by index."""
        if self._elements is None:
            zero = self.zero_index is not None
            self._elements = [ZERO] * zero + list(map(_wrap, self._vectors[zero:]))
        return self._elements

    def element(self, i: int):
        """Element i, ZERO or a map."""
        return ZERO if i == self.zero_index else _wrap(self._vectors[i])

    def index_of(self, a) -> int:
        key = a if a is ZERO else a.vector
        try:
            return self._index[key]
        except KeyError:
            raise KeyError(f"element {a.encode()} not in table") from None

    def product(self, i: int, j: int) -> int:
        return self.products(i, (j,))[0]

    def _not_closed(self, i: int, j: int) -> NotClosedError:
        a, b = self.element(i).encode(), self.element(j).encode()
        return NotClosedError(f"not closed under composition: {a} * {b} is missing")

    def products(self, i: int, js) -> list[int]:
        """Indices of the products i*j for j in js: a row of the product
        table, or part of one.  Raises NotClosedError when a product is
        missing from the table, i.e. the set is not closed.

        Composes byte vectors, the zero as the empty map, one ``bytes.translate``
        per product through j's vector padded as it composes; under a Rees
        collapse a product of height below ``collapse_below`` (at most that
        many distinct bytes, 0 included) is the zero.
        """
        vectors, pad = self._vectors, bytes(255 - self.n)
        a = vectors[i]
        cut, zi = self.collapse_below, self.zero_index
        index = self._index
        row = []
        for j in js:
            c = a.translate(vectors[j] + pad)
            if cut is not None and len(set(c)) <= cut:
                row.append(zi)
                continue
            k = index.get(c)
            if k is None:
                raise self._not_closed(i, j)
            row.append(k)
        return row

    def _row(self, i: int, reps: list[int], tables: list[bytes], zero: int | None) -> list[int]:
        """Indices of i*b for the factors b at ``reps``, given by their
        translate tables, where i's image groups them by
        ``pmap._restriction_groups`` and ``zero`` is the class that
        collapses: one C call per product, and no height test, since the
        class fixes the product's height.  Raises NotClosedError as
        :meth:`products` does."""
        get, a = self._index.get, self._vectors[i]
        row = []
        for t in tables:
            k = get(a.translate(t))
            if k is None and len(row) != zero:
                raise self._not_closed(i, reps[len(row)])
            row.append(k)
        if zero is not None:
            row[zero] = self.zero_index
        return row

    def class_rows(self) -> list[tuple[array, list[array], array]]:
        """The product table, compressed: for each row u, ``(class_of, members, composed)``.

        a*b depends on b only through b restricted to Im a, so the columns
        fall into the classes of ``pmap._restriction_groups``, found once per
        image: ``class_of[j]`` is the class of column j and ``members[c]``
        the columns of class c, shared by the rows of that image.
        ``composed[c]`` is u times every member of class c, composed for its
        first member by :meth:`_row`, which checks closure; every column
        whose product with u collapses lies in the zero's class.  The rows
        are built one image at a time, holding the translate tables of that
        image's representatives only.
        """
        if self._classes is None:
            vectors, cut = self._vectors, self.collapse_below
            joined = b"".join(vectors)
            by_image: dict = {}  # image -> its rows
            for i, v in enumerate(vectors):
                by_image.setdefault(frozenset(v), array("I")).append(i)
            rows: list = [None] * len(vectors)
            for image_rows in by_image.values():
                class_of, members, zero = _restriction_groups(vectors[image_rows[0]], joined, cut)
                reps = [m[0] for m in members]
                tables = [_table(vectors[j]) for j in reps]
                for i in image_rows:
                    rows[i] = class_of, members, array("I", self._row(i, reps, tables, zero))
            self._classes = rows
        return self._classes

    def full_table(self) -> list[array]:
        """The whole product table, one ``array('I')`` of product indices per
        row, gathered from :meth:`class_rows`.  It takes |S|^2 entries;
        only the definitional starred relations read it."""
        if self._rows is None:
            self._rows = [
                array("I", map(composed.__getitem__, class_of))
                for class_of, _, composed in self.class_rows()
            ]
        return self._rows

    def right_cayley(self) -> list[array]:
        """right[x] holds the distinct x*g for g in ``_gens``: see :func:`_right_cayley_graph`."""
        if self._right is None:
            self._gens, self._right = _right_cayley_graph(self)
        return self._right

    def left_cayley(self) -> list[array]:
        """left[x] holds the distinct g*x for the generators g in ``_gens``,
        built one column x at a time: x's vector, padded to a translate
        table, composes the generators' vectors joined in one buffer in one
        C call, and only the distinct products are looked up.  The right
        graph, built first, has found every product of S*S in the table,
        so the look-ups need no closure check."""
        if self._left is None:
            self.right_cayley()  # chooses the generators and checks closure
            vectors, index = self._vectors, self._index
            cut, zi, width = self.collapse_below, self.zero_index, self.n + 1
            joined = b"".join([vectors[g] for g in self._gens])
            per_generator = [slice(k, k + width) for k in range(0, len(joined), width)]
            pad = bytes(256 - width)
            look, left = index.__getitem__, []
            for v in vectors:
                column = joined.translate(v + pad)
                distinct = {column[s] for s in per_generator}
                left.append(array("I", map(look, distinct) if cut is None else {
                    zi if len(set(c)) <= cut else look(c) for c in distinct
                }))
            self._left = left
        return self._left

    def idempotent_indices(self) -> list[int]:
        return [i for i in range(len(self)) if self.product(i, i) == i]


def _generator_hint(table: SemigroupTable, heights: Sequence[int]) -> list[int]:
    """Indices of a seed for the generating set, from the table's shape: the
    3n-4 minimum generators of SS'(n) when the top height is n-1, else
    G(n,p) at the top height p; only the seed elements that are in the table.
    The seed only saves work; correctness never rests on it.  It walks the
    maps of SS'(n) at its heights (n-2 and n-1, or p) and squares each; a
    middle slice is a large share of SS'(n) (184,770 of the 518,859 maps at
    n=10, height 4), while the graphs of a table of |S| elements never take
    more than |S|^2 products, so a table with |S|^2 below that walk goes without.
    """
    n, top = table.n, max(heights)
    least = top - 1 if top == n - 1 else top  # the seed's least height
    if not 1 <= top <= n - 1 or len(table) ** 2 < sum(height_counts(n)[least:top + 1]):
        return []
    hint = ss_prime_minimal_generators(n) if top == n - 1 else generating_set_G(n, top)
    index = table._index
    return sorted(index[a.vector] for a in hint if a.vector in index)


def _right_cayley_graph(table: SemigroupTable) -> tuple[list[int], list[array]]:
    """A generating set A and the right Cayley graph over A, rows of distinct successors.

    Breadth-first search over right multiplications by A, starting from A,
    which is seeded by :func:`_generator_hint`.  Whenever the search ends
    with an element unreached, the first such element by descending height
    joins A and the search extends from it.  x*g depends on g only through
    g restricted to Im x, so x meets one generator per class of
    ``pmap._restriction_groups``, found once per image and batch of A, and
    distinct classes give distinct products; the zero, composed as the empty
    map, meets one.  Each class member has its representative's product,
    looked up in the table, which raises ValueError when it is missing.  So
    when this returns, S*A is within S and S = <A>, hence S*S is within S.
    """
    size, cut, vectors = len(table), table.collapse_below, table._vectors
    heights = [len(set(v)) - 1 for v in vectors]
    order = sorted(range(size), key=lambda i: -heights[i])
    right = [array("I") for _ in range(size)]
    done = [0] * size  # how many of the generators each element has met
    reached = [False] * size
    gens: list[int] = []
    tables: list[bytes] = []  # the generators' translate tables
    unreached = (i for i in order if not reached[i])
    pending = _generator_hint(table, heights) or list(islice(unreached, 1))
    while pending:
        gens += pending
        tables += [_table(vectors[g]) for g in pending]
        for g in pending:
            reached[g] = True
        by_image: dict = {}  # (image, generators met) -> class representatives
        # every reached element still lacks the new generators
        work = [x for x in range(size) if reached[x]]
        while work:
            x = work.pop()
            first, done[x] = done[x], len(gens)
            group = by_image.get(key := (frozenset(vectors[x]), first))
            if group is None:
                lacked = b"".join([vectors[g] for g in gens[first:]])
                _, classes, zero = _restriction_groups(vectors[x], lacked, cut)
                reps = [gens[first + c[0]] for c in classes]
                group = by_image[key] = reps, [tables[first + c[0]] for c in classes], zero
            row = table._row(x, *group)
            if first:  # a later batch: drop what the earlier ones gave
                row = [y for y in row if y not in right[x]]
            right[x].extend(row)
            for y in row:
                if not reached[y]:
                    reached[y] = True
                    work.append(y)
        pending = list(islice(unreached, 1))
    return gens, right


def build_table(
    elements: Iterable[PartialMap],
    collapse_below: int | None = None,
    verify: bool = True,
) -> SemigroupTable:
    """Intern an element set, checking closure (optionally under collapse).

    The elements are indexed in order of ``encode()``.  With
    ``collapse_below = p >= 1`` a zero is adjoined and every product of
    height < p is identified with it, realizing a Rees quotient.  Closure is
    checked by building the right Cayley graph, which raises on a missing
    product.  With ``verify=False`` that check happens on first use
    instead: a product table or Cayley graph raises then.
    """
    if collapse_below is not None and collapse_below < 1:
        raise ValueError(f"a Rees collapse needs a height >= 1, got {collapse_below}")
    elems = sorted(set(elements), key=lambda a: a.encode())
    if not elems:
        raise ValueError("empty element set")
    ambient_size(elems)
    table = SemigroupTable([a.vector for a in elems], collapse_below)
    if verify:
        table.right_cayley()  # raises on the first missing product
    return table


def target_table(n: int, target: str, p: int | None = None, lo: int | None = None) -> SemigroupTable:
    """The unverified table of SS'(n) ("ss-prime"), of its ideal K(n,p) of
    heights <= p ("ideal"), or of the Rees quotient on height p with
    everything lower collapsed to the zero ("quotient"); 1 <= p <= n-1.

    Every table holds the maps of heights lo..top, where top is n-1 for
    "ss-prime" and p otherwise, and lo defaults to the target's own least
    height: 0, or p for "quotient".  For lo >= 1 every product of height
    below lo is the zero, so the table is the Rees quotient of the target
    by its ideal K(n,lo-1).  It is one scan of those heights, read as
    blocks (``families._height_blocks``), whose vectors the table takes in
    the order they come, that of ``encode()``; no other map is made.
    """
    if target not in ("ss-prime", "ideal", "quotient"):
        raise ValueError(f"unknown target {target!r}")
    if n < 1:
        raise ValueError(f"a target table needs n >= 1, got n={n}")
    if target == "ss-prime":
        if p is not None:
            raise ValueError(f"target 'ss-prime' takes no height p (--p), got p={p}")
        top = n - 1
    elif p is None:
        raise ValueError(f"target {target!r} needs a height p (--p)")
    elif not 1 <= p <= n - 1:
        raise ValueError(f"target {target!r} needs 1 <= p <= n-1 (--p), got p={p}, n={n}")
    else:
        top = p
    least = p if target == "quotient" else 0
    if lo is None:
        lo = least
    elif not least <= lo <= top:
        raise ValueError(f"target {target!r} has heights {least}..{top}, not {lo}")
    return SemigroupTable([v for _, vecs in _height_blocks(n, lo, top) for v in vecs], lo or None)


class EqPartition(Record):
    """A partition of a table's element indices into classes."""

    __slots__ = _fields = ("class_id", "classes")

    def __init__(self, class_id: tuple[int, ...], classes: tuple[tuple[int, ...], ...]) -> None:
        Record.__init__(self, class_id, classes)

    @classmethod
    def from_keys(cls, keys: Sequence) -> "EqPartition":
        """Group indices by arbitrary hashable keys; each key is numbered
        the first time it is seen, so classes come in order of their
        smallest member."""
        ids: dict = {}
        cid = [ids.setdefault(key, len(ids)) for key in keys]
        classes: list = [[] for _ in ids]
        for i, c in enumerate(cid):
            classes[c].append(i)
        return cls(tuple(cid), tuple(map(tuple, classes)))

    def num_classes(self) -> int:
        return len(self.classes)

    def is_identity(self) -> bool:
        return all(len(c) == 1 for c in self.classes)

    def same_class(self, i: int, j: int) -> bool:
        return self.class_id[i] == self.class_id[j]

    def class_of(self, i: int) -> tuple[int, ...]:
        return self.classes[self.class_id[i]]

    def to_json(self, table: SemigroupTable, relation: str) -> str:
        return json.dumps(
            {
                "relation": relation,
                "classes": [
                    [table.elements[i].encode() for i in cls_] for cls_ in self.classes
                ],
            }
        )


# -- classical Green's relations ----------------------------------------


def _scc_partition(size: int, successors) -> EqPartition:
    """The strongly connected components of the digraph given by a
    successor function, as a partition: Tarjan's search, iterative, in
    Pearce's variant with one array.  ``rindex[v]`` is 0 until v is
    visited; while v's component is open, the least open visit index that
    v reaches; once it closes, the component's number, counted down from
    size-1.  Open indices are reused and stay below every closed number, so
    a closed successor lowers nothing; number 0 goes only to the last vertex
    closed when all are singletons, and no search reads it.  Each frame
    keeps its low in a local."""
    rindex = [0] * size
    closing: list[int] = []  # visited, not a root, component still open
    index, number = 1, size - 1
    for root in range(size):
        if rindex[root]:
            continue
        rindex[root] = low = index
        index += 1
        v, it, work = root, iter(successors(root)), []
        while True:
            for w in it:
                r = rindex[w]
                if not r:
                    work.append((v, it, low))
                    rindex[w] = low = index
                    index += 1
                    v, it = w, iter(successors(w))
                    break
                if r < low:
                    low = r
            else:  # v is finished
                if low < rindex[v]:
                    rindex[v] = low
                    closing.append(v)
                else:  # v is the root of its component
                    while closing and rindex[closing[-1]] >= low:
                        rindex[closing.pop()] = number
                        index -= 1
                    rindex[v] = number
                    number -= 1
                    index -= 1
                if not work:
                    break
                r = rindex[v]
                v, it, low = work.pop()
                if r < low:
                    low = r
    return EqPartition.from_keys(rindex)


def green(table: SemigroupTable, which: GreenName) -> EqPartition:
    """Classical Green's relation from the Cayley graphs over a generating
    set A of the table.

    a and b are L-related iff each lies in the other's principal left ideal
    S^1 a.  Every x in S is a product g1...gk of generators, so b = x a iff
    a path of left multiplications by generators leads from a to b: L is
    the strongly connected components of the left Cayley graph, R those of
    the right one, J those of their union.  H = L intersect R; D = join of
    L and R.
    """
    size = len(table)
    if which == "L":
        return _scc_partition(size, table.left_cayley().__getitem__)
    if which == "R":
        return _scc_partition(size, table.right_cayley().__getitem__)
    if which == "J":
        left, right = table.left_cayley(), table.right_cayley()
        return _scc_partition(size, lambda i: chain(left[i], right[i]))
    if which == "H":
        lcl = green(table, "L").class_id
        rcl = green(table, "R").class_id
        return EqPartition.from_keys(list(zip(lcl, rcl)))
    if which == "D":
        # join of L and R: step from each element to the next member of its
        # L-class and of its R-class, cyclically; D is mutual reachability
        steps = []
        for relation in ("L", "R"):
            step = array("I", [0]) * size
            for members in green(table, relation).classes:
                for a, b in zip(members, members[1:] + members[:1]):
                    step[a] = b
            steps.append(step)
        left_step, right_step = steps
        return _scc_partition(size, lambda i: (left_step[i], right_step[i]))
    raise ValueError(f"unknown Green relation {which!r}")


# -- starred relations ----------------------------------------------------


def starred_definitional(table: SemigroupTable, which: Literal["Lstar", "Rstar"]) -> EqPartition:
    """L* / R* straight from the cancellation biconditional over S^1.

    a L* b iff for all x, y in S^1: ax = ay <=> bx = by; equivalently the
    equivalence x ~ y <=> ax = ay on S^1 is the same for a and b, so we
    fingerprint that equivalence per element and group.  The formal identity
    1 of S^1 is never materialized: a1 = a opens each fingerprint, then a's
    row of the product table for L*, or its column for R*.
    """
    if which not in ("Lstar", "Rstar"):
        raise ValueError(f"definitional variant only for Lstar/Rstar, got {which!r}")
    rows = table.full_table()
    keys = []
    for a in range(len(rows)):
        seen = {a: 0}  # a1 = 1a = a, 1 the adjoined identity
        products = rows[a] if which == "Lstar" else [row[a] for row in rows]
        keys.append(tuple(seen.setdefault(x, len(seen)) for x in products))
    return EqPartition.from_keys(keys)


def starred_characterized(table: SemigroupTable, which: StarName) -> EqPartition:
    """L*, R*, H*, D* via their structural characterizations on this family.

    On SS'(n) and its ideals K(n,p), L* is equal image, R* equal kernel
    (``PartialMap.kernel``), H* = L* & R* and D* equal height.  A map is its
    kernel vector with each rank replaced by the image value of that rank,
    so H* there is equality.

    On the Rees quotient RSS'(n,p), S the maps of height p and 0 the zero,
    R* is still equal kernel and D* still puts all of S in one class, but L*
    is equal image only for the maps a with 1 not in Im a, and puts every a
    with 1 in Im a in one class.  The zero is a class of its own in every
    relation.  Proof: a L* b iff the equivalence x ~ y <=> ax = ay on S^1 is
    the same for a and b.
    (i) If 1 is in Im a, then aS = {0}: 1 is in no domain, so the map a*s
    has height at most |Im a & Dom s| <= p-1 and collapses to 0; and
    a*1 = a != 0.  So every such a gives the two classes {1} and S.
    (ii) If 1 is not in Im a, the partial identity e on Im a lies in S and
    a*e = a = a*1, so 1 ~ e, unlike in (i); and a*e = a != 0 = a*0, while
    the zero gives one class, S^1.  So the three kinds are never related.
    (iii) Let 1 not be in I = Im a.  Each point of I is a value of a, so the
    map a*x (before the collapse) determines x restricted to I, and its
    height is |x(I & Dom x)|, which depends on I and that restriction only.
    So if Im b = I as well, ax = ay iff bx = by for all x, y in S^1 (with
    a*0 = 0 and a*1 = a*e).  Conversely, if a L* b then a*e = a*1 gives
    b*e = b, so Im b lies in Im a, and both have p points.
    """
    if which not in ("Lstar", "Rstar", "Hstar", "Dstar"):
        raise ValueError(f"unknown starred relation {which!r}")
    quotient = table.collapse_below is not None

    def lstar(v: bytes):  # the image, read from the vector with 0
        return "aS = 0" if quotient and 1 in v else frozenset(v)

    def key(v: bytes):
        if which == "Lstar":
            return lstar(v)
        if which == "Rstar":
            return kernel_vector(v)
        if which == "Hstar":
            return lstar(v), kernel_vector(v)
        return len(set(v)) - 1

    zi = table.zero_index
    return EqPartition.from_keys([ZERO if i == zi else key(v) for i, v in enumerate(table._vectors)])


# -- abundance -------------------------------------------------------------


class AbundanceReport(Record):
    """Whether each R*-class and each L*-class of a table holds an
    idempotent: the idempotent count of each R*-class, and the first
    L*-class with none, or None."""

    __slots__ = _fields = (
        "right_abundant", "left_abundant", "rstar_idempotent_counts", "lstar_witness"
    )

    def __init__(
        self,
        right_abundant: bool,
        left_abundant: bool,
        rstar_idempotent_counts: tuple[int, ...],
        lstar_witness: tuple[int, ...] | None,
    ) -> None:
        Record.__init__(self, right_abundant, left_abundant, rstar_idempotent_counts, lstar_witness)

    @property
    def unique_idempotent_per_rstar(self) -> bool:
        return all(c == 1 for c in self.rstar_idempotent_counts)


def abundance_report(table: SemigroupTable) -> AbundanceReport:
    """Idempotent census per starred class (characterized fast path, so it
    scales past the definitional guard)."""
    idem = set(table.idempotent_indices())
    rstar = starred_characterized(table, "Rstar")
    lstar = starred_characterized(table, "Lstar")
    rcounts = tuple(sum(1 for i in cls_ if i in idem) for cls_ in rstar.classes)
    witness = next((c for c in lstar.classes if not any(i in idem for i in c)), None)
    return AbundanceReport(
        right_abundant=all(c >= 1 for c in rcounts),
        left_abundant=witness is None,
        rstar_idempotent_counts=rcounts,
        lstar_witness=witness,
    )
