"""The census of SS'(n) from prefix and suffix keys: the engine behind
:func:`families.census` and :func:`families.count_idempotents`.  They import
it on their first call, so that a command that counts nothing does not
compile it: every CLI child compiles the package when no bytecode is
written, and the largest module sets the peak of that compile.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from operator import add, eq, itemgetter

from .families import _blocks, _height_blocks
from .pmap import _RANKS

# the rank table and the split value (u of a suffix, v of a prefix) of an
# image's info
_table, _value = itemgetter(0), itemgetter(1)


class PerImage(dict):
    """``info(values)`` per distinct image of a byte vector, values being
    the image with 0, sorted; made on the first lookup of the image."""

    def __init__(self, info) -> None:
        super().__init__()
        self.info = info

    def __missing__(self, image: frozenset) -> tuple:
        self[image] = made = self.info(sorted(image))
        return made

    def of(self, vecs: list[bytes]) -> list[tuple]:
        """The info of each vector."""
        return list(map(self.__getitem__, map(frozenset, vecs)))


def suffix_keys(n: int, m: int) -> tuple[Counter, Counter, set[tuple[bytes, int]], dict[int, set[int]]]:
    """The maps on the points m..n with values from 1, by least value u
    (n+1 for the empty map), from one scan: how many have each u, how many
    pass the idempotence test under v = u (under every v if no value lies
    below m), the pairs (kernel vector, u), and the image masks by u."""
    fixed, pad = _RANKS[:m], bytes(255 - n)
    count, idem, kernels, masks = Counter(), Counter(), set(), {}

    def info(values):
        u = values[1] if len(values) > 1 else n + 1
        masks.setdefault(u, set()).add(sum(1 << w for w in values))
        return bytes.maketrans(bytes(values), _RANKS[:len(values)]), u, sum(0 < w < m for w in values) < 2

    per_image = PerImage(info)
    for _, vecs in _blocks(n, tuple(range(m, n + 1)), 0, n):
        infos = per_image.of(vecs)
        us = list(map(_value, infos))
        count.update(us)
        kernels.update(zip(map(bytes.translate, vecs, map(_table, infos)), us))
        idem.update([u for s, (_, u, low) in zip(vecs, infos) if low and s.translate(fixed + s[m:] + pad) == s])
    return count, idem, kernels, masks


def prefix_keys(m: int) -> tuple[Counter, Counter, set[tuple[bytes, int]], dict[int, int]]:
    """The members of SS'(m-1) by their greatest value v, from one scan:
    how many have each v, how many are idempotent (one squaring each), the
    pairs (kernel vector, v), and v per image mask."""
    pad = itertools.repeat(bytes(256 - m))
    count, idem, kernels, masks = Counter(), Counter(), set(), {}

    def info(values):
        masks[sum(1 << w for w in values)] = values[-1]
        return bytes.maketrans(bytes(values), _RANKS[:len(values)]), values[-1]

    per_image = PerImage(info)
    for _, vecs in _height_blocks(m - 1, 0, m - 2):
        infos = per_image.of(vecs)
        vs = list(map(_value, infos))
        count.update(vs)
        kernels.update(zip(map(bytes.translate, vecs, map(_table, infos)), vs))
        idem.update(itertools.compress(vs, map(eq, map(bytes.translate, vecs, map(add, vecs, pad)), vecs)))
    return count, idem, kernels, masks


@functools.lru_cache(maxsize=1)
def key_census(n: int, m: int) -> tuple[int, tuple[int, ...], tuple[int, ...], int]:
    """The order of SS'(n), its numbers of distinct kernels and of distinct
    images per height, and its idempotents, each map counted through its
    split at the point m, 2 <= m <= n+1, into a prefix P on the points
    2..m-1 and a suffix S on m..n, whose values are at least v = max Im P
    (0 for an empty prefix).  By isotony:

    - the height is |Im P| plus the number of values of S other than v;
    - the image is Im P | Im S;
    - the kernel vector is P's, then the relative kernel of S (its values
      ranked in {v} | Im S) shifted by |Im P|, so the pair of P's kernel
      vector and S's relative kernel determines it and is determined by it;
    - the map is idempotent iff P is, each value of S below m is v, and
      each value of S from m up is a fixed point of S (P fixes no point
      above v).

    The prefixes are the members of SS'(m-1), and the suffixes are scanned
    once, as the maps on the points m..n, each filed under its least value
    u: it is a suffix under every v <= u, and v lies in Im S exactly when
    v = u.  So under v the relative kernel of S is its kernel vector with
    the flag v = u, and S adds max(kernel vector) - (v = u) to the height.
    Each prefix then combines keys only.  The last call is kept:
    ``invariants`` asks for the census and the idempotents of one n."""
    count, idem, kernels, masks = suffix_keys(n, m)
    pcount, pidem, pkernels, pmasks = prefix_keys(m)
    order = sum(c * sum(k for u, k in count.items() if u >= v) for v, c in pcount.items())
    idempotents = sum(c * sum(k for u, k in idem.items() if u == v or u >= m) for v, c in pidem.items())
    # an image mask holds bit 0, as every image above holds the value 0
    under = {v: [x for u, xs in masks.items() if u >= v for x in xs] for v in range(m)}
    image_masks: set[int] = set()
    for mask, v in pmasks.items():
        image_masks.update([mask | x for x in under[v]])
    images = [0] * n
    for mask in image_masks:
        images[mask.bit_count() - 1] += 1
    # per prefix kernel vector, the values v its prefixes end on
    ends: dict[bytes, set[int]] = {}
    for k, v in pkernels:
        ends.setdefault(k, set()).add(v)
    added: dict[frozenset, Counter] = {}
    kernel_counts = [0] * n
    for (h, vs), c in Counter((max(k), frozenset(vs)) for k, vs in ends.items()).items():
        if vs not in added:
            # the relative kernels of the suffixes under some v of vs
            least = min(vs)
            keys = {(k, False) for k, u in kernels if u > least} | {(k, True) for k, u in kernels if u in vs}
            added[vs] = Counter(max(k) - touch for k, touch in keys)
        for a, x in added[vs].items():
            kernel_counts[h + a] += c * x
    return order, tuple(kernel_counts), tuple(images), idempotents


def split_point(n: int) -> int:
    """The split point m of the key census of SS'(n): about 2(n+1)/3, where
    the prefixes, SS'(m-1), and the suffixes are of one order of size.  On
    a 2-vCPU VM, in-process: n = 8 takes 3.0 ms at m = 6 against 4.8 ms at
    5 and 3.6 ms at 7; n = 19 takes 27 s and 467 MB at m = 13, where m = 12
    scans 9.5 million suffixes and m = 14 71 million prefixes."""
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    return max(2, (2 * n + 2) // 3)
