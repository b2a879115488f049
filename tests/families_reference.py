"""The references ``schroeder.families`` is checked against: the
depth-first stack walk that builds every code and vector from its parent's,
one map at a time, for the block scan, and the census that reads every byte
vector of SS'(n), for the key census."""

import itertools
from typing import Iterable, Iterator

from schroeder.families import Census
from schroeder.pmap import _RANKS


def scan_reference(n: int, pool: tuple[int, ...], lo: int, hi: int) -> Iterator[tuple[str, bytes]]:
    """The code and byte vector of every isotone order-decreasing map of
    {1..n} whose domain lies in the pool and whose height lies in lo..hi,
    in canonical text order.

    A node is a prefix "d1:v1,...,dk:vk" of a code; its children append
    "d:v" with d > dk in the pool and max(vk,1) <= v <= d, visited in the
    string order of "d:" and then of str(v), and each node comes before its
    children.  A child whose height passes hi, or whose remaining points
    can no longer lift it to lo, is pruned.  An explicit stack carries each
    node's code and vector."""
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


def census_reference(vectors: Iterable[bytes]) -> Census:
    """All the counts of :class:`Census` in one pass over the byte vectors of
    SS'(n), listed or streamed; no map is built.  Each kernel is counted by
    its kernel vector, ranked as :func:`pmap.kernel_vector` ranks it through
    the sorted image.  That rank table and the height are made once per
    distinct image, the key the image count needs anyway."""
    vectors = iter(vectors)
    first = next(vectors, None)
    if first is None:
        raise ValueError("census needs at least one map")
    kernels: list[set] = [set() for _ in range(len(first) - 1)]
    # per distinct image: its rank table and the kernels of its height
    ranks: dict[frozenset, tuple[bytes, set]] = {}
    order = 0
    for order, v in enumerate(itertools.chain((first,), vectors), 1):
        image = frozenset(v)
        rank = ranks.get(image)
        if rank is None:
            values = bytes(sorted(image))  # led by v[0] = 0, which keeps rank 0
            rank = ranks[image] = (bytes.maketrans(values, _RANKS[:len(values)]), kernels[len(values) - 1])
        rank[1].add(v.translate(rank[0]))
    images = [0] * len(kernels)
    for image in ranks:
        images[len(image) - 1] += 1
    return Census(order, tuple(map(len, kernels)), tuple(images))
