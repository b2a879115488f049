"""References for the tests of ``schroeder.green``: the Cayley graphs with
one successor per generator, grouping by keys with a sort, strongly
connected components by a search from every node, binary relations on a
table's element indices, composed pair by pair, to check D* = L* o R* o L*,
the regular elements read off the L-classes, and every target and layer
table of SS'(n)."""

from itertools import islice

from schroeder import ZERO, EqPartition, SemigroupTable, green
from schroeder.green import _generator_hint, target_table


def right_cayley_reference(table: SemigroupTable) -> tuple[list[int], list[list[int]]]:
    """A generating set A of the table and its right Cayley graph over A,
    right[x] listing x*g for every g in A, in its order.

    Breadth-first search over right multiplications by A, starting from the
    seed of ``_generator_hint``; whenever the search ends with an element
    unreached, the first such element by descending height joins A and the
    search extends from it.  Every x*g is looked up in the table."""
    size = len(table)
    heights = [-1 if a is ZERO else a.height() for a in table.elements]
    order = sorted(range(size), key=lambda i: -heights[i])
    right: list[list[int]] = [[] for _ in range(size)]
    reached = [False] * size
    members: list[int] = []
    gens: list[int] = []
    unreached = (i for i in order if not reached[i])
    pending = _generator_hint(table, heights) or list(islice(unreached, 1))
    while pending:
        gens += pending
        for g in pending:
            reached[g] = True
        members += pending
        work = list(members)  # every member still lacks the new generators
        while work:
            x = work.pop()
            row = table.products(x, gens[len(right[x]):])
            right[x] += row
            for y in row:
                if not reached[y]:
                    reached[y] = True
                    members.append(y)
                    work.append(y)
        pending = list(islice(unreached, 1))
    return gens, right


def left_cayley_reference(table: SemigroupTable, gens: list[int]) -> list[tuple[int, ...]]:
    """left[x] lists g*x for every g in ``gens``, in their order."""
    columns = range(len(table))
    return list(zip(*(table.products(g, columns) for g in gens)))


def partition_reference(keys) -> EqPartition:
    """Indices grouped by key, the groups sorted, and each index given the
    position of its group."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    classes = sorted(groups.values())
    cid = [0] * len(keys)
    for c, members in enumerate(classes):
        for i in members:
            cid[i] = c
    return EqPartition(tuple(cid), tuple(tuple(m) for m in classes))


def scc_reference(size: int, successors) -> EqPartition:
    """The strongly connected components of a digraph: the nodes reachable
    from each node by a search of its own, and u, v together when each
    reaches the other."""
    reach = []
    for source in range(size):
        seen, todo = {source}, [source]
        while todo:
            for w in successors(todo.pop()):
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach.append(seen)
    return partition_reference(
        [frozenset(v for v in reach[u] if u in reach[v]) for u in range(size)]
    )


class BinRelation:
    """A binary relation on element indices 0..size-1."""

    def __init__(self, size: int, pairs: frozenset) -> None:
        self.size = size
        self.pairs = pairs

    def __contains__(self, pair) -> bool:
        return pair in self.pairs


def partition_as_relation(p: EqPartition) -> BinRelation:
    pairs = set()
    for cls_ in p.classes:
        for a in cls_:
            for b in cls_:
                pairs.add((a, b))
    return BinRelation(len(p.class_id), frozenset(pairs))


def compose_relations(r1: BinRelation, r2: BinRelation) -> BinRelation:
    """(a, c) in r1 o r2 iff exists b with (a, b) in r1 and (b, c) in r2."""
    if r1.size != r2.size:
        raise ValueError("universe mismatch")
    by_first: dict[int, set[int]] = {}
    for b, c in r2.pairs:
        by_first.setdefault(b, set()).add(c)
    out = set()
    for a, b in r1.pairs:
        for c in by_first.get(b, ()):
            out.add((a, c))
    return BinRelation(r1.size, frozenset(out))


def relations_equal(r1: BinRelation, r2: BinRelation) -> bool:
    return r1.size == r2.size and r1.pairs == r2.pairs


def regular_indices(table: SemigroupTable) -> list[int]:
    """Indices of regular elements: a with a b a == a for some b.

    In any semigroup a is regular iff its L-class holds an idempotent: if
    a b a = a then e = b a is idempotent and a = a e, e = b a; if a L e with
    e idempotent, a = x e and e = y a, then a e = a and a y a = a.
    """
    class_id = green(table, "L").class_id
    with_idempotent = {class_id[e] for e in table.idempotent_indices()}
    return [i for i in range(len(table)) if class_id[i] in with_idempotent]


def target_and_layer_tables(n):
    """Every target table of SS'(n), and every layer of each, as in
    ``rank_layered``: (label, table)."""
    for target, ps in [("ss-prime", [None]), ("ideal", range(1, n)), ("quotient", range(1, n))]:
        for p in ps:
            top = n - 1 if p is None else p
            for lo in range(p if target == "quotient" else 0, top + 1):
                yield f"{target} p={p} lo={lo}", target_table(n, target, p, lo)
