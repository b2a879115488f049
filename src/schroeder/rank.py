"""Generation, closure, and rank computation for the small Schroeder
semigroup, its two-sided ideals K(n,p), and their Rees quotients.

The rank oracle is independent of the closed-form results it checks: it
collects the *essential* elements (those admitting no factorization avoiding
themselves, hence forced into every generating set), bounds the rank below
by them plus a greedy packing of pairwise disjoint factor constraints that
avoid them, and certifies the minimum when the essentials with one generator
per packed constraint generate; when the essentials generate, no constraint
avoids them.  ``rank_layered`` runs the oracle on the top-layer Rees
quotient of a target first, and keeps its rank when the certified set
generates the whole target.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING

from ._record import Record
from .families import (
    Family,
    FamilySpec,
    binom,
    enumerate_family,
    formula_rstar_classes,
    height_counts,
)
from .pmap import (
    PartialMap,
    alpha_i,
    alpha_ik,
    closure,
    closure_vectors,
    compose,
    eps_1k,
    is_requisite,
    member_ss_prime,
    requisite_from_image,
)

if TYPE_CHECKING:
    from .green import SemigroupTable

__all__ = [
    "closure_indices",
    "essential_elements",
    "RankResult",
    "rank_oracle",
    "rank_layered",
    "formula_rank_quotient",
    "formula_rank_ideal",
    "factor_via_requisite",
    "lift_requisite",
    "verify_ss1_witnesses",
    "verify_theorem_hq",
]


def closure_indices(table: SemigroupTable, gen_indices) -> set[int]:
    """Subsemigroup generated by the given indices, inside a built table
    (so Rees-quotient products collapse correctly).

    x*g depends on g only through its restriction class in row x (see
    ``SemigroupTable.class_rows``), so each reached x is expanded once per
    distinct class of the generators.  Rows of one image share their
    ``class_of``, so those classes are found once per image."""
    rows = table.class_rows()
    gens = sorted(set(gen_indices))
    seen = set(gens)
    work = list(gens)
    gen_classes: dict = {}  # id of a shared class_of -> the generators' classes
    while work:
        class_of, _, composed = rows[work.pop()]
        classes = gen_classes.get(id(class_of))
        if classes is None:
            classes = gen_classes[id(class_of)] = {class_of[g] for g in gens}
        for c in classes:
            s = composed[c]
            if s not in seen:
                seen.add(s)
                work.append(s)
    return seen


def essential_elements(table: SemigroupTable) -> set[int]:
    """Indices with no factorization g = a * b where a != g and b != g.

    Every generating set must contain each of these: in a shortest
    expression of g over generators not containing g, the final product
    would exhibit forbidden factors.  Read per restriction class of each
    row (see ``SemigroupTable.class_rows``): the class C of row u with
    product s factors s as u * b with b != s for some b in C iff s != u and
    C holds a member other than s.
    """
    size = len(table)
    decomposable = [False] * size
    for u, (_, members, composed) in enumerate(table.class_rows()):
        for c, s in enumerate(composed):
            if s != u and not decomposable[s] and (len(members[c]) > 1 or members[c][0] != s):
                decomposable[s] = True
    return {i for i in range(size) if not decomposable[i]}


class RankResult(Record):
    """What the rank oracle found for a table: the rank, or None when it
    could not certify one, the essential elements, and a generating set of
    that size, all as indices of the table."""

    __slots__ = _fields = ("rank", "essential", "certified", "generating_set", "notes")

    def __init__(
        self,
        rank: int | None,
        essential: frozenset,
        certified: bool,
        generating_set: tuple[int, ...],
        notes: str = "",
    ) -> None:
        Record.__init__(self, rank, essential, certified, generating_set, notes)


def _factor_constraints(table: SemigroupTable, essential: set[int]) -> list[tuple]:
    """The constraints on any generating set A that avoid the given
    essentials, each ``(s, parts)``: s and the members of the arrays in parts.

    Take a shortest expression s = g1 ... gk over A of an element s not in
    A; then k >= 2, the prefix u = g1...g_{k-1} and the suffix v = g2...gk
    lie in S and differ from s (else a shorter expression exists).  Hence A
    must meet both
        {s} | {g != s : exists u != s with u g = s}   (last factor)
        {s} | {g != s : exists v != s with g v = s}   (first factor)
    for every s.  Any set of pairwise disjoint constraints avoiding the
    essentials therefore adds its count to a sound lower bound on the rank.
    The zero of a Rees quotient gets no constraints: nearly every product
    there is the zero, and any subset of the constraints still bounds the
    rank below.  A last-factor constraint keeps each member array of
    ``class_rows`` it unites once (rows of one image share them), a
    first-factor one an ``array('I')`` of its rows u (a row's classes have
    distinct products); each is dropped at its first essential class or row.
    """
    # None marks a constraint never emitted: it meets the essentials, or s is the zero
    size, dropped = len(table), essential | {table.zero_index}
    pred_right: list[dict | None] = [None if s in dropped else {} for s in range(size)]
    pred_left: list[array | None] = [None if s in dropped else array("I") for s in range(size)]
    hits: dict = {}  # id of a shared class_of -> the classes holding an essential
    for u, (class_of, members, composed) in enumerate(table.class_rows()):
        u_essential = u in essential
        if (hit := hits.get(id(class_of))) is None:
            hit = hits[id(class_of)] = {class_of[e] for e in essential}
        for c, s in enumerate(composed):
            # as in essential_elements; s, which its constraints hold, may be a factor
            if s != u and (len(factors := members[c]) > 1 or factors[0] != s):
                right = pred_right[s]  # id of a member array -> the array
                if right is not None and id(factors) not in right:
                    if c in hit:
                        pred_right[s] = None
                    else:
                        right[id(factors)] = factors
                if u_essential:
                    pred_left[s] = None
                elif (left := pred_left[s]) is not None:
                    left.append(u)
    out = []
    for s in range(size):
        if (right := pred_right[s]) is not None:
            out.append((s, right.values()))
        if (left := pred_left[s]) is not None:
            out.append((s, (left,)))
    return out


def _disjoint_packing(constraints: list[tuple]) -> list[int]:
    """The least member of each of a greedy packing of pairwise disjoint
    constraints, by size and then in the given order: each needs its own
    hitter, so their count lower-bounds any hitting set.  A constraint that
    strictly contains another is sorted after it and meets that one or
    whatever blocked it, so only minimal constraints are picked.  Each union
    is dropped once sized; disjointness is tested part by part."""
    order = sorted((len({s}.union(*parts)), i) for i, (s, parts) in enumerate(constraints))
    used: set[int] = set()
    packed = []
    for _, i in order:
        s, parts = constraints[i]
        if s not in used and all(map(used.isdisjoint, parts)):
            members = {s}.union(*parts)
            used |= members
            packed.append(min(members))
    return packed


def rank_oracle(table: SemigroupTable) -> RankResult:
    """Minimum size of a generating set, certified when possible.

    Essential elements (no factorization avoiding themselves) are forced
    into every generating set, and each first/last factor constraint that
    avoids them needs a generator outside them, so the essentials plus a
    greedy packing of pairwise disjoint constraints is a sound lower bound.
    The candidate is the essentials plus the least index of each packed
    constraint, as ``_disjoint_packing`` picks it, so its size is the bound;
    it is certified if it generates the table, else ``notes`` has the bound.
    When the essentials generate, no constraint avoids them: every other
    element has a shortest expression over them, with essential end factors.
    """
    essential = essential_elements(table)
    candidate = essential | set(_disjoint_packing(_factor_constraints(table, essential)))
    certified = len(closure_indices(table, candidate)) == len(table)
    return RankResult(
        rank=len(candidate) if certified else None,
        essential=frozenset(essential),
        certified=certified,
        generating_set=tuple(sorted(candidate)) if certified else (),
        notes="" if certified else
        f"lower bound {len(candidate)} (disjoint constraints); no generating set of that size found",
    )


def rank_layered(
    n: int, target: str, p: int | None = None
) -> tuple[RankResult, SemigroupTable]:
    """The rank of a target of ``green.target_table``, certified from its
    top layers, and the table whose indices the result refers to.

    For lo = top, top-1, ..., 1, where top is the target's greatest height,
    Q is the target's Rees quotient by its ideal K(n,lo-1): heights lo..top,
    with the rest collapsed to the zero.  A generating set of the target
    maps onto one of Q, so rank(Q) <= rank(target).  When ``rank_oracle``
    certifies rank(Q) with a set of maps (the zero not among them) whose
    closure in SS'(n) reaches every map of the target, that set bounds
    rank(target) above as well, and the two are equal.  Otherwise lo steps
    down; at lo = 0 the table is the whole target and ``rank_oracle``'s
    result stands.  The target's order comes from ``height_counts``, not
    from a closed form.  A quotient target is its own top layer.
    """
    # the one function here that builds a table: the library's closure and
    # theorem checks run without compiling green
    from .green import target_table

    top = n - 1 if target == "ss-prime" else p
    lo = top
    while True:
        table = target_table(n, target, p, lo)
        result = rank_oracle(table)
        if not lo or target == "quotient":
            return result, table
        if result.certified and table.zero_index not in result.generating_set:
            gens = [table.element(i) for i in result.generating_set]
            if len(closure_vectors(gens)) == sum(height_counts(n)[: top + 1]):
                return result, table
        lo -= 1


# -- closed forms ----------------------------------------------------------


def formula_rank_quotient(n: int, p: int) -> int:
    """Rank of the Rees quotient at height p: C(n-1,p-1) plus the
    R*-classes of height p, sum_{r=p}^{n-1} C(n-1,r) C(r-1,p-1)."""
    if not 1 <= p <= n - 1:
        raise ValueError(f"need 1 <= p <= n-1, got p={p}, n={n}")
    return binom(n - 1, p - 1) + formula_rstar_classes(n, p)


def formula_rank_ideal(n: int, p: int) -> int:
    """Rank of the ideal K(n,p); same closed form, valid for p <= n-2 only
    (at p = n-1 the ideal is the whole semigroup, whose rank is 3n-4)."""
    if not 1 <= p <= n - 2:
        raise ValueError(
            f"ideal rank formula needs 1 <= p <= n-2 (got p={p}, n={n}); "
            "use rank_oracle on the full semigroup for the top height"
        )
    return formula_rank_quotient(n, p)


# -- explicit constructions -------------------------------------------------


def factor_via_requisite(a: PartialMap) -> tuple[PartialMap, PartialMap]:
    """Write a = b * r where r is the unique requisite element sharing a's
    image and b shares a's kernel.

    Only images of the shape {1, ..., i-1} followed by a tail admit a
    requisite, so this covers exactly the maps whose least image point is 1
    (plus partial-identity-like degenerate cases).
    """
    if not member_ss_prime(a) or not a.pairs:
        raise ValueError("factorization needs a nonempty isotone decreasing map avoiding 1")
    req = requisite_from_image(a.n, a.image())  # raises if no requisite shape
    i = a.height() - len(req.fixed_points())  # i-1 shifted image points
    # the block of rank r (r <= i: a shifted image point) maps one step up
    # to r+1; tail blocks keep their value
    b = PartialMap(a.n, tuple(
        (d, r + 1 if r <= i else x) for d, (x, r) in enumerate(zip(a.vector, a.kernel())) if x
    ))
    return b, req


def lift_requisite(a: PartialMap) -> tuple[PartialMap, PartialMap]:
    """Express a height-p requisite as beta * gamma with beta an idempotent
    and gamma a requisite, both of height p+1.

    Needs two spare points outside Dom a and Im a (i.e. p <= n-3): the
    smaller becomes an extra fixed point of beta, the larger of gamma.
    """
    if not is_requisite(a):
        raise ValueError("lift is defined for requisite elements only")
    used = set(a.domain()) | set(a.image())
    spare = [x for x in range(1, a.n + 1) if x not in used]
    if len(spare) < 2:
        raise ValueError("lift undefined; complement too small (needs height <= n-3)")
    d, c = spare[0], spare[1]
    beta = PartialMap.of(a.n, {x: x for x in (*a.domain(), d)})
    gamma = PartialMap.of(a.n, {**a.as_dict(), c: c})
    return beta, gamma


# -- lemma-level verifications ----------------------------------------------


def verify_ss1_witnesses(n: int) -> bool:
    """Check the witness identities behind the minimum generating set:
    eps_{1,k} * alpha_i == alpha_{i,k} for all 2 <= i < k <= n, and
    alpha_2 squared is the partial identity missing point 2."""
    if n < 4:
        raise ValueError("need n >= 4")
    ok = all(
        compose(eps_1k(n, k), alpha_i(n, i)) == alpha_ik(n, i, k)
        for i in range(2, n + 1)
        for k in range(i + 1, n + 1)
    )
    a2 = alpha_i(n, 2)
    return ok and compose(a2, a2) == eps_1k(n, 2)


def verify_theorem_hq(n: int) -> bool:
    """Idempotents generate every map avoiding 1 in its image, and together
    with the requisite elements they generate everything; e is idempotent
    iff e*e == e."""
    ss = enumerate_family(FamilySpec(Family.SS_PRIME, n))
    idems = [a for a in ss if a.is_idempotent()]
    avoid1 = {a for a in ss if 1 not in a.image()}
    if not avoid1 <= closure(idems):
        return False
    reqs = [a for a in ss if is_requisite(a)]
    return closure(idems + reqs) == set(ss)
