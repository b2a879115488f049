"""Tools for the semigroup of isotone, order-decreasing partial
transformations of the chain {1..n} whose domain avoids 1: enumeration of
the semigroup, its ideals and Rees quotients; Green's and starred Green's
relations; abundance diagnostics; and certified rank computations checked
against closed-form counts.
"""

from .families import (
    Family, FamilySpec, binom, count_idempotents, count_lstar_classes,
    count_rstar_classes, enumerate_family, formula_idempotents,
    formula_rstar_classes, generating_set_G, schroeder_small,
    ss_prime_minimal_generators, verify_identity_corollary,
)
from .green import (
    ZERO, AbundanceReport, EqPartition, NotClosedError, SemigroupTable, Zero,
    abundance_report, build_table, green, starred_characterized,
    starred_definitional,
)
from .pmap import (
    PartialMap, alpha_i, alpha_ik, closure, compose, eps_1k, is_requisite,
    left_identity, member_ss_prime, parse, pseudo_inverse, requisite,
    requisite_from_image, shift_embed,
)
from .rank import (
    RankResult, closure_indices, essential_elements, factor_via_requisite,
    formula_rank_ideal, formula_rank_quotient, lift_requisite, rank_layered,
    rank_oracle, verify_ss1_witnesses, verify_theorem_hq,
)

# the public contract, with the CLI and the README schemas
__all__ = [
    "Family", "FamilySpec", "binom", "count_idempotents",
    "count_lstar_classes", "count_rstar_classes", "enumerate_family",
    "formula_idempotents", "formula_rstar_classes", "generating_set_G",
    "schroeder_small", "ss_prime_minimal_generators",
    "verify_identity_corollary",
    "ZERO", "AbundanceReport", "EqPartition", "NotClosedError",
    "SemigroupTable", "Zero", "abundance_report", "build_table", "green",
    "starred_characterized", "starred_definitional",
    "PartialMap", "alpha_i", "alpha_ik", "closure", "compose", "eps_1k",
    "is_requisite", "left_identity", "member_ss_prime", "parse",
    "pseudo_inverse", "requisite", "requisite_from_image", "shift_embed",
    "RankResult", "closure_indices", "essential_elements",
    "factor_via_requisite", "formula_rank_ideal", "formula_rank_quotient",
    "lift_requisite", "rank_layered", "rank_oracle", "verify_ss1_witnesses",
    "verify_theorem_hq",
]

__version__ = "1.0.0"
