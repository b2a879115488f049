"""Tools for the semigroup of isotone, order-decreasing partial
transformations of the chain {1..n} whose domain avoids 1: enumeration of
the semigroup, its ideals and Rees quotients; Green's and starred Green's
relations; abundance diagnostics; and certified rank computations checked
against closed-form counts.

The package is a lazy namespace (PEP 562): ``import schroeder`` loads no
submodule, and each public name loads its home module on first access.
Every command is a short process, so each pays only for the modules it
runs.
"""

import importlib
import sys

# the public contract, with the CLI and the README schemas: each name by
# the submodule that defines it
_EXPORTS = {
    "families": (
        "Family", "FamilySpec", "binom", "count_idempotents",
        "count_lstar_classes", "count_rstar_classes", "enumerate_family",
        "formula_idempotents", "formula_rstar_classes", "generating_set_G",
        "schroeder_small", "ss_prime_minimal_generators",
        "verify_identity_corollary",
    ),
    "green": (
        "ZERO", "AbundanceReport", "EqPartition", "NotClosedError",
        "SemigroupTable", "Zero", "abundance_report", "build_table", "green",
        "starred_characterized", "starred_definitional",
    ),
    "pmap": (
        "PartialMap", "alpha_i", "alpha_ik", "closure", "compose", "eps_1k",
        "is_requisite", "left_identity", "member_ss_prime", "parse",
        "pseudo_inverse", "requisite", "requisite_from_image", "shift_embed",
    ),
    "rank": (
        "RankResult", "closure_indices", "essential_elements",
        "factor_via_requisite", "formula_rank_ideal", "formula_rank_quotient",
        "lift_requisite", "rank_layered", "rank_oracle", "verify_ss1_witnesses",
        "verify_theorem_hq",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "1.0.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Namespace(type(sys)):
    """The package's module type.  Importing a submodule binds it on the
    package; where it shares a public name (``green``), the name stays the
    public object, as ``__getattr__`` resolves it."""

    def __setattr__(self, name: str, value) -> None:
        if name in _HOME and value is sys.modules.get(f"{__name__}.{name}"):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Namespace
