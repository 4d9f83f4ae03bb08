"""Exact computation of sums of element orders of finite groups relative to
subgroups, with the affine Frobenius counterexample family and bound checks.

Importing the package loads only ``numtheory`` and the standard library. The
other public names, which need numpy, are looked up in their modules on each
access (PEP 562), so ``relpsi.dihedral`` imports the group layer on first use.
"""

import importlib

from .numtheory import (
    CounterexampleSpec,
    factorize,
    frobenius_ratio_closed_form,
    index_ratio_bound,
    is_mersenne_exponent,
    is_prime,
    psi_cyclic,
    psi_cyclic_lower_bound,
)

_LAZY_MODULES = {
    "finite_field": ("FiniteField",),
    "group_core": (
        "CayleyTableError",
        "CayleyTableGroup",
        "CyclicGroup",
        "DirectProductGroup",
        "FiniteGroup",
        "FrobeniusFieldGroup",
        "PermutationGroup",
        "abelian_of_type",
        "alternating",
        "cyclic",
        "dihedral",
        "direct_product",
        "frobenius_field",
        "from_cayley_table",
        "quaternion8",
        "symmetric",
    ),
    "subgroup_lattice": (
        "Subgroup",
        "all_subgroups",
        "conjugates_intersect_trivially",
        "generate",
        "is_isolated",
        "is_normal",
        "quotient",
    ),
    "order_sums": (
        "IndexRatioBounds",
        "cyclic_reference",
        "psi",
        "psi_ratio",
        "psi_relative",
        "psi_relative_frobenius_formula",
        "psi_relative_upper_bound",
        "ratio_bounds_for_index",
        "relative_orders",
    ),
    "classify": ("is_nilpotent",),
    "verify": (
        "BijectionResult",
        "CatalogReport",
        "ViolationRecord",
        "bijection_exists",
        "build_counterexample",
        "default_catalog",
        "frobenius_ratio_table",
        "scan_catalog",
        "subgroup_ratio_scan",
    ),
}
# public name -> the module that defines it
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}

__all__ = [
    "CounterexampleSpec",
    "factorize",
    "frobenius_ratio_closed_form",
    "index_ratio_bound",
    "is_mersenne_exponent",
    "is_prime",
    "psi_cyclic",
    "psi_cyclic_lower_bound",
    *_LAZY,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # not cached in globals(): a module attribute swapped after the first
    # access (as perfbench's tracer does) must show through here as well
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
