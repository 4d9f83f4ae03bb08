"""Exact computation of sums of element orders of finite groups relative to
subgroups, with the affine Frobenius counterexample family and bound checks."""

from .numtheory import (
    factorize,
    frobenius_ratio_closed_form,
    index_ratio_bound,
    is_mersenne_exponent,
    is_prime,
    psi_cyclic,
    psi_cyclic_lower_bound,
)
from .finite_field import FiniteField
from .group_core import (
    CayleyTableError,
    CayleyTableGroup,
    CyclicGroup,
    DirectProductGroup,
    FiniteGroup,
    FrobeniusFieldGroup,
    PermutationGroup,
    abelian_of_type,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    frobenius_field,
    from_cayley_table,
    quaternion8,
    symmetric,
)
from .subgroup_lattice import (
    Subgroup,
    all_subgroups,
    conjugates_intersect_trivially,
    generate,
    is_isolated,
    is_normal,
    quotient,
)
from .order_sums import (
    IndexRatioBounds,
    cyclic_reference,
    psi,
    psi_ratio,
    psi_relative,
    psi_relative_frobenius_formula,
    psi_relative_upper_bound,
    ratio_bounds_for_index,
    relative_orders,
)
from .classify import is_nilpotent, is_solvable
from .verify import (
    BijectionResult,
    CatalogReport,
    CounterexampleSpec,
    ViolationRecord,
    bijection_exists,
    build_counterexample,
    default_catalog,
    frobenius_ratio_table,
    scan_catalog,
    subgroup_ratio_scan,
)

__version__ = "0.1.0"
