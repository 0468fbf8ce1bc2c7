"""Exact computations on Kronecker structures of matrix pencils.

Symbolic eigenstructure invariants (Weyr characteristics, rank, orbit
codimension), the orbit-closure order by weak majorization, the six
elementary degeneration moves with reachability search, exact rational
realizations with a tangent-space codimension oracle, and exhaustive
small-size verification of the codimension monotonicity along closure
inclusion.
"""

from .closure import (
    ClosureGraph,
    build_closure_graph,
    closure_bitsets,
    degenerates_to,
    majorization_report,
    same_orbit,
    weakly_majorizes,
)
from .core import (
    INFINITY,
    EigenvalueLabel,
    KroneckerStructure,
    canonicalize,
    codimension,
    eigenvalues,
    finite,
    orbit_dimension,
    rank_of,
    size_of,
    weyr_jordan,
    weyr_singular,
)
from .inequalities import PowerSumComparison, abel_sum_bound, dominated_power_sums
from .notation import format_structure, parse_structure, structure_to_json_dict
from .pencils import (
    Rational,
    RationalPencil,
    default_assignment,
    exact_rank,
    normal_rank,
    random_equivalence,
    realize,
    tangent_codimension,
)
from .rules import (
    RuleInstance,
    applicable_instances,
    apply_rule,
    describe_instance,
    reachable,
    reachable_structures,
)
from .verify import (
    CheckResult,
    VerificationReport,
    cross_validate_characterizations,
    enumerate_structures,
    label_matchings,
    verify_codimension_monotonicity,
    verify_formula_identities,
)

__version__ = "0.1.0"

__all__ = [
    "EigenvalueLabel",
    "INFINITY",
    "finite",
    "KroneckerStructure",
    "size_of",
    "rank_of",
    "weyr_jordan",
    "weyr_singular",
    "codimension",
    "orbit_dimension",
    "canonicalize",
    "eigenvalues",
    "weakly_majorizes",
    "degenerates_to",
    "same_orbit",
    "majorization_report",
    "closure_bitsets",
    "ClosureGraph",
    "build_closure_graph",
    "abel_sum_bound",
    "dominated_power_sums",
    "PowerSumComparison",
    "RuleInstance",
    "apply_rule",
    "applicable_instances",
    "reachable",
    "reachable_structures",
    "describe_instance",
    "Rational",
    "RationalPencil",
    "realize",
    "default_assignment",
    "exact_rank",
    "tangent_codimension",
    "random_equivalence",
    "normal_rank",
    "CheckResult",
    "VerificationReport",
    "enumerate_structures",
    "label_matchings",
    "verify_codimension_monotonicity",
    "cross_validate_characterizations",
    "verify_formula_identities",
    "parse_structure",
    "format_structure",
    "structure_to_json_dict",
    "__version__",
]
