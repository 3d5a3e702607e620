"""Exact cohomology of invariant forms on Lie-group quotients.

The engine parses complex structure equations, extends them to the full
invariant exterior algebra over the Gaussian rationals, and computes
Bott-Chern, Aeppli, Dolbeault and de Rham cohomology together with
Hermitian-metric classification (Kaehler / balanced / Gauduchon /
pluriclosed), the anti-linear Hodge star, harmonic representatives, and
Aeppli-class vanishing decisions with explicit witnesses.
"""

from .analysis import (
    AeppliDecision,
    MetricClass,
    SalamonReport,
    VanishingCheck,
    aeppli_class_vanishes,
    classify_metric,
    closed_p0_forms,
    closed_p0_space,
    generate_skt_family,
    salamon_h10_check,
    skt_condition,
    verify_vanishing_theorem,
)
from .cohomology import (
    CohomologyGroup,
    CohomologyReport,
    Decomposition,
    aeppli_cohomology,
    bc_cohomology,
    de_rham_cohomology,
    decompose_aeppli,
    decompose_bc,
    dolbeault_cohomology,
    full_report,
    harmonic_forms,
    harmonic_projection,
    harmonic_space,
    operator_matrix,
)
from .errors import (
    DimensionMismatch,
    IntegrabilityError,
    JacobiViolation,
    LieCohomError,
    MetricError,
    ParseError,
    PreconditionError,
)
from .exterior import BasisMonomial, Form, basis
from .hodge import HermitianMetric, random_positive_metric
from .scalars import Scalar
from .structure import (
    AlgebraFlags,
    LieFile,
    StructureEquations,
    parse_form_expr,
    parse_lie,
    parse_scalar,
    parse_structure,
    render_form,
    render_structure,
)
from .verification import CheckResult, run_all, run_criteria, star_identity_constant

__version__ = "0.1.0"

__all__ = [
    "AeppliDecision",
    "AlgebraFlags",
    "BasisMonomial",
    "CheckResult",
    "CohomologyGroup",
    "CohomologyReport",
    "Decomposition",
    "DimensionMismatch",
    "Form",
    "HermitianMetric",
    "IntegrabilityError",
    "JacobiViolation",
    "LieCohomError",
    "LieFile",
    "MetricClass",
    "MetricError",
    "ParseError",
    "PreconditionError",
    "SalamonReport",
    "Scalar",
    "StructureEquations",
    "VanishingCheck",
    "aeppli_class_vanishes",
    "aeppli_cohomology",
    "basis",
    "bc_cohomology",
    "classify_metric",
    "closed_p0_forms",
    "closed_p0_space",
    "de_rham_cohomology",
    "decompose_aeppli",
    "decompose_bc",
    "dolbeault_cohomology",
    "full_report",
    "generate_skt_family",
    "harmonic_forms",
    "harmonic_projection",
    "harmonic_space",
    "operator_matrix",
    "parse_form_expr",
    "parse_lie",
    "parse_scalar",
    "parse_structure",
    "random_positive_metric",
    "render_form",
    "render_structure",
    "run_all",
    "run_criteria",
    "salamon_h10_check",
    "skt_condition",
    "star_identity_constant",
    "verify_vanishing_theorem",
]
