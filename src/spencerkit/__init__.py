"""Toolkit for almost-complex and hypercomplex structures on coordinate patches.

Generates structures from (P, Q) matrix pairs, evaluates Cauchy-Riemann and
holomorphy residuals, assembles and solves the associated second-order
elliptic operator, and verifies the structural identities numerically or
symbolically at desk scale.
"""

from .expr import Expr, ExprNameError, ExprSyntaxError, parse_expr
from .fields import (
    ComplexField,
    EvaluationError,
    MatrixField,
    ModeError,
    Patch,
    PatchError,
    ScalarField,
    d_oneform,
)
from .structures import (
    AlmostComplexStructure,
    BlockDecomposition,
    HypercomplexStructure,
    InvalidStructureError,
    PQPair,
    SingularMatrixError,
    extract_pq,
    make_hypercomplex,
    nijenhuis_residual,
    normalize_at_origin,
    quaternionic_standard,
    reconstruct_from_pq,
    twistor_structure,
    validate_acs,
)
from .holomorphy import (
    antiholo_residual,
    holo_residual,
    reduced_system_residual,
    reduction_equivalence_check,
)
from .elliptic import (
    EllipticOperator,
    assemble_operator,
    contraction_identity_residual,
    ellipticity_certificate,
    potential_closedness_residual,
    solve_dirichlet,
    theorem_check,
)
from .brackets import (
    VectorFieldC,
    apply_vf,
    bracket,
    bracket_j,
    bracket_law_check,
    j_action,
    leibniz_defect_check,
    potential_vf_residual,
)
from .hypercomplex import (
    QuaternionFunction,
    hyper_potential_residual,
    j_hyperholo_residual,
    k_hyperholo_residual,
    k_translation_consistency,
)
from .spencer import (
    SpencerChart,
    hyper_spencer_pattern_check,
    independence_rank,
    superposition_check,
    transition_holomorphy_check,
    verify_chart,
)
from .report import ResidualReport

__version__ = "0.1.0"
