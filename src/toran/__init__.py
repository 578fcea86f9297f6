"""Exact arithmetic for torsion-anomalous intersections in powers of CM
elliptic curves: the five norm-Euclidean quadratic orders, Hermite forms
and kernels of subgroup matrices, Neron-Tate pairings on point modules,
coset reductions, Siegel-type small solutions, and the bound catalog."""

from .bounds import (
    BoundRangeError,
    BoundResult,
    ExponentTerm,
    OmegaMin,
    catalog_ids,
    euler_phi,
    evaluate_bound,
    exponent_identities,
    omega_min,
)
from .enumeration import (
    brute_force_minimal_coset,
    count_torsion_points,
    enumerate_subgroups,
    enumerate_torsion,
    surrogate_degree,
)
from .mordell_weil import (
    ModulePoint,
    ModuleSpec,
    PointInEN,
    essential_minimum_translate,
    isogeny_action,
    minimal_coset,
    nt_height,
    nt_pairing,
    orthogonality_certificate,
)
from .orders import (
    EUCLIDEAN_DISCS,
    DiscMismatchError,
    OrderElement,
    QuadRat,
    canonical_associate,
    canonical_residue,
    euclid_div,
    format_element,
    gcd,
    parse_element,
    units,
)
from .reductions import (
    AnomalyReport,
    GammaPoint,
    TorsionCoset,
    VarietyParams,
    classify_point,
    gamma_to_torsion_variety,
    transverse_lift,
)
from .serialize import (
    module_spec_to_json_dict,
    parse_torsion_point_text,
    torsion_point_from_json_dict,
)
from .siegel import (
    DEFAULT_SIEGEL_CONSTANT,
    LinearSystem,
    SiegelCertificate,
    complete_to_square,
    small_solution,
)
from .subgroups import (
    BudgetExceededError,
    DegreeSurrogate,
    RankError,
    SubgroupMatrix,
    TorsionPoint,
    apply_matrix,
    degree_surrogate,
    hnf,
    intersection_cardinality,
    intersection_exponent,
    is_anomalous,
    kernel_at_level,
    kernel_count_at_level,
    kernel_lattice_at_level,
    orthogonal_complement,
    parametrization,
    saturate,
    sum_and_intersection,
    tangent_orthogonal,
)

__version__ = "0.1.0"
