"""Exact constructions and verification of completely regular q-ary
linear codes with covering radius 1 and 2: finite-field arithmetic,
coset-geometry analysis, the family constructions, the structure
recognizers, and a deterministic CLI.
"""

from .budgets import DEFAULT_BUDGETS, BudgetExceeded, Budgets
from .classify import (
    CorpusEntry,
    CorpusReport,
    NoZeroColumnReachable,
    NotOfForm,
    NotTwoWeight,
    Rho1Form,
    Rho2Report,
    TrivialCode,
    TwoWeightStructure,
    classify_rho1,
    enumerate_rho1,
    rho1_intersection_array,
    two_weight_structure,
    verify_theorem31,
    verify_theorem41,
)
from .codes import (
    LinearCode,
    canonical_column,
    complementary_parity_columns,
    external_distance,
    is_antipodal,
    is_equidistant,
    iter_projective,
    macwilliams_transform,
    min_distance,
    nonzero_weights,
    num_pg_points,
    pg_points,
    weight_distribution,
    weight_pair,
)
from .constructions import (
    FamilyDescriptor,
    ProjectivePointSet,
    antipodal_d1,
    antipodal_d1_pair,
    build_family,
    construction_I,
    construction_II,
    d1_antipodal_code,
    denniston_arc,
    difference_matrix,
    difference_matrix_code,
    external_lines,
    external_lines_code,
    extendable_hamming_code,
    family_catalog,
    hamming_code,
    hamming_parity,
    hyperoval,
    latin_square_code,
    point_set_code,
)
from .field import GF, Field
from .matio import MatrixFormatError, format_matrix, parse_matrix, read_matrix, write_matrix
from .matrix import MatrixGF, kernel_basis, rank, row_space_basis, rref, solve_rational
from .regularity import (
    CodeAnalysis,
    IntersectionArray,
    RegularityReport,
    SyndromeTable,
    Witness,
    beta_solve,
    complete_regularity,
    complete_regularity_bruteforce,
    coset_low_weight_counts,
    coset_weight_counts,
    covering_radius,
)

__all__ = [name for name in dir() if not name.startswith("_")]
