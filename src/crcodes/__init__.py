"""Exact constructions and verification of completely regular q-ary
linear codes with covering radius 1 and 2: finite-field arithmetic,
coset-geometry analysis, the family constructions, the structure
recognizers, and a deterministic CLI.

Each exported name is loaded from its module on first use (PEP 562), so
`from crcodes import GF` loads only `crcodes.field`.
"""

from importlib import import_module

# The names each module exports.
_EXPORTS = {
    "budgets": ("DEFAULT_BUDGETS", "BudgetExceeded", "Budgets"),
    "classify": (
        "CorpusEntry", "CorpusReport", "NotOfForm", "NotTwoWeight",
        "Rho1Form", "Rho2Report", "TrivialCode", "TwoWeightStructure",
        "classify_rho1", "enumerate_rho1", "rho1_intersection_array",
        "two_weight_structure", "verify_theorem31", "verify_theorem41",
    ),
    "codes": (
        "LinearCode", "canonical_column", "complementary_parity_columns",
        "external_distance", "is_antipodal", "is_equidistant",
        "iter_projective", "macwilliams_transform", "min_distance",
        "nonzero_weights", "num_pg_points", "pg_points", "weight_distribution",
        "weight_pair",
    ),
    "constructions": (
        "FamilyDescriptor", "ProjectivePointSet", "antipodal_d1",
        "antipodal_d1_pair", "build_family", "construction_I",
        "construction_II", "d1_antipodal_code", "denniston_arc",
        "difference_matrix", "difference_matrix_code", "external_lines",
        "external_lines_code", "extendable_hamming_code", "family_catalog",
        "hamming_code", "hamming_parity", "hyperoval", "latin_square_code",
        "point_set_code",
    ),
    "field": ("GF", "Field"),
    "matio": (
        "MatrixFormatError", "format_matrix", "parse_matrix", "read_matrix",
        "write_matrix",
    ),
    "matrix": ("MatrixGF", "kernel_basis", "rank", "row_space_basis", "rref"),
    "regularity": (
        "CodeAnalysis", "IntersectionArray", "RegularityReport",
        "SyndromeTable", "beta_solve", "complete_regularity",
        "complete_regularity_bruteforce", "covering_radius",
    ),
}

# Every exported name, each submodule's included, and the module it is
# loaded from.
_MODULE_OF = {
    name: mod for mod, names in _EXPORTS.items() for name in (mod, *names)
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{mod}")
    if name != mod:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
