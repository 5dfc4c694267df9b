"""Indices of holomorphic 1-forms on determinantal singularities.

Exact computer algebra over the rationals: local standard bases and
colengths, the determinantal data model, closed-form index conversions,
and the algebraic (colength-style) indices of 1-forms, with a brute-force
truncated linear-algebra oracle for independent verification.
"""

from .rings import (
    LOCAL_ORDER,
    Poly,
    PolyParseError,
    RingContext,
    parse_poly,
    sort_key,
)
from .standard_bases import (
    INFINITE,
    FreeModuleElement,
    Ideal,
    StandardBasis,
    colength,
    module_colength,
    module_standard_basis,
    standard_basis,
)
from .determinantal import (
    DetSingularity,
    OneForm,
    SingularityClass,
    chi_singular_stratum,
    classify,
    minors,
    stratum_dim,
    stratum_ideal,
)
from .conversions import (
    CoeffMatrices,
    StrataIndexData,
    chi_bar_hyperplane,
    chi_fiber,
    coeff_matrices,
    isolated_indices,
    ph_index,
    phn_from_radial,
    radial_from_phn,
    smoothable_index,
)
from .form_indices import (
    algebra_ideal,
    algebra_index,
    gmvs_ideal,
    gmvs_index,
    icis_ideal,
    icis_index,
    omega_quotient_dim,
    omega_quotient_generators,
)
from .truncation import (
    ORACLE_CEILING,
    ORACLE_START_CAP,
    TruncationReport,
    stabilized_colength,
    stabilized_module_colength,
)

__version__ = "0.1.0"

__all__ = [
    "LOCAL_ORDER",
    "INFINITE",
    "ORACLE_CEILING",
    "ORACLE_START_CAP",
    "CoeffMatrices",
    "DetSingularity",
    "FreeModuleElement",
    "Ideal",
    "OneForm",
    "Poly",
    "PolyParseError",
    "RingContext",
    "SingularityClass",
    "StandardBasis",
    "StrataIndexData",
    "TruncationReport",
    "algebra_ideal",
    "algebra_index",
    "chi_bar_hyperplane",
    "chi_fiber",
    "chi_singular_stratum",
    "classify",
    "coeff_matrices",
    "colength",
    "gmvs_ideal",
    "gmvs_index",
    "icis_ideal",
    "icis_index",
    "isolated_indices",
    "minors",
    "module_colength",
    "module_standard_basis",
    "omega_quotient_dim",
    "omega_quotient_generators",
    "parse_poly",
    "ph_index",
    "phn_from_radial",
    "radial_from_phn",
    "smoothable_index",
    "sort_key",
    "stabilized_colength",
    "stabilized_module_colength",
    "standard_basis",
    "stratum_dim",
    "stratum_ideal",
]
