"""Exact graded local cohomology of monomial quotient rings.

The two independent computation routes (simplicial complexes per
degree, and brute-force Cech strands) plus polarization, a degree
correspondence between an ideal and its polarization, and verifiers
that sweep both sides of the correspondence exactly.
"""

from .ideals import (
    Monomial,
    MonomialIdeal,
    MultiDegree,
    ParseError,
    format_ideal,
    format_monomial,
    minimalize,
    parse_ideal,
    rho,
)
from .linalg import FieldSpec, SparseMatrix, rank
from .simplicial import (
    SimplicialComplex,
    euler_characteristic_reduced,
    format_complex,
    is_cone,
    reduced_cohomology_dims,
)
from .takayama import (
    DepthDim,
    LCTable,
    canonical_box,
    depth_and_dim,
    lc_dim,
    lc_dims,
    lc_table,
    takayama_complex,
)
from .polarization import (
    PolarizedIdeal,
    degree_map,
    depolarize_check,
    partial_polarize,
    polarize_ideal,
    restrict,
)
from .cech import (
    CechStrand,
    cech_dims,
    cech_piece_nonzero,
    cech_strand,
)
from .verify import (
    CheckResult,
    Mismatch,
    VerificationReport,
    oracle_table,
    random_ideal,
    verify_depth_shift,
    verify_main_theorem,
    verify_reduction_chain,
    verify_reduction_to_degree_zero,
)
# bound only for bench/workloads.py, which reads m.cli._merge_checks
from . import cli

__version__ = "0.1.0"

__all__ = [
    "Monomial",
    "MonomialIdeal",
    "MultiDegree",
    "ParseError",
    "format_ideal",
    "format_monomial",
    "minimalize",
    "parse_ideal",
    "rho",
    "FieldSpec",
    "SparseMatrix",
    "rank",
    "SimplicialComplex",
    "euler_characteristic_reduced",
    "format_complex",
    "is_cone",
    "reduced_cohomology_dims",
    "DepthDim",
    "LCTable",
    "canonical_box",
    "depth_and_dim",
    "lc_dim",
    "lc_dims",
    "lc_table",
    "takayama_complex",
    "PolarizedIdeal",
    "degree_map",
    "depolarize_check",
    "partial_polarize",
    "polarize_ideal",
    "restrict",
    "CechStrand",
    "cech_dims",
    "cech_piece_nonzero",
    "cech_strand",
    "oracle_table",
    "CheckResult",
    "Mismatch",
    "VerificationReport",
    "random_ideal",
    "verify_depth_shift",
    "verify_main_theorem",
    "verify_reduction_chain",
    "verify_reduction_to_degree_zero",
]
