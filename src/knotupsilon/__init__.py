"""Bifiltered knot Floer-type complexes over F2[U, U^-1], the exact
piecewise-linear upsilon invariant, and derived monodromy and concordance
certificates.

The core objects are BifilteredComplex (generators with Alexander and
Maslov gradings plus a U-decorated differential) and PLFunction (exact
piecewise-linear functions on [0, 2]).  All arithmetic is exact: rationals
throughout, GF(2) linear algebra on bitmasks, no floating point anywhere.
"""

from .complexes import (BifilteredComplex, DiffEntry, Generator,
                        LatticePoint, ValidationReport, chain_boundary,
                        complex_from_json, complex_from_json_dict,
                        complex_to_json, complex_to_json_dict, direct_sum,
                        dual, grading_slice, require_admissible,
                        require_valid, tensor, validate)
from .engine import (JumpCheck, NuCertificate, check_symmetry,
                     filtration_value, jump_report, nu_at, tau, upsilon)
from .errors import (FormatError, InvalidComplexError, KnotLibError,
                     MissingDataError, NonAdmissibleError)
from .knots import (KnotRecord, LaurentPolyZ, box_complex, builtin_record,
                    cable_alexander, chen_cable_upsilon, fibered_genus,
                    figure_eight_complex, slice_cable_record, staircase,
                    torus_knot_alexander, torus_knot_complex, unknot_complex)
from .certificates import (ConcordanceVerdict, RVCertificate,
                           RibbonMinimalityReport, certify_right_veering,
                           classify_tightness, obstruct_concordance,
                           ribbon_minimality_report)
from .plfunction import PLFunction, format_rational, parse_rational

__version__ = "0.1.0"

__all__ = [
    "BifilteredComplex", "DiffEntry", "Generator", "LatticePoint",
    "ValidationReport", "chain_boundary", "complex_from_json",
    "complex_from_json_dict", "complex_to_json", "complex_to_json_dict",
    "direct_sum", "dual", "grading_slice", "require_admissible",
    "require_valid", "tensor", "validate",
    "JumpCheck", "NuCertificate", "check_symmetry", "filtration_value",
    "jump_report", "nu_at", "tau", "upsilon",
    "FormatError", "InvalidComplexError", "KnotLibError", "MissingDataError",
    "NonAdmissibleError",
    "KnotRecord", "LaurentPolyZ", "box_complex", "builtin_record",
    "cable_alexander", "chen_cable_upsilon",
    "fibered_genus", "figure_eight_complex", "slice_cable_record",
    "staircase", "torus_knot_alexander", "torus_knot_complex",
    "unknot_complex",
    "ConcordanceVerdict", "RVCertificate", "RibbonMinimalityReport",
    "certify_right_veering", "classify_tightness", "obstruct_concordance",
    "ribbon_minimality_report",
    "PLFunction", "format_rational", "parse_rational",
    "__version__",
]
