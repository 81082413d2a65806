"""Exact-arithmetic verification of sharp sup-convolution smoothing
inequalities on the standard simplex.

Everything is computed over exact rationals: lattice sup-convolutions
by dynamic programming, discrete concave envelopes by an exact simplex
method, hypersimplex subdivisions with triangulated volumes, the sharp
constants in several independently cross-checked forms, explicit
averageable map families, and covering certificates for the asymptotic
lower bounds.
"""

# Defined before the submodule imports: harness reads it for report
# provenance, and pyproject.toml reads it as the package version.
__version__ = "0.1.0"

from ._rational import Rat, format_rat, parse_rat
from .averageable import (
    AffinePiece,
    AverageabilityCertificate,
    PLMap,
    TargetRegion,
    UnsupportedCertificateError,
    VerificationReport,
    averaging_certificate,
    medial_certificate,
    verify_certificate,
)
from .combinat import (
    ConstantReport,
    asymptotic_bound,
    closed_form_constant,
    constant_report,
    descent_sum_constant,
    eulerian,
    power_sum_constant,
    rate_constant_conjectured,
    rate_constant_covering,
    sharp_constant,
    worpitzky_check,
)
from .cover import (
    ClosureResult,
    CoverCertificate,
    GoodTranslate,
    best_cover,
    closure_good,
    find_cover,
    replay_derivation,
    scaled_simplex_cover,
)
from .envelope import (
    EnvelopeResult,
    SampledFunction,
    concave_envelope,
    envelope_values,
    evaluate_certificate,
    normalize_to_simplex_form,
    sampled_function,
)
from .geometry import (
    DIM_CAP,
    BaryLattice,
    BaryPoint,
    DegenerateSimplexError,
    Simplex,
    bary_point,
    barycenter,
    compositions,
    contains,
    lattice,
    relative_volume,
    simplex,
    simplices_interior_intersect,
    standard_simplex,
)
from .harness import (
    DEFAULT_TOL_ABS,
    DEFAULT_TOL_REL,
    ExtremalGridReport,
    InequalityReport,
    extremal_grid_report,
    function_digest,
    function_from_payload,
    function_payload,
    load_function,
    make_extremal,
    make_random,
    report_json,
    save_function,
    subdivision_svg,
    verify_nfold,
    verify_pair,
)
from .prng import SplitMix64
from .subdivision import (
    CellLocation,
    ExtremalProfile,
    SubdivisionCell,
    cell_contains,
    cell_vertices,
    classify_point,
    enumerate_shifts,
    extremal_profile,
    hypersimplex_triangulation,
    hypersimplex_vertices,
    hypersimplex_volume,
    subdivide,
)
from .supconvolve import sup_convolve_n, sup_convolve_pair
