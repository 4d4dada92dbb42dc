"""Desk-scale certification experiments for matrix representations of free
and surface groups: singular-value gap profiles, proximality and positivity
scans, exterior-power transfers, limit-map audits and projective ping-pong.
"""

from .errors import (
    ConstructionFailure,
    DegreeMismatch,
    DeterminantNotOne,
    DimensionMismatch,
    EigensolveFailure,
    InsufficientRadius,
    InvalidMagnitude,
    InvalidParams,
    MarginalGapWarning,
    NoProximalElements,
    NotBiproximal,
    PresentationMismatch,
    RankDeficient,
    ResourceLimit,
    SingularInput,
    ToolkitError,
    TransversalityFailure,
    UnknownLetter,
)
from .linalg import (
    EPS_GAP,
    MultiIndexBasis,
    ProximalityReport,
    ScaledBatch,
    ScaledMatrix,
    SingularValues,
    Spectrum,
    is_transverse,
    log_singular_values,
    multi_index_basis,
    normalize_to_sl,
    orthonormalize,
    proximality_report,
    singular_values,
    spectra,
    spectrum,
    subspace_angle,
    transverse_mask,
    word_reports,
)
from .exterior import (
    ExteriorVector,
    PluckerHyperplane,
    apply_compound,
    compound_batch,
    compound_matrix,
    plucker_hyperplane,
    plucker_point,
    symplectic_form,
    symplectic_pairing_matrix,
    wedge,
)
from .words import (
    Ball,
    Presentation,
    Representation,
    Word,
    enumerate_ball,
    evaluate,
    parse_word,
    reduce_word,
    word_str,
    words_equal,
)
from .constructions import (
    ComplexRepresentation,
    SchottkyParams,
    direct_sum,
    fuchsian_surface_rep,
    perturb_path,
    realify_rep,
    rotation_about_i,
    schottky_rep,
    sym_power_rep,
    symmetric_power,
    tau2_realify,
)
from .certify import (
    CertificateEstimate,
    GapProfile,
    LimitAudit,
    LimitSample,
    PingpongResult,
    PositivityReport,
    SignTrace,
    audit_limit_samples,
    certify_anosov,
    compound_rep,
    gap_profile,
    gap_profiles,
    limit_map_sample,
    pingpong_power,
    pingpong_subgroup,
    scan_positivity,
    scan_positivities,
    track_ball_along_path,
    track_ell1_along_path,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
