"""Desk-scale p-adic integral geometry in exact arithmetic."""

from .countvol import (
    AlgebraicSet,
    CountConfig,
    CountResult,
    VolumeEstimate,
    count_points_mod,
    estimate_volume,
)
from .igf import (
    LinearSubspace,
    McConfig,
    McReport,
    mc_expected_zeros,
    mc_igf_curve,
    mc_linear_lemma,
)
from .proj import (
    ProjPoint,
    ResidueProjPoint,
    enumerate_proj,
    proj_distance,
    volume_proj_space,
)
from .roots import (
    RootReport,
    adaptive_count,
    count_roots,
    count_roots_annulus,
    count_roots_p1,
    count_roots_zp,
)
from .sample import (
    DigitStream,
    HaarMatrix,
    RandomPolyModel,
    Stream,
    sample_poly,
)
from .veronese import VeroneseMap, arc_length, isometry_check, mahler_jacobian_norm
from .zp import wedge_norm

__version__ = "0.1.0"

__all__ = [
    "AlgebraicSet",
    "CountConfig",
    "CountResult",
    "DigitStream",
    "HaarMatrix",
    "LinearSubspace",
    "McConfig",
    "McReport",
    "ProjPoint",
    "RandomPolyModel",
    "ResidueProjPoint",
    "RootReport",
    "Stream",
    "VeroneseMap",
    "VolumeEstimate",
    "adaptive_count",
    "arc_length",
    "count_points_mod",
    "count_roots",
    "count_roots_annulus",
    "count_roots_p1",
    "count_roots_zp",
    "enumerate_proj",
    "estimate_volume",
    "isometry_check",
    "mahler_jacobian_norm",
    "mc_expected_zeros",
    "mc_igf_curve",
    "mc_linear_lemma",
    "proj_distance",
    "sample_poly",
    "volume_proj_space",
    "wedge_norm",
]
