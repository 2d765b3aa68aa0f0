"""qdlab: exact computations on triangulated half-translation surfaces.

Core objects: :class:`~qdlab.surface.FlatSurface` (validated singular
Euclidean surface with a +-1 gluing cocycle), its orientation double cover,
exact anti-invariant homology with the intersection/wedge pairing, period
coordinates, Teichmuller deformations, and numerical verification of the
distance / first-variation / Levi-form / symplectic-pairing identities.
"""

from .builders import bundled_names, bundled_surface
from .cover import DoubleCover, SigmaClassification, build_cover, classify_points
from .delaunay import FlipRecord, delaunayize, is_delaunay
from .deformation import (
    DeformationFamily,
    affine_deform,
    fiber_distance,
    geodesic_flow,
    lift_to_cochain,
    teich_disk_point,
)
from .homology import HomologyData, cocycle_representative, hermitian_pairing, homology_data, wedge
from .levi import (
    FDConfig,
    PairingScenario,
    demailly_ratio,
    disk_harmonicity_check,
    first_variation_check,
    laplacian_check_linear,
    levi_nonneg_quantity,
    norm_of_linear_family,
    thurston_pairing,
)
from .periods import PeriodVector, chain_period_cochain, period_map
from .strata import SymbolPoset, degenerates_to, enumerate_symbols, realizable
from .surface import (
    FlatSurface,
    StratumSymbol,
    area,
    build_surface,
    make_surface,
    make_symbol,
    stratum_dim,
    symbol,
)

__version__ = "0.1.0"

__all__ = [
    "FlatSurface", "StratumSymbol", "area", "build_surface", "make_surface",
    "make_symbol", "stratum_dim", "symbol",
    "DoubleCover", "SigmaClassification", "build_cover", "classify_points",
    "FlipRecord", "delaunayize", "is_delaunay",
    "HomologyData", "homology_data", "cocycle_representative", "wedge",
    "hermitian_pairing",
    "PeriodVector", "period_map", "chain_period_cochain",
    "DeformationFamily", "geodesic_flow", "affine_deform", "lift_to_cochain",
    "teich_disk_point", "fiber_distance",
    "FDConfig", "PairingScenario", "norm_of_linear_family",
    "first_variation_check", "laplacian_check_linear", "disk_harmonicity_check",
    "demailly_ratio", "thurston_pairing", "levi_nonneg_quantity",
    "SymbolPoset", "enumerate_symbols", "degenerates_to", "realizable",
    "bundled_surface", "bundled_names",
    "__version__",
]
