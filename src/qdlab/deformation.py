"""Deformations of half-translation surfaces in period coordinates.

Three mechanisms:

* :func:`geodesic_flow` -- the Teichmuller geodesic, acting on every edge
  vector by Re z + i e^{-2t} Im z.  The L1 norm scales by exactly e^{-2t}.
* :func:`affine_deform` -- piecewise affine deformation along a cohomology
  vector: lift the functional to a closed anti-invariant edge cochain
  (vanishing on a deterministic complement of the cycle space), add it to the
  edge-vector cochain, and reassemble.  Periods change by exactly the input
  vector.
* :func:`teich_disk_point` -- the holomorphic disk family swept out by the
  Mobius scalings m(conj(lambda)) q0/||q0||; returns the represented surface
  and its distance from the disk's base point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .cover import DoubleCover
from .errors import (
    BasisMismatch,
    DegenerateTriangle,
    NormOutOfRange,
    OutOfDisk,
    SurfaceError,
    TriangleFlip,
)
from .homology import HomologyData, cocycle_representative
from .periods import PeriodVector, period_map
from .surface import FlatSurface, area, cross, dot


@dataclass(frozen=True)
class DeformationFamily:
    """Linear-period family u[q_lambda] = u + lambda v1 + conj(lambda) v2."""

    surface: FlatSurface
    cover: DoubleCover
    homology: HomologyData
    v1: PeriodVector
    v2: PeriodVector
    kind: str = "linear-period"   # linear-period | teich-disk | geodesic
    u: PeriodVector = field(default=None)

    def __post_init__(self):
        u = period_map(self.cover, self.homology) if self.u is None else self.u
        object.__setattr__(self, "u", u)
        for v in (self.v1, self.v2):
            if v.basis_tag != self.homology.basis_tag:
                raise BasisMismatch("family direction bound to a different basis")


# ---------------------------------------------------------------------------
# Teichmuller geodesic flow
# ---------------------------------------------------------------------------

def geodesic_flow(s: FlatSurface, t: float) -> FlatSurface:
    """Apply diag(1, e^{-2t}) to every edge vector (in float mode)."""
    if t == 0:
        return s
    k = math.exp(-2.0 * t)
    new_vec = {}
    for e, v in s.vec.items():
        c = complex(v)
        new_vec[e] = complex(c.real, k * c.imag)
        if c.imag and not new_vec[e].imag:
            raise OverflowError(f"the imaginary part of edge {e} "
                                "underflows to 0")
    # validation takes the cross and dot product of the two edges at each
    # corner; the flow keeps them finite and nonzero in exact arithmetic
    for tri in s.triangles:
        for e, p in zip(tri, tri[-1:] + tri[:-1]):
            u, w = new_vec[e], -new_vec[p]
            if not (math.isfinite(cross(u, w)) and math.isfinite(dot(u, w))):
                raise OverflowError("a cross or dot product overflows at "
                                    f"edge {e}")
    return s.with_edge_vectors(new_vec, mode="float")


# ---------------------------------------------------------------------------
# piecewise affine deformation
# ---------------------------------------------------------------------------

def _check_relative(h: HomologyData, v: PeriodVector):
    if v.basis_tag != h.basis_tag:
        raise BasisMismatch("vector bound to a different basis")
    if v.space != "relative":
        raise BasisMismatch("affine deformations use relative-basis vectors")


def lift_to_cochain(h: HomologyData, v: PeriodVector):
    """Closed anti-invariant cochain realizing a relative-basis functional.

    Returns values on directed base edges, each the value on the edge's
    sheet-0 lift; vanishes on the deterministic complement of the cycle
    space chosen by the solver.
    """
    _check_relative(h, v)
    return cocycle_representative(h, v.coords, "relative")


def affine_deform(c: DoubleCover, h: HomologyData, v: PeriodVector) -> DoubleCover:
    """Deform the cover's flat structure along the cohomology vector v.

    The new cover satisfies period_map(new) = period_map(old) + v exactly.
    Raises TriangleFlip when some deformed triangle degenerates or reverses.
    """
    _check_relative(h, v)
    a = h.cocycle_functional(list(v.coords), space="relative")
    # the cochain is anti-invariant, so each new cover triangle is a new base
    # triangle with its vectors kept or all negated, and validating the new
    # base checks them all
    base = c.base
    new_base_vec = {e: base.vec[e] + h.cochain_on_edge(a, e) for e in base.edges()}
    try:
        new_base = base.with_edge_vectors(new_base_vec)
    except DegenerateTriangle as exc:
        raise TriangleFlip(str(exc)) from exc
    new_cover = DoubleCover(new_base)
    return new_cover


# ---------------------------------------------------------------------------
# Teichmuller disk and fiber distance
# ---------------------------------------------------------------------------

def disk_multiplier(d0: float, lam: complex) -> complex:
    """m(conj(lambda)) = (conj(lambda) + tanh d0) / (1 + tanh d0 conj(lambda))."""
    if abs(lam) >= 1:
        raise OutOfDisk(f"|lambda| = {abs(lam)} >= 1")
    T = math.tanh(d0)
    lb = complex(lam).conjugate()
    return (lb + T) / (1 + T * lb)


def teich_disk_point(s: FlatSurface, d0: float, lam: complex):
    """Point of the Teichmuller disk through the base point at distance d0.

    Returns ``(surface, distance)``.  The represented differential is
    m(conj(lambda)) q0 / ||q0||; every edge vector is multiplied by the
    principal square root of that scalar divided by sqrt(||q0||).  At
    lambda = -tanh d0 the differential vanishes (the disk passes through its
    own base point); the distance is 0 and no surface is returned.
    """
    if d0 <= 0:
        raise SurfaceError("d0 must be positive")
    m = disk_multiplier(d0, lam)
    dist = math.atanh(abs(m)) if abs(m) < 1 else float("inf")
    if m == 0:
        return None, 0.0
    nrm = float(area(s))
    factor = complex(m) ** 0.5 / nrm ** 0.5
    new_vec = {e: factor * complex(v) for e, v in s.vec.items()}
    return s.with_edge_vectors(new_vec, mode="float"), dist


def fiber_distance(s: FlatSurface) -> float:
    """tanh^{-1} ||q||: Teichmuller distance of the point the surface
    represents in the unit-ball chart at the base point."""
    a = float(area(s))
    if a >= 1:
        raise NormOutOfRange(f"area {a} >= 1; rescale the surface first")
    return math.atanh(a)
