"""Numerical and exact verification of the distance / Levi-form identities.

The distance along a linear-period family u(lam) = u + lam v1 + conj(lam) v2
is d(lam) = arctanh N(lam) with

    N(lam) = (sqrt(-1)/4) wedge(u(lam), conj(u(lam))),

a real quadratic polynomial in (Re lam, Im lam) whose coefficients are the
eight wedge numbers of the family.  Closed forms checked against central
finite differences (with optional Richardson extrapolation):

* first variation:  d_lam = (i cosh^2 d0 / 4)(v1^u-bar + u^v2-bar), reducing
  to (i cosh^2 d0 / 4) u^v2-bar when v1^u-bar = 0;
* Laplacian (linear family):
  d_lamlambar = cosh^2 d0 * N_lamlambar + 2 tanh d0 cosh^4 d0 |N_lam|^2;
* fiber substitution: with the relations u^(u_lamlambar)-bar = -v1^v1-bar and
  v1^u-bar = 0 this becomes
  (cosh^3 d0 sinh d0 / 8)|u^v2-bar|^2
  + (i cosh^2 d0 / 4)(v2^v2-bar - v1^v1-bar);
* pluricomplex Green Levi form (log tanh route):
  N_lamlambar / N0 - |N_lam|^2 / N0^2.

Fiber-constrained identities run on :class:`PairingScenario` data: explicit
random vectors in a standard symplectic QC-space, with the fiber-family
relations (norm normalization, vanishing of v1^u-bar, isotropy of the fiber
image) imposed by exact linear projections.  With tanh d0 rational, every
hyperbolic-function coefficient is rational and the checks are bit-exact.
A scenario pairs -x^T J^{-1} y on QC coordinates by
:func:`homology.sparse_pairing` over the nonzero entries of each row of
J^{-1} (one per row for the standard form).  Period vectors of a surface
pair through ``wedge``, on Gaussian-integer numerators; a
:class:`WedgeTable` restricts and conjugates each of its three vectors once
(:func:`homology.conjugate_wedges`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .deformation import DeformationFamily, teich_disk_point
from .errors import (
    InconsistentFunctional,
    NegativeNorm,
    NormOutOfRange,
    SingularPoint,
)
from .exact import QC, QC_I, conj, is_zero, nullspace
from .homology import (
    HomologyData,
    conjugate_wedges,
    sparse_pairing,
    sparse_rows,
    wedge,
)
from .periods import PeriodVector

F0 = Fraction(0)
F1 = Fraction(1)


@dataclass(frozen=True)
class FDConfig:
    step: float = 1e-4
    richardson_levels: int = 1
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.step <= 0 or self.tolerance <= 0 or self.richardson_levels < 0:
            raise ValueError("bad finite-difference configuration")


@dataclass
class CheckReport:
    name: str
    passed: bool
    tolerance: float = 0.0
    max_abs_err: float = 0.0
    max_rel_err: float = 0.0
    cases: list = field(default_factory=list)

    def as_json(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "tolerance": self.tolerance,
            "max_abs_err": self.max_abs_err,
            "max_rel_err": self.max_rel_err,
            "cases": self.cases,
        }


# ---------------------------------------------------------------------------
# wedge tables of a linear family
# ---------------------------------------------------------------------------

class WedgeTable:
    """All pairings wedge(x, conj(y)) for x,y in (u, v1, v2)."""

    KEYS = ("u", "v1", "v2")

    def __init__(self, h: HomologyData, u, v1, v2):
        table = conjugate_wedges(h, (u, v1, v2))
        self.wc = {a: dict(zip(self.KEYS, row)) for a, row in zip(self.KEYS, table)}

    @classmethod
    def from_family(cls, fam: DeformationFamily):
        return cls(fam.homology, fam.u, fam.v1, fam.v2)

    def norm_at(self, lam):
        """(i/4) wedge(u_lam, conj(u_lam)) as an exact/float complex number."""
        exact = isinstance(lam, QC) or isinstance(lam, (int, Fraction))
        lam = lam if isinstance(lam, QC) or not exact else QC(lam, 0)
        if not exact:
            lam = complex(lam)
        coef = {"u": (QC(1, 0) if exact else 1.0 + 0j),
                "v1": lam, "v2": conj(lam)}
        total = None
        for a in self.KEYS:
            for b in self.KEYS:
                w = self.wc[a][b]
                if is_zero(w):
                    continue
                term = coef[a] * conj(coef[b]) * (w if exact else complex(w))
                total = term if total is None else total + term
        i4 = QC(0, Fraction(1, 4)) if exact else 0.25j
        if total is None:
            return F0 if exact else 0.0
        return i4 * total


def norm_of_linear_family(fam_or_table, lam):
    """L1 norm of the represented differential at parameter ``lam``.

    Exact (Fraction) for exact lambda on exact data, float otherwise.
    Raises NegativeNorm when the family has left its validity region.
    """
    table = (fam_or_table if isinstance(fam_or_table, WedgeTable)
             else WedgeTable.from_family(fam_or_table))
    val = table.norm_at(lam)
    if isinstance(val, QC):
        if val.im != 0:
            raise NegativeNorm("norm expression is not real")
        real = val.re
    elif isinstance(val, (int, Fraction)):
        real = val
    else:
        c = complex(val)
        if abs(c.imag) > 1e-9 * max(1.0, abs(c.real)):
            raise NegativeNorm("norm expression is not real")
        real = c.real
    if real <= 0:
        raise NegativeNorm(f"norm {real} <= 0: family left the validity region")
    return real


def _distance(table: WedgeTable, lam):
    n = float(norm_of_linear_family(table, complex(lam)))
    if n >= 1:
        raise NormOutOfRange(f"norm {n} >= 1 along the family")
    return math.atanh(n)


def _fd_dlambda(f, h, levels):
    def d(step):
        re = (f(complex(step, 0)) - f(complex(-step, 0))) / (2 * step)
        im = (f(complex(0, step)) - f(complex(0, -step))) / (2 * step)
        return 0.5 * (re - 1j * im)

    val = d(h)
    for _ in range(levels):
        h /= 2
        val = (4 * d(h) - val) / 3
    return val


def _fd_laplacian(f, h, levels, center=0j):
    def lap(step):
        return (f(center + step) + f(center - step)
                + f(center + 1j * step) + f(center - 1j * step)
                - 4 * f(center)) / step ** 2

    val = lap(h)
    for _ in range(levels):
        h /= 2
        val = (4 * lap(h) - val) / 3
    return val


def _cosh2(norm0: float):
    return 1.0 / (1.0 - norm0 * norm0)


def first_variation_check(fam: DeformationFamily, cfg: FDConfig = FDConfig()) -> CheckReport:
    """Compare the finite-difference lambda-derivative of arctanh(norm)
    against the wedge first-variation formula (and its reduced form)."""
    table = WedgeTable.from_family(fam)
    n0 = float(norm_of_linear_family(table, 0j))
    if not 0 < n0 < 1:
        raise NormOutOfRange(f"base norm {n0} outside (0,1)")
    c2 = _cosh2(n0)
    v1_ubar = complex(table.wc["v1"]["u"])
    u_v2bar = complex(table.wc["u"]["v2"])
    formula = 0.25j * c2 * (v1_ubar + u_v2bar)
    reduced = 0.25j * c2 * u_v2bar
    fd = _fd_dlambda(lambda lam: _distance(table, lam), cfg.step,
                     cfg.richardson_levels)
    abs_err = abs(fd - formula)
    scale = max(abs(formula), abs(fd), 1e-300)
    rel_err = abs_err / scale
    trivial = abs(formula) < 1e-14 and abs(fd) < 1e-10
    passed = rel_err <= cfg.tolerance or abs_err <= cfg.tolerance * 1e-2 or trivial
    reduced_err = abs(fd - reduced) / scale
    return CheckReport(
        name="first-variation",
        passed=passed,
        tolerance=cfg.tolerance,
        max_abs_err=abs_err,
        max_rel_err=rel_err,
        cases=[{
            "fd": [fd.real, fd.imag],
            "formula": [formula.real, formula.imag],
            "reduced": [reduced.real, reduced.imag],
            "reduced_rel_err": reduced_err,
            "v1_wedge_ubar": [v1_ubar.real, v1_ubar.imag],
            "base_norm": n0,
        }],
    )


def laplacian_check_linear(fam: DeformationFamily,
                           cfg: FDConfig = FDConfig(tolerance=1e-5)) -> CheckReport:
    """FD Laplacian of the distance vs the linear-family closed form."""
    table = WedgeTable.from_family(fam)
    n0 = float(norm_of_linear_family(table, 0j))
    if not 0 < n0 < 1:
        raise NormOutOfRange(f"base norm {n0} outside (0,1)")
    c2 = _cosh2(n0)
    n_lam = 0.25j * complex(table.wc["u"]["v2"] + table.wc["v1"]["u"])
    n_ll = 0.25j * complex(table.wc["v1"]["v1"] + table.wc["v2"]["v2"])
    closed = c2 * n_ll + 2 * n0 * c2 * c2 * (n_lam * n_lam.conjugate())
    closed = closed.real if isinstance(closed, complex) else closed
    fd = _fd_laplacian(lambda lam: _distance(table, lam), cfg.step,
                       cfg.richardson_levels).real / 4.0
    abs_err = abs(fd - closed)
    scale = max(abs(closed), abs(fd), 1e-300)
    rel_err = abs_err / scale
    trivial = abs(closed) < 1e-13 and abs(fd) < 1e-6
    passed = rel_err <= cfg.tolerance or abs_err <= cfg.tolerance * 1e-2 or trivial
    return CheckReport(
        name="laplacian-linear",
        passed=passed,
        tolerance=cfg.tolerance,
        max_abs_err=abs_err,
        max_rel_err=rel_err,
        cases=[{"fd": fd, "closed_form": float(closed), "base_norm": n0}],
    )


# ---------------------------------------------------------------------------
# Teichmuller-disk harmonicity and the Demailly limit
# ---------------------------------------------------------------------------

def disk_harmonicity_check(s, d0: float, grid=None,
                           cfg: FDConfig = FDConfig(tolerance=1e-5)) -> CheckReport:
    """|FD Laplacian of log tanh d| must vanish away from lambda = -tanh d0."""
    if d0 <= 0:
        raise SingularPoint("d0 must be positive")
    if grid is None:
        grid = default_disk_grid()
    T = math.tanh(d0)
    h = cfg.step
    worst = 0.0
    cases = []
    for lam in grid:
        if abs(lam) + 4 * h >= 1:
            raise SingularPoint(f"grid point {lam} too close to the disk boundary")
        if abs(lam + T) < 8 * h:
            raise SingularPoint(f"grid point {lam} touches the logarithmic pole")

        def f(z):
            _, dist = teich_disk_point(s, d0, z)
            if dist <= 0:
                raise SingularPoint("hit the pole during differencing")
            return math.log(math.tanh(dist))

        lap = _fd_laplacian(f, h, cfg.richardson_levels, center=complex(lam)).real
        worst = max(worst, abs(lap))
        cases.append({"lambda": [complex(lam).real, complex(lam).imag],
                      "fd_laplacian": lap})
    return CheckReport(
        name="disk-harmonicity",
        passed=worst <= cfg.tolerance,
        tolerance=cfg.tolerance,
        max_abs_err=worst,
        max_rel_err=worst,
        cases=cases,
    )


def default_disk_grid(n_ring=8, radii=(0.12, 0.24, 0.36)):
    """25 sample points: the origin plus three rings of eight."""
    pts = [0j]
    for r in radii:
        for k in range(n_ring):
            ang = 2 * math.pi * k / n_ring + 0.1
            pts.append(complex(r * math.cos(ang), r * math.sin(ang)))
    return pts


def log_tanh(s: float) -> float:
    """log(tanh(s)) for s > 0, accurate for large s.

    tanh s = (1 - e^{-2s})/(1 + e^{-2s}); with log1p both factors keep full
    relative precision where the naive route loses everything to rounding.
    """
    if s <= 0:
        raise ValueError("log_tanh needs s > 0")
    x = math.exp(-2.0 * s)
    return math.log1p(-x) - math.log1p(x)


def demailly_ratio(d_x: float, d_y: float, t_values) -> CheckReport:
    """|log(g(x,z_t)/g(y,z_t))| along a common ray approaches 2(d_y - d_x)."""
    if not 0 <= d_x <= d_y:
        raise ValueError("need 0 <= d_x <= d_y")
    target = 2.0 * (d_y - d_x)
    cases = []
    gaps = []
    for t in sorted(t_values):
        if t <= d_y:
            raise ValueError(f"ray parameter {t} must exceed d_y")
        gx = log_tanh(t - d_x)
        gy = log_tanh(t - d_y)
        ratio = abs(math.log(gx / gy))
        gap = abs(ratio - target)
        gaps.append(gap)
        cases.append({"t": t, "log_ratio": ratio, "gap": gap})
    # allow the noise floor of double precision once the true gap is below it
    monotone = all(a >= b - 1e-14 * max(1.0, target)
                   for a, b in zip(gaps, gaps[1:]))
    return CheckReport(
        name="demailly-ratio",
        passed=monotone,
        max_abs_err=gaps[-1] if gaps else 0.0,
        max_rel_err=gaps[-1] if gaps else 0.0,
        cases=cases + [{"target": target, "monotone": monotone}],
    )


# ---------------------------------------------------------------------------
# Thurston pairing and the Levi non-negativity quantity
# ---------------------------------------------------------------------------

def _real_part_vector(x: PeriodVector):
    return x + x.conjugate()


def thurston_pairing(h: HomologyData, psi1: PeriodVector, psi2: PeriodVector):
    """Thurston symplectic pairing of two psi-class period vectors.

    Computed as (1/8) wedge(Re psi1, Re psi2) and cross-checked against the
    imaginary part of (1/4) of the Hermitian pairing; the two agree exactly
    precisely when wedge(psi1, psi2) has no real part, which holds for period
    classes of anti-invariant 1-forms proportional to the cover differential.
    Two exact vectors give a Fraction, also when a wedge has no nonzero term
    and comes back as the Fraction 0; a float vector gives a float.
    """
    rx = _real_part_vector(psi1).scale(Fraction(1, 2))
    ry = _real_part_vector(psi2).scale(Fraction(1, 2))
    route1 = wedge(h, rx, ry) / 8
    wxy_bar = wedge(h, psi1, psi2.conjugate())
    # Im((1/4) * (i/4) * wedge(x, conj y)) = Re(wedge(x, conj y)) / 16
    if psi1._num is not None and psi2._num is not None:
        r1, i1 = _exact_parts(route1)
        if i1:
            raise InconsistentFunctional("real-part wedge came out complex")
        if r1 != _exact_parts(wxy_bar)[0] / 16:
            raise InconsistentFunctional(
                "pairing routes disagree: inputs are not psi-class periods "
                "(wedge(psi1, psi2) has a real part)")
        return r1
    route2 = complex(wxy_bar).real / 16
    r1 = complex(route1).real
    if abs(r1 - route2) > 1e-9 * max(1.0, abs(r1)):
        raise InconsistentFunctional("pairing routes disagree beyond float noise")
    return r1


def _exact_parts(w):
    """(re, im) of an exact wedge value, a QC or a Fraction."""
    return (w.re, w.im) if isinstance(w, QC) else (Fraction(w), F0)


def levi_nonneg_quantity(h: HomologyData, u: PeriodVector, psi1: PeriodVector,
                         psi2: PeriodVector, v2bar_wedge) -> dict:
    """Evaluate both sides of the symplectic non-negativity inequality.

    LHS is the Thurston pairing of the direction classes; RHS is
    |u wedge conj(v2)|^2 / (16 ||q0||).  A negative gap means the inputs do
    not arise from a holomorphic family (a diagnostic flag, not a failure).
    """
    lhs = thurston_pairing(h, psi1, psi2)
    wuu = wedge(h, u, u.conjugate())
    if isinstance(wuu, QC):
        qnorm = (QC_I * wuu).re / 4
        mod2 = v2bar_wedge.abs2() if isinstance(v2bar_wedge, QC) else \
            Fraction(v2bar_wedge) ** 2
    else:
        qnorm = (1j * complex(wuu)).real / 4
        mod2 = abs(complex(v2bar_wedge)) ** 2
    if qnorm <= 0:
        raise NegativeNorm("u does not have positive norm")
    rhs = mod2 / (16 * qnorm)
    gap = lhs - rhs
    certified = gap >= 0
    return {
        "lhs_thurston": _num(lhs),
        "rhs_levi": _num(rhs),
        "gap": _num(gap),
        "certified_family_data": bool(certified),
        "note": None if certified else "not certified as family data",
    }


def _num(x):
    if isinstance(x, Fraction):
        return {"exact": str(x), "float": float(x)}
    return {"exact": None, "float": float(x)}


# ---------------------------------------------------------------------------
# PairingScenario: exact random wedge data with the fiber-family constraints
# ---------------------------------------------------------------------------

def _std_symplectic_rows(n):
    """Inverse of the standard symplectic matrix on 2n coordinates, as its
    nonzero entries per row (see :func:`homology.sparse_rows`)."""
    return [[(n + k, -F1)] for k in range(n)] + [[(k, F1)] for k in range(n)]


def _w(rows, x, y):
    """-x^T Jinv y for Jinv given by ``rows``, as a QC."""
    w = sparse_pairing(rows, x, y)
    return QC(0, 0) if w is None else w


class PairingScenario:
    """Random exact wedge data for the fiber-constrained identities.

    Vectors live in QC^{2n} and pair through the standard symplectic form,
    or through ``Jinv`` when given (a dense matrix, kept as its nonzero
    entries per row); tanh d0 is rational, so cosh^2, sinh(2 d0) and friends
    are rational and every identity evaluates exactly.
    """

    def __init__(self, n, vectors, T, Jinv=None):
        self.n = n
        self.vectors = vectors      # name -> list[QC]
        self.T = Fraction(T)        # tanh d0
        if not 0 < self.T < 1:
            raise ValueError("tanh d0 must lie in (0,1)")
        self._rows = _std_symplectic_rows(n) if Jinv is None else sparse_rows(Jinv)
        self.dim = len(self._rows)
        self._wc_memo = {}

    # wedge of raw coordinate vectors
    def w(self, x, y):
        x = self.vectors[x] if isinstance(x, str) else x
        y = self.vectors[y] if isinstance(y, str) else y
        return _w(self._rows, x, y)

    def wc(self, x, y):
        """w(x, conj y).  Between them the identity routes read only
        wc(v1, v1), wc(v2, v2) and wc(u, v2), so a pairing of two named
        vectors is kept until either name is bound to another vector."""
        if not (isinstance(x, str) and isinstance(y, str)):
            y = self.vectors[y] if isinstance(y, str) else y
            return self.w(x, [c.conjugate() for c in y])
        vx, vy = self.vectors[x], self.vectors[y]
        hit = self._wc_memo.get((x, y))
        if hit is None or hit[0] is not vx or hit[1] is not vy:
            hit = (vx, vy, self.w(vx, [c.conjugate() for c in vy]))
            self._wc_memo[(x, y)] = hit
        return hit[2]

    # rational hyperbolic data
    def cosh2(self):
        return 1 / (1 - self.T * self.T)

    def sinh2d0(self):
        return 2 * self.T / (1 - self.T * self.T)

    def cosh3_sinh(self):
        return self.T / (1 - self.T * self.T) ** 2

    # -- generation ---------------------------------------------------------
    @classmethod
    def random(cls, rng, n=3, fiber=True):
        """Random scenario; with ``fiber`` the holomorphic-family relations hold:
        i u^u-bar = 4 tanh d0, v1^u-bar = 0, and isotropy of (u, v1, v2)."""
        dim = 2 * n
        rows = _std_symplectic_rows(n)
        for _ in range(200):
            u = [_rand_qc(rng) for _ in range(dim)]
            wuu = _w(rows, u, [c.conjugate() for c in u])
            if wuu.re != 0 or wuu.im == 0:
                continue
            t4 = (QC_I * wuu).re
            if t4 < 0:
                u = [c.conjugate() for c in u]
                t4 = -t4
            # scale u so that T = i w(u, u-bar)/4 lands in (0,1)
            scale = F1
            while scale * scale * t4 >= 4:
                scale = scale / 2
            u = [QC(scale, 0) * c for c in u]
            sc = cls(n, {"u": u}, scale * scale * t4 / 4)
            if fiber:
                # w(v1, u) = 0 (isotropy), w(v1, conj u) = 0 (first-variation
                # vanishing), w(v2, u) = w(v2, v1) = 0 (isotropy)
                v1 = sc._sample_constrained(rng, [u, [c.conjugate() for c in u]])
                v2 = sc._sample_constrained(rng, [u, v1])
            else:
                v1 = [_rand_qc(rng) for _ in range(dim)]
                v2 = [_rand_qc(rng) for _ in range(dim)]
            if all(c.is_zero() for c in v1) or all(c.is_zero() for c in v2):
                continue
            sc.vectors.update(v1=v1, v2=v2)
            return sc
        raise RuntimeError("scenario generation failed")

    def _sample_constrained(self, rng, targets):
        """Random vector x with w(x, t) = 0 for each t in ``targets``."""
        units = [[QC(1, 0) if i == k else QC(0, 0) for i in range(self.dim)]
                 for k in range(self.dim)]
        # w(x, t) is the linear functional x -> sum_i x_i w(e_i, t)
        basis = nullspace([[self.w(e, t) for e in units] for t in targets])
        if not basis:
            raise RuntimeError("constraint system has no nontrivial solutions")
        out = [QC(0, 0)] * self.dim
        for b in basis:
            c = _rand_qc(rng)
            out = [o + c * x for o, x in zip(out, b)]
        return out

    # -- identity evaluations (all exact) ------------------------------------
    def laplacian_fiber_general_route(self):
        """General linear-family Laplacian with the second-order wedge terms
        replaced through the fiber relations."""
        c2 = self.cosh2()
        wv1v1 = self.wc("v1", "v1")
        wv2v2 = self.wc("v2", "v2")
        # u^(s)-bar and s^(u)-bar both equal -v1^v1-bar under the relations
        n_ll = QC(0, Fraction(1, 4)) * (wv1v1 + wv2v2 - wv1v1 - wv1v1)
        wuv2 = self.wc("u", "v2")
        n_l = QC(0, Fraction(1, 4)) * wuv2     # v1^u-bar = 0 on fiber data
        quad = n_l * n_l.conjugate()
        val = c2 * n_ll + (2 * self.T * c2 * c2) * quad
        return val

    def laplacian_paper_formula(self):
        """The distance Levi form in its reduced fiber shape."""
        wuv2 = self.wc("u", "v2")
        term1 = self.cosh3_sinh() / 8 * wuv2.abs2()
        term2 = QC(0, self.cosh2() / 4) * (self.wc("v2", "v2") - self.wc("v1", "v1"))
        return QC(term1, 0) + term2

    def levi_green_log_route(self):
        """Levi form of log tanh d via N_lamlambar/N - |N_lam|^2/N^2."""
        wuv2 = self.wc("u", "v2")
        n_ll = QC(0, Fraction(1, 4)) * (self.wc("v2", "v2") - self.wc("v1", "v1"))
        n_l = QC(0, Fraction(1, 4)) * wuv2
        return n_ll / self.T - QC(n_l.abs2() / (self.T * self.T), 0)

    def levi_green_paper_formula(self):
        wuv2 = self.wc("u", "v2")
        term1 = QC(0, Fraction(1, 4) / self.T) * (self.wc("v2", "v2") - self.wc("v1", "v1"))
        term2 = QC(wuv2.abs2() / (16 * self.T * self.T), 0)
        return term1 - term2

    def normal_vector_levi(self):
        """Levi form of log tanh d along the Teichmuller-disk direction:
        v1 = 0, v2 = u / sinh(2 d0).  Must vanish identically."""
        c = 1 / self.sinh2d0()
        u = self.vectors["u"]
        v2 = [QC(c, 0) * z for z in u]
        wv2v2 = self.w(v2, [z.conjugate() for z in v2])
        wuv2 = self.w(self.vectors["u"], [z.conjugate() for z in v2])
        n_ll = QC(0, Fraction(1, 4)) * wv2v2
        n_l = QC(0, Fraction(1, 4)) * wuv2
        return n_ll / self.T - QC(n_l.abs2() / (self.T * self.T), 0)

    def thurston_topological_route(self):
        """(i/4T)(v2^v2-bar - v1^v1-bar) against the Thurston pairing of the
        xi-direction initial-differential classes x1 = 2(v1+v2),
        x2 = 2i(v1-v2); requires the isotropy relation w(v1, v2) = 0."""
        v1, v2 = self.vectors["v1"], self.vectors["v2"]
        x1 = [2 * (a + b) for a, b in zip(v1, v2)]
        x2 = [QC(0, 2) * (a - b) for a, b in zip(v1, v2)]
        rx1 = [QC(z.re, 0) for z in x1]
        rx2 = [QC(z.re, 0) for z in x2]
        th = self.w(rx1, rx2) / 8
        lhs = QC(0, Fraction(1, 4) / self.T) * (self.wc("v2", "v2") - self.wc("v1", "v1"))
        rhs = th / QC(self.T, 0)
        return lhs, rhs


def _rand_qc(rng, span=6):
    return QC(Fraction(rng.randint(-span, span), rng.randint(1, 4)),
              Fraction(rng.randint(-span, span), rng.randint(1, 4)))


def scenario_identity_check(rng, count=1000, n=3) -> CheckReport:
    """Criterion-style exact verification over random fiber scenarios."""
    failures = []
    for k in range(count):
        sc = PairingScenario.random(rng, n=n, fiber=True)
        a = sc.laplacian_fiber_general_route()
        b = sc.laplacian_paper_formula()
        if a != b:
            failures.append({"case": k, "identity": "Leviform-Teichmullerdist"})
        g1 = sc.levi_green_log_route()
        g2 = sc.levi_green_paper_formula()
        if g1 != g2:
            failures.append({"case": k, "identity": "Levi-Green"})
        nv = sc.normal_vector_levi()
        if not nv.is_zero():
            failures.append({"case": k, "identity": "normal-vector-Levi"})
        lhs, rhs = sc.thurston_topological_route()
        if lhs != rhs:
            failures.append({"case": k, "identity": "topological-Levi"})
    return CheckReport(
        name="levi-algebra-scenarios",
        passed=not failures,
        max_abs_err=0.0 if not failures else 1.0,
        max_rel_err=0.0 if not failures else 1.0,
        cases=failures[:20] + [{"count": count, "failures": len(failures)}],
    )
