"""The three workloads: set-up, case plan and one verified case each.

Every check compares quantities that do not depend on the chosen homology
basis (ranks, exact pairings, exact additivity, Delaunay certificates), so a
change that legitimately replaces the basis does not fail a case.

qdlab is called through module attributes (``H.homology_data``, not a name
bound at import) so that :class:`probe.Probe` sees each call.
"""

from __future__ import annotations

import random
from fractions import Fraction

import qdlab.builders as B
import qdlab.cover as C
import qdlab.delaunay as D
import qdlab.deformation as DF
import qdlab.homology as H
import qdlab.levi as L
import qdlab.periods as P
import qdlab.surface as S
from qdlab.errors import TriangleFlip
from qdlab.exact import QC, QC_I, is_zero

SURFACES = tuple(B.bundled_names())
SCENARIO_LABEL = "-"   # PairingScenario data does not come from a surface


class InvariantFailed(Exception):
    """A checked invariant does not hold for this case."""


def _check(cond, what):
    if not cond:
        raise InvariantFailed(what)


def _rand_qc(rng, span=4):
    return QC(Fraction(rng.randint(-span, span), rng.randint(1, 3)),
              Fraction(rng.randint(-span, span), rng.randint(1, 3)))


def _random_vector(h, rng, space):
    n = len(h.rel_minus_basis if space == "relative" else h.abs_minus_basis)
    return P.PeriodVector(tuple(_rand_qc(rng) for _ in range(n)),
                          h.basis_tag, space, "exact")


# -- homology_fresh: criterion 3's inner loop ---------------------------------

def setup_surfaces(tick):
    """The bundled surfaces; ``tick()`` is called after each one."""
    ctx = {}
    for name in SURFACES:
        ctx[name] = B.bundled_surface(name)
        tick()
    return ctx


def case_homology_fresh(ctx, kind, label, rng, probe):
    v = B.random_flip_variant(ctx[label], rng, rng.randint(1, 5))
    c = C.build_cover(v)
    h = H.homology_data(c)
    u = P.period_map(c, h)
    _check(QC_I * H.wedge(h, u, u.conjugate()) == QC(4 * S.area(v), 0),
           "i*wedge(u, conj u) != 4*area")
    _check(h.rank_rel_minus() == S.stratum_dim(S.symbol(v), v.genus()),
           "rank of relative H1^- != stratum dimension")


# -- deform_certify: criterion 12's loop ---------------------------------------

def case_deform_certify(ctx, kind, label, rng, probe):
    v = B.random_flip_variant(B.random_deform_variant(ctx[label], rng), rng,
                              rng.randint(1, 6))
    d, _ = D.delaunayize(v)
    ok, bad = D.is_delaunay(d)
    _check(ok, f"{len(bad)} edges fail the incircle test after delaunayize")
    d2, again = D.delaunayize(d)
    _check(not again and d2.triangles == d.triangles,
           "delaunayize is not idempotent")
    _check(S.area(d) == S.area(v), "flips changed the area")
    _check(S.symbol(d) == S.symbol(v), "flips changed the stratum symbol")


# -- pairing_queries: criteria 4, 6, 7, 10 and 11 as queries --------------------

def _context(s):
    c = C.build_cover(s)
    h = H.homology_data(c)
    return s, c, h, P.period_map(c, h)


def _below_unit_area(s):
    """s scaled by a power of 1/2 to area < 1, the fiber chart of criterion 7."""
    scale = Fraction(1, 2)
    while scale * scale * S.area(s) >= 1:
        scale /= 2
    return s.scaled(scale)


def setup_pairing(tick):
    """The eight homology contexts: each bundled surface and its small copy.
    ``tick()`` is called after each context."""
    ctx = {}
    for name in SURFACES:
        s = B.bundled_surface(name)
        ctx[name] = _context(s)
        tick()
        ctx[name + "@scaled"] = _context(_below_unit_area(s))
        tick()
    return ctx


FD_CONFIG = L.FDConfig(step=1e-4, richardson_levels=1, tolerance=1e-6)
ADDITIVITY_SCALES = (Fraction(1, 16), Fraction(1, 8), Fraction(1, 8),
                     Fraction(1, 8))


def _wedge_vs_cup(ctx, label, rng):
    _, _, h, _ = ctx[label]
    x = _random_vector(h, rng, "absolute")
    y = _random_vector(h, rng, "absolute")
    _check(H.wedge(h, x, y) == H.wedge_cup_oracle(h, x, y),
           "wedge != cup-product oracle")


def _additivity(ctx, label, rng):
    # criterion 6 shrinks v by 1/8 after a TriangleFlip; keep shrinking a
    # few times so that every case ends in a checked deformation
    _, c, h, u0 = ctx[label]
    v = _random_vector(h, rng, "relative")
    for factor in ADDITIVITY_SCALES:
        v = v.scale(factor)
        try:
            c2 = DF.affine_deform(c, h, v)
            break
        except TriangleFlip:
            continue
    else:
        raise InvariantFailed("affine_deform flipped a triangle at every scale")
    _check((P.period_map(c2, h) - u0 - v).is_zero(),
           "period_map(deform(v)) != period_map + v")


def _psi_compatible(h, rng, x):
    """Random y with wedge(x, y) = 0, as criterion 10 draws it."""
    y = _random_vector(h, rng, "absolute")
    w = H.wedge(h, x, y)
    if is_zero(w):
        return y
    for _ in range(40):
        z = _random_vector(h, rng, "absolute")
        wz = H.wedge(h, x, z)
        if not is_zero(wz):
            return y - z.scale(w / wz)
    return x.scale(_rand_qc(rng))


def _thurston(ctx, label, rng):
    _, _, h, _ = ctx[label]
    x = _random_vector(h, rng, "absolute")
    y = _psi_compatible(h, rng, x)
    t = L.thurston_pairing(h, x, y)
    _check(L.thurston_pairing(h, y, x) == -t, "Thurston pairing not antisymmetric")
    _check(L.thurston_pairing(h, x, x) == 0, "Thurston pairing of x with x != 0")


def _first_variation(ctx, label, rng):
    st, cv, hv, uv = ctx[label + "@scaled"]
    v1 = _random_vector(hv, rng, "relative").scale(Fraction(1, 12))
    v2 = _random_vector(hv, rng, "relative").scale(Fraction(1, 12))
    fam = DF.DeformationFamily(st, cv, hv, v1, v2, u=uv)
    rep = L.first_variation_check(fam, FD_CONFIG)
    _check(rep.passed, f"first variation FD rel err {rep.max_rel_err:.3g}")


QUERIES = {
    "wedge_cup": _wedge_vs_cup,
    "additivity": _additivity,
    "thurston": _thurston,
    "first_variation": _first_variation,
}


def case_pairing_queries(ctx, kind, label, rng, probe):
    if kind != "scenario":
        QUERIES[kind](ctx, label, rng)
        return
    # PairingScenario.random plus its four identities (criterion 11)
    with probe.span("levi.scenario"):
        rep = L.scenario_identity_check(rng, count=1)
    _check(rep.passed, f"PairingScenario identity failed: {rep.cases[0]}")


# -- the table ----------------------------------------------------------------

class Workload:
    def __init__(self, name, setup, case, kinds):
        self.name = name
        self.setup = setup
        self.case = case
        self.kinds = kinds

    def block(self):
        """One block of the plan: every (kind, surface) pair once.  Scenario
        cases use no surface and carry the label SCENARIO_LABEL."""
        return [(kind, SCENARIO_LABEL if kind == "scenario" else label)
                for kind in self.kinds for label in SURFACES]

    def plan(self, seed):
        """Blocks of (index, kind, label); each block is shuffled by the seed.

        Within a block every surface (and, for pairing_queries, every query
        kind) appears equally often, so a surface is still drawn uniformly
        for each case while the mix of a short run cannot drift far from
        uniform between seeds.
        """
        rng = random.Random(f"{self.name}/{seed}/plan")
        index = 0
        while True:
            block = self.block()
            rng.shuffle(block)
            yield [(index + k, kind, label) for k, (kind, label) in enumerate(block)]
            index += len(block)

    def case_rng(self, seed, index):
        return random.Random(f"{self.name}/{seed}/case/{index}")


WORKLOADS = {
    "homology_fresh": Workload("homology_fresh", setup_surfaces,
                               case_homology_fresh, ("fresh",)),
    "deform_certify": Workload("deform_certify", setup_surfaces,
                               case_deform_certify, ("deform",)),
    "pairing_queries": Workload("pairing_queries", setup_pairing,
                                case_pairing_queries,
                                tuple(QUERIES) + ("scenario",)),
}
