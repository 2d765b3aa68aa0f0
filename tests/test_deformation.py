"""Geodesic flow, affine deformations, disk families, fiber distance."""

import math
import random
from fractions import Fraction

import pytest

from qdlab.builders import bundled_names, bundled_surface
from qdlab.cover import build_cover
from qdlab.deformation import (
    affine_deform,
    fiber_distance,
    geodesic_flow,
    lift_to_cochain,
    teich_disk_point,
)
from qdlab.errors import (
    NormOutOfRange,
    OutOfDisk,
    TriangleFlip,
)
from qdlab.exact import QC
from qdlab.homology import homology_data
from qdlab.periods import PeriodVector, period_map
from qdlab.surface import area, symbol


def _ctx(name):
    s = bundled_surface(name)
    c = build_cover(s)
    return s, c, homology_data(c)


def _rand_rel(h, rng, span=3, scale=Fraction(1, 16)):
    return PeriodVector(
        tuple(QC(Fraction(rng.randint(-span, span), rng.randint(1, 3)) * scale,
                 Fraction(rng.randint(-span, span), rng.randint(1, 3)) * scale)
              for _ in range(len(h.rel_minus_basis))),
        h.basis_tag, "relative", "exact")


def _evaluate(cochain, cyc):
    """A cochain (values a_r per edge pair) on a twisted cycle (coefficients
    on r~ = lift(r, 0) - lift(r, 1)): 2 * sum c_r a_r."""
    return 2 * sum((cochain[i] * x for i, x in enumerate(cyc) if x), QC(0))


class TestGeodesicFlow:
    def test_identity_at_zero(self):
        s = bundled_surface("marked_torus")
        assert geodesic_flow(s, 0) is s

    def test_half_log_two_rectangle(self):
        s = bundled_surface("marked_torus")
        st = geodesic_flow(s, 0.5 * math.log(2))
        assert abs(float(area(st)) - 0.5) < 1e-14
        # vertical edges contract to 1/2, horizontal stay
        for e, v in s.vec.items():
            c0, c1 = complex(v), complex(st.vec[e])
            assert abs(c1.real - c0.real) < 1e-14
            assert abs(c1.imag - 0.5 * c0.imag) < 1e-14

    def test_norm_scales_exactly(self):
        for name in bundled_names():
            s = bundled_surface(name)
            a0 = float(area(s))
            for t in (0.1, 1.0, 5.0):
                st = geodesic_flow(s, t)
                k = math.exp(-2 * t)
                assert abs(float(area(st)) - k * a0) <= 1e-12 * k * a0
                assert symbol(st) == symbol(s)

    def test_periods_transform(self):
        s, c, h = _ctx("genus2_generic")
        u0 = period_map(c, h)
        t = 0.8
        k = math.exp(-2 * t)
        ct = build_cover(geodesic_flow(s, t))
        ut = period_map(ct, h)
        for z0, zt in zip(u0.coords, ut.coords):
            c0, c1 = complex(z0), complex(zt)
            assert abs(c1 - complex(c0.real, k * c0.imag)) < 1e-12 * max(1, abs(c0))


class TestAffineDeform:
    def test_zero_vector_identity(self):
        s, c, h = _ctx("pillowcase")
        v = PeriodVector((QC(0, 0),) * len(h.rel_minus_basis),
                         h.basis_tag, "relative", "exact")
        c2 = affine_deform(c, h, v)
        assert c2.base.vec == c.base.vec

    def test_period_additivity_exact(self):
        rng = random.Random(17)
        for name in bundled_names():
            s, c, h = _ctx(name)
            u0 = period_map(c, h)
            done = 0
            for _ in range(10):
                v = _rand_rel(h, rng)
                try:
                    c2 = affine_deform(c, h, v)
                except TriangleFlip:
                    continue
                assert (period_map(c2, h) - u0 - v).is_zero()
                done += 1
            assert done >= 5

    def test_total_collapse_raises(self):
        s, c, h = _ctx("marked_torus")
        u = period_map(c, h)
        with pytest.raises(TriangleFlip):
            affine_deform(c, h, u.scale(-1))

    def test_symbol_preserved_for_small_deformations(self):
        rng = random.Random(19)
        s, c, h = _ctx("genus2_generic")
        for _ in range(5):
            v = _rand_rel(h, rng, scale=Fraction(1, 64))
            c2 = affine_deform(c, h, v)
            assert symbol(c2.base) == symbol(s)

    def test_rectangle_from_torus(self):
        # shorten the vertical period: explicitly prescribed deformation
        s, c, h = _ctx("marked_torus")
        u = period_map(c, h)
        target = PeriodVector(
            tuple(QC(0, -Fraction(1, 10) * z.im / 1) for z in u.coords),
            h.basis_tag, "relative", "exact")
        c2 = affine_deform(c, h, target)
        u2 = period_map(c2, h)
        for z0, z2 in zip(u.coords, u2.coords):
            assert z2.re == z0.re
            assert z2.im == z0.im * Fraction(9, 10)


class TestLiftToCochain:
    def test_zero(self):
        s, c, h = _ctx("pillowcase")
        v = PeriodVector((QC(0, 0),) * len(h.rel_minus_basis),
                         h.basis_tag, "relative", "exact")
        coc = lift_to_cochain(h, v)
        assert all(x.is_zero() for x in coc.values())

    def test_dual_basis_lift(self):
        s, c, h = _ctx("genus2_generic")
        n = len(h.rel_minus_basis)
        for k in range(n):
            v = PeriodVector(tuple(QC(1 if i == k else 0, 0) for i in range(n)),
                             h.basis_tag, "relative", "exact")
            coc = lift_to_cochain(h, v)
            per_rep = {i: coc[h.reps[i]] for i in range(len(h.reps))}
            for j, cyc in enumerate(h.rel_minus_basis):
                assert _evaluate(per_rep, cyc) == v.coords[j]

    def test_random_lift_reevaluates(self):
        rng = random.Random(23)
        s, c, h = _ctx("l_origami")
        for _ in range(20):
            v = _rand_rel(h, rng, span=9, scale=Fraction(1, 1))
            coc = lift_to_cochain(h, v)
            per_rep = {i: coc[h.reps[i]] for i in range(len(h.reps))}
            for j, cyc in enumerate(h.rel_minus_basis):
                assert _evaluate(per_rep, cyc) == v.coords[j]

    def test_anti_invariance(self):
        # the base values extend to the cover as coc[e] on lift(e, 0) and
        # -coc[e] on lift(e, 1); that cochain is well defined across every
        # glued cover edge and anti-invariant
        rng = random.Random(29)
        s, c, h = _ctx("pillowcase")
        v = _rand_rel(h, rng, scale=Fraction(1, 1))
        coc = lift_to_cochain(h, v)
        assert sorted(coc) == s.edges()
        up = {c.lift_edge(e, sheet): -x if sheet else x
              for e, x in coc.items() for sheet in (0, 1)}
        cs = c.cover_surface
        for f in cs.edges():
            assert up[cs.glue[f]] == -up[f]
            assert up[c.involution_edge(f)] == -up[f]


@pytest.mark.parametrize("name", bundled_names())
def test_float_deform_agrees_with_exact(name):
    s, c, h = _ctx(name)
    cf = build_cover(s.to_float())
    hf = homology_data(cf)
    v = _rand_rel(h, random.Random(f"float/{name}"), scale=Fraction(1, 8))
    for _ in range(6):
        try:
            exact = affine_deform(c, h, v).base.vec
            break
        except TriangleFlip:
            v = v.scale(Fraction(1, 2))
    else:
        pytest.fail("every scale of v flips a triangle")
    vf = PeriodVector(tuple(complex(z) for z in v.coords), hf.basis_tag,
                      "relative", "float")
    flt = affine_deform(cf, hf, vf).base.vec
    for e, z in exact.items():
        assert abs(flt[e] - complex(z)) <= 1e-12 * abs(complex(z))


class TestDisk:
    def test_lambda_zero(self):
        s = bundled_surface("marked_torus")
        surf, dist = teich_disk_point(s, 0.7, 0)
        assert abs(dist - 0.7) < 1e-12
        # represented differential is tanh(d0) q0/||q0||: area = tanh d0
        assert abs(float(area(surf)) - math.tanh(0.7)) < 1e-12

    def test_base_point(self):
        s = bundled_surface("marked_torus")
        surf, dist = teich_disk_point(s, 0.7, -math.tanh(0.7))
        assert dist == 0.0
        assert surf is None

    def test_real_ray_monotone(self):
        s = bundled_surface("marked_torus")
        d0 = 0.5
        lams = [-0.2, 0.0, 0.2, 0.4]
        dists = [teich_disk_point(s, d0, x)[1] for x in lams]
        m = math.tanh(d0)
        for lam, d in zip(lams, dists):
            expect = abs(math.atanh((lam + m) / (1 + m * lam)))
            assert abs(d - expect) < 1e-12
        assert dists == sorted(dists)

    def test_out_of_disk(self):
        s = bundled_surface("marked_torus")
        with pytest.raises(OutOfDisk):
            teich_disk_point(s, 0.7, 1.2)


class TestFiberDistance:
    def test_half(self):
        s = bundled_surface("marked_torus").scaled(QC(Fraction(1, 2), 0))
        # scaling vectors by 1/2 scales area by 1/4
        assert abs(fiber_distance(s) - math.atanh(0.25)) < 1e-12

    def test_value_at_half_area(self):
        s = bundled_surface("pillowcase").scaled(Fraction(1, 2))
        # area 2 * (1/2)^2 = 1/2
        assert abs(fiber_distance(s) - 0.5493061443340549) < 1e-12

    def test_norm_out_of_range(self):
        with pytest.raises(NormOutOfRange):
            fiber_distance(bundled_surface("pillowcase"))

    def test_inverse_pair(self):
        s = bundled_surface("marked_torus")
        r = math.sqrt(math.tanh(1.0))
        sf = s.to_float().scaled(r)
        assert abs(fiber_distance(sf) - 1.0) < 1e-12


def test_disk_distance_additive_along_real_ray():
    # at real lambda the disk parametrization is the geodesic through the
    # base point: d(lambda) = |d0 + arctanh(lambda)|
    s = bundled_surface("marked_torus")
    d0 = 0.6
    for lam in (-0.4, -0.2, 0.1, 0.3):
        _, dist = teich_disk_point(s, d0, lam)
        assert abs(dist - abs(d0 + math.atanh(lam))) < 1e-12


def test_flow_matches_disk_norm_scaling():
    # ||q_t|| = e^{-2t} ||q_0|| is the same scaling law the disk induces
    s = bundled_surface("pillowcase").scaled(Fraction(1, 2))
    a0 = float(area(s))
    for t in (0.2, 0.9):
        st = geodesic_flow(s, t)
        assert abs(fiber_distance(st) - math.atanh(math.exp(-2 * t) * a0)) < 1e-12
