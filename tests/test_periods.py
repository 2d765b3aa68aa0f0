"""Period map and the chain-level period cochain."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from qdlab.builders import bundled_names, bundled_surface
from qdlab.cover import build_cover
from qdlab.errors import BasisMismatch
from qdlab.exact import QC, QC_I
from qdlab.homology import homology_data, wedge
from qdlab.periods import PeriodVector, chain_period_cochain, period_map
from qdlab.surface import area


def test_marked_torus_periods():
    s = bundled_surface("marked_torus")
    c = build_cover(s)
    h = homology_data(c)
    u = period_map(c, h)
    assert len(u.coords) == 2
    # the area identity pins the normalization: i wedge(u, ubar) = 4*1
    assert QC_I * wedge(h, u, u.conjugate()) == QC(4, 0)
    # anti-invariant cycles pick up both sheets: periods live in 2*(Z + Zi)
    for z in u.coords:
        assert (z.re / 2).denominator == 1 and (z.im / 2).denominator == 1


def test_period_vector_never_zero():
    for name in bundled_names():
        s = bundled_surface(name)
        c = build_cover(s)
        h = homology_data(c)
        assert not period_map(c, h).is_zero()


def test_cochain_closed_on_triangle_boundaries():
    s = bundled_surface("pillowcase")
    c = build_cover(s)
    cochain = chain_period_cochain(c)
    cs = c.cover_surface
    for tri in cs.triangles:
        total = cochain[tri[0]] + cochain[tri[1]] + cochain[tri[2]]
        assert total.is_zero()


def test_cochain_consistent_with_period_map():
    s = bundled_surface("genus2_generic")
    c = build_cover(s)
    h = homology_data(c)
    u = period_map(c, h)
    cochain = chain_period_cochain(c)
    # a basis cycle lifted to the cover: coefficient c_r on lift(r, 0) and
    # -c_r on lift(r, 1)
    for j, cyc in enumerate(h.rel_minus_basis):
        total = QC(0, 0)
        for r, coef in zip(h.reps, cyc):
            if coef:
                total = total + (cochain[c.lift_edge(r, 0)]
                                 - cochain[c.lift_edge(r, 1)]) * coef
        assert total == u.coords[j]


def test_cochain_iota_pullback_negates():
    s = bundled_surface("l_origami")
    c = build_cover(s)
    cochain = chain_period_cochain(c)
    for f in c.cover_surface.edges():
        assert cochain[c.involution_edge(f)] == -cochain[f]


def test_vector_arithmetic_and_tags():
    s = bundled_surface("pillowcase")
    c = build_cover(s)
    h = homology_data(c)
    u = period_map(c, h)
    v = u.scale(Fraction(1, 2))
    assert (v + v - u).is_zero()
    w = PeriodVector(u.coords, "other-tag", "relative", "exact")
    with pytest.raises(BasisMismatch):
        u + w


def test_vector_json_round_trip():
    from qdlab.io_json import vector_from_dict, vector_to_dict

    s = bundled_surface("pillowcase")
    c = build_cover(s)
    h = homology_data(c)
    u = period_map(c, h)
    u2 = vector_from_dict(vector_to_dict(u))
    assert (u2 - u).is_zero()
    assert u2.basis_tag == u.basis_tag


def test_scaled_surface_scales_periods():
    s = bundled_surface("marked_torus")
    c = build_cover(s)
    h = homology_data(c)
    u = period_map(c, h)
    s2 = s.scaled(Fraction(1, 3))
    c2 = build_cover(s2)
    u2 = period_map(c2, h)
    assert (u2 - u.scale(Fraction(1, 3))).is_zero()
    assert area(s2) == Fraction(1, 9) * area(s)


# ---------------------------------------------------------------------------
# exact vectors on integer numerators against the QC formulas they replaced
# ---------------------------------------------------------------------------

def _rand_qc(rng, span=5):
    return QC(Fraction(rng.randint(-span, span), rng.randint(1, 6)),
              Fraction(rng.randint(-span, span), rng.randint(1, 6)))


def _qc_vectors():
    """Seeded exact vectors (with and without zero coordinates) next to the
    period vectors of the bundled surfaces and of scaled copies."""
    from qdlab.builders import random_deform_variant

    for name in bundled_names():
        rng = random.Random(f"pv/{name}")
        base = bundled_surface(name)
        h = homology_data(build_cover(base))
        for s in (base, base.scaled(Fraction(1, 3)), base.scaled(QC(Fraction(2, 7), 1)),
                  random_deform_variant(base, rng)):
            u = period_map(build_cover(s), h)
            n = len(u.coords)
            vs = [u]
            for sparse in (False, True, True):
                vs.append(PeriodVector(
                    tuple(QC(0, 0) if sparse and rng.random() < 0.5 else _rand_qc(rng)
                          for _ in range(n)), h.basis_tag, "relative", "exact"))
            yield name, rng, vs


def _oracle_repr(coords, v):
    return (f"PeriodVector(coords={coords!r}, basis_tag={v.basis_tag!r}, "
            f"space={v.space!r}, mode={v.mode!r})")


def _same(v, coords, like):
    """v holds the QC coordinates ``coords`` on the basis of ``like``, with
    the repr, hash and equality of the coordinate tuple."""
    assert all(type(z) is QC for z in v.coords)
    assert v.coords == coords
    assert repr(v) == _oracle_repr(coords, like)
    assert hash(v) == hash((coords, like.basis_tag, like.space, like.mode))
    assert v == PeriodVector(coords, like.basis_tag, like.space, like.mode)
    assert v._den > 0 and math.gcd(v._den, *(x for z in v._num for x in z)) == 1


def test_integer_vector_ops_match_the_qc_formulas():
    factors = (0, 2, -3, Fraction(3, 7), Fraction(-5, 4), QC(Fraction(1, 2), Fraction(-2, 3)),
               QC(0, 1), QC(Fraction(5, 3), 0))
    for name, rng, vs in _qc_vectors():
        for x in vs:
            cx = x.coords
            _same(x, cx, x)
            assert PeriodVector(cx, x.basis_tag).coords is cx
            _same(x.conjugate(), tuple(z.conjugate() for z in cx), x)
            _same(-x, tuple(-z for z in cx), x)
            assert x.is_zero() == all(z.is_zero() for z in cx)
            for f in factors:
                y = x.scale(f)
                _same(y, tuple(f * z for z in cx), x)
                assert y.is_zero() == all((f * z).is_zero() for z in cx), (name, f)
            for y in vs:
                _same(x + y, tuple(a + b for a, b in zip(cx, y.coords)), x)
                _same(x - y, tuple(a - b for a, b in zip(cx, y.coords)), x)
                assert (x == y) == (cx == y.coords)
                assert (x - y).is_zero() == (cx == y.coords)
            assert (x - x).is_zero()
            assert (x - x.scale(2)).is_zero() == x.is_zero()
            assert x.zero_like() == x.scale(0) and x.zero_like().is_zero()
            assert x.to_float().coords == tuple(complex(z) for z in cx)


def test_vectors_built_from_coords_keep_them_and_compare_by_value():
    coords = (QC(Fraction(2, 4), 0), QC(0, Fraction(-6, 9)))
    v = PeriodVector(coords, "tag", "absolute")
    assert v.coords is coords and v._num == ((3, 0), (0, -4)) and v._den == 6
    w = PeriodVector((Fraction(1, 2), QC(0, Fraction(-2, 3))), "tag", "absolute")
    assert v == w and v != PeriodVector(coords, "tag", "relative")
    assert v != PeriodVector(coords, "other", "absolute")
    assert v != v.to_float() and v.to_float() == v.to_float()
    with pytest.raises(AttributeError):
        v.basis_tag = "other"
    for x in (v, v.scale(3), v.to_float()):
        assert pickle.loads(pickle.dumps(x)) == x == copy.deepcopy(x)
    with pytest.raises(BasisMismatch):
        PeriodVector(coords, "tag", "neither")
    with pytest.raises(BasisMismatch):
        v + PeriodVector(coords[:1], "tag", "absolute")


def test_float_vectors_keep_their_complex_coords():
    s = bundled_surface("genus2_generic")
    c = build_cover(s)
    h = homology_data(c)
    u = period_map(c, h)
    f = u.to_float()
    assert f._num is None and f.mode == "float"
    assert (f + f).coords == tuple(2 * z for z in f.coords)
    assert f.scale(0.5).coords == tuple(0.5 * z for z in f.coords)
    assert f.conjugate().coords == tuple(z.conjugate() for z in f.coords)
    assert f.zero_like().coords == (0j,) * len(f.coords)
    fc = period_map(build_cover(s.to_float()), h)
    assert fc.mode == "float" and all(type(z) is complex for z in fc.coords)
    assert all(abs(a - b) < 1e-12 for a, b in zip(fc.coords, f.coords))


def test_period_map_of_an_exact_cover_leaves_its_qc_table_unbuilt():
    from qdlab.builders import random_flip_variant

    for name in bundled_names():
        rng = random.Random(f"unbuilt/{name}")
        base = bundled_surface(name)
        for s in (base, base.scaled(Fraction(5, 6)), random_flip_variant(base, rng, 3)):
            c = build_cover(s)
            h = homology_data(c)
            built = s._vec is not None
            u = period_map(c, h)
            # period_map reads the base numerators and builds no QC table
            assert c.cover_surface._vec is None and (s._vec is not None) == built
            # the periods of the basis cycles lifted to the cover, from its
            # QC table
            vec = c.cover_surface.vec
            want = tuple(sum(((vec[c.lift_edge(r, 0)] - vec[c.lift_edge(r, 1)]) * coef
                              for r, coef in zip(h.reps, cyc) if coef), QC(0, 0))
                         for cyc in h.rel_minus_basis)
            assert u.coords == want and repr(u) == _oracle_repr(want, u)
