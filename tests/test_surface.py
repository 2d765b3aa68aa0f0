"""Core surface validation, orders, symbol, area, stratum dimension."""

import math
import random
from fractions import Fraction

import pytest

from qdlab.builders import (
    bundled_names,
    bundled_surface,
    genus2_generic,
    l_origami,
    marked_torus,
    pillowcase,
    random_deform_variant,
    skewed_torus,
)
from qdlab.cover import build_cover
from qdlab.delaunay import flip_edge, flippable
from qdlab.errors import (
    ClosureViolation,
    DegenerateTriangle,
    GluingMismatch,
    InconsistentSymbol,
    SurfaceError,
    UnmarkedPole,
)
from qdlab.exact import QC
from qdlab.surface import (
    FlatSurface,
    area,
    make_surface,
    make_symbol,
    stratum_dim,
    symbol,
)


def angle_sum_oracle(s, v):
    """Independent float oracle: sum of atan2 corner angles at vertex v."""
    total = 0.0
    for e in s.vertex_corners(v):
        u = complex(s.vec[e])
        w = complex(-s.vec[s.prev_edge(e)])
        total += math.atan2((u.conjugate() * w).imag, (u.conjugate() * w).real)
    return total


class TestBundledSurfaces:
    def test_pillowcase_orders(self):
        s = pillowcase()
        orders = sorted(s.orders().values())
        assert orders == [-1, -1, -1, -1]
        for v in s.vertices():
            assert abs(angle_sum_oracle(s, v) - math.pi) < 1e-12

    def test_pillowcase_symbol_and_area(self):
        s = pillowcase()
        assert symbol(s) == make_symbol(0, 4, {}, -1)
        assert area(s) == 2
        assert s.genus() == 0

    def test_marked_torus(self):
        s = marked_torus()
        assert symbol(s) == make_symbol(1, 0, {}, 1)
        assert area(s) == 1
        assert s.genus() == 1
        [v] = s.vertices()
        assert abs(angle_sum_oracle(s, v) - 2 * math.pi) < 1e-12

    def test_l_origami(self):
        s = l_origami()
        assert symbol(s) == make_symbol(0, 0, {4: 1}, 1)
        assert s.genus() == 2
        assert area(s) == 3
        [v] = s.vertices()
        assert abs(angle_sum_oracle(s, v) - 6 * math.pi) < 1e-11

    def test_genus2_four_simple_zeros(self):
        s = genus2_generic()
        assert symbol(s) == make_symbol(0, 0, {1: 4}, -1)
        assert s.genus() == 2
        assert area(s) == 6
        for v in s.vertices():
            assert abs(angle_sum_oracle(s, v) - 3 * math.pi) < 1e-11

    def test_gauss_bonnet(self):
        for name in bundled_names():
            s = bundled_surface(name)
            assert sum(s.orders().values()) == 4 * s.genus() - 4

    def test_area_scaling(self):
        s = pillowcase()
        r = Fraction(3, 7)
        assert area(s.scaled(r)) == r * r * area(s)

    def test_float_mode_roundtrip_orders(self):
        s = genus2_generic().to_float()
        assert sorted(s.orders().values()) == [1, 1, 1, 1]
        assert symbol(s) == make_symbol(0, 0, {1: 4}, -1)


class TestBuildErrors:
    def test_zero_edge_vector(self):
        vecs = {0: QC(1), 1: QC(0), 2: QC(-1),
                3: QC(1, 1), 4: QC(-1), 5: QC(0, -1)}
        with pytest.raises(DegenerateTriangle):
            make_surface([(0, 1, 2), (3, 4, 5)], vecs,
                         [(0, 4, 1), (1, 5, 1), (2, 3, 1)], [0])

    def test_closure_violation(self):
        vecs = {0: QC(1), 1: QC(0, 1), 2: QC(-1, -2),
                3: QC(1, 2), 4: QC(-1), 5: QC(0, -1)}
        with pytest.raises((ClosureViolation, GluingMismatch)):
            make_surface([(0, 1, 2), (3, 4, 5)], vecs,
                         [(0, 4, 1), (1, 5, 1), (2, 3, 1)], [0])

    def test_gluing_vector_mismatch(self):
        vecs = {0: QC(1), 1: QC(0, 1), 2: QC(-1, -1),
                3: QC(1, 1), 4: QC(-2), 5: QC(1, -1)}
        with pytest.raises((GluingMismatch, ClosureViolation)):
            make_surface([(0, 1, 2), (3, 4, 5)], vecs,
                         [(0, 4, 1), (1, 5, 1), (2, 3, 1)], [0])

    def test_unmarked_pole(self):
        tris = pillowcase()
        with pytest.raises(UnmarkedPole):
            make_surface(tris.triangles, tris.vec,
                         [(e, tris.glue[e], tris.sign[e])
                          for e in tris.edges() if e < tris.glue[e]],
                         marked=[])

    def test_torus_without_marks_rejected(self):
        # 2g - 2 + m = 0 for an unmarked torus
        t = marked_torus()
        with pytest.raises(SurfaceError):
            make_surface(t.triangles, t.vec,
                         [(e, t.glue[e], t.sign[e])
                          for e in t.edges() if e < t.glue[e]],
                         marked=[])

    def test_declared_sign_disagrees_with_vectors(self):
        t = marked_torus()
        gl = [(e, t.glue[e], t.sign[e]) for e in t.edges() if e < t.glue[e]]
        e, f, sg = gl[0]
        gl[0] = (e, f, -sg)
        with pytest.raises(GluingMismatch):
            make_surface(t.triangles, t.vec, gl, marked=[0])

    def test_marked_edge_that_is_not_a_vertex_id(self):
        t = marked_torus()
        assert t.vertices() == [0] and 1 in t.edges()
        gl = [(e, t.glue[e], t.sign[e]) for e in t.edges() if e < t.glue[e]]
        with pytest.raises(SurfaceError) as info:
            make_surface(t.triangles, t.vec, gl, marked=[1])
        assert type(info.value) is SurfaceError

    def test_negative_orientation(self):
        vecs = {0: QC(1), 1: QC(1, -1), 2: QC(-2, 1),
                3: QC(2, -1), 4: QC(-1), 5: QC(-1, 1)}
        with pytest.raises(DegenerateTriangle):
            make_surface([(0, 1, 2), (3, 4, 5)], vecs,
                         [(0, 4, 1), (1, 5, 1), (2, 3, 1)], [0])


class TestStratumDim:
    def test_pillowcase_dim(self):
        assert stratum_dim(make_symbol(0, 4, {}, -1), 0) == 2

    def test_marked_torus_dim(self):
        assert stratum_dim(make_symbol(1, 0, {}, 1), 1) == 2

    def test_generic_genus2_dim(self):
        assert stratum_dim(make_symbol(0, 0, {1: 4}, -1), 2) == 6

    def test_l_origami_dim(self):
        assert stratum_dim(make_symbol(0, 0, {4: 1}, 1), 2) == 4

    def test_inconsistent_order_sum(self):
        with pytest.raises(InconsistentSymbol):
            stratum_dim(make_symbol(0, 4, {}, -1), 1)

    def test_square_parity_conflict(self):
        with pytest.raises(InconsistentSymbol):
            stratum_dim(make_symbol(0, 0, {1: 4}, 1), 2)

    def test_square_with_poles_conflict(self):
        with pytest.raises(InconsistentSymbol):
            make_symbol(0, 1, {1: 1}, 1) and stratum_dim(
                make_symbol(0, 1, {1: 1}, 1), 1)


class TestSkewedTorus:
    def test_valid_and_symbol(self):
        s = skewed_torus()
        assert symbol(s) == make_symbol(1, 0, {}, 1)
        assert area(s) == 1


def test_area_invariant_under_triangle_relabeling():
    s = pillowcase()
    perm = list(reversed(s.triangles))
    gl = [(e, s.glue[e], s.sign[e]) for e in s.edges() if e < s.glue[e]]
    s2 = make_surface(perm, s.vec, gl, marked=s.marked)
    assert area(s2) == area(s)
    assert symbol(s2) == symbol(s)


# ---------------------------------------------------------------------------
# surfaces derived from a validated parent (flip_edge, DoubleCover)
# ---------------------------------------------------------------------------

def _flip_chains():
    """Every surface of seeded chains of 1-6 flips from the bundled surfaces,
    their deform variants and the float copies of both."""
    for name in bundled_names():
        base = bundled_surface(name)
        for seed in range(3):
            rng = random.Random(f"derived/{name}/{seed}")
            deformed = random_deform_variant(base, rng)
            for start in (base, deformed, base.to_float(), deformed.to_float()):
                cur = start
                for _ in range(rng.randint(1, 6)):
                    edges = [e for e in cur.edges() if flippable(cur, e)]
                    if not edges:
                        break
                    cur = flip_edge(cur, rng.choice(edges))
                    yield f"{name}/{seed}/{start.mode}", cur


def _assert_same_surface(got, want, label):
    assert got.triangles == want.triangles, label
    for field in ("vec", "glue", "sign", "_vertex_of", "_vertices"):
        assert (list(getattr(got, field).items())
                == list(getattr(want, field).items())), (label, field)
    assert got.marked == want.marked and got.mode == want.mode, label
    assert list(got.orders().items()) == list(want.orders().items()), label
    assert got.components() == want.components(), label


def _revalidated(t):
    return FlatSurface(t.triangles, t.vec, t.glue, list(t.marked), t.mode)


def test_derived_surfaces_equal_their_full_validation():
    flips = floats = 0
    for label, t in _flip_chains():
        _assert_same_surface(t, _revalidated(t), label)
        c = build_cover(t).cover_surface
        _assert_same_surface(c, _revalidated(c), label + "/cover")
        flips += 1
        floats += t.mode == "float"
    assert flips > 100 and floats > 40


def test_derived_surfaces_skip_the_corner_star_development(monkeypatch):
    calls = []
    develop = FlatSurface._vertex_order_exact

    def counted(self, corner_edges):
        calls.append(corner_edges)
        return develop(self, corner_edges)

    monkeypatch.setattr(FlatSurface, "_vertex_order_exact", counted)
    s = genus2_generic()
    assert len(calls) >= 1
    calls.clear()
    t = flip_edge(s, next(e for e in s.edges() if flippable(s, e)))
    build_cover(s)
    build_cover(t)
    assert calls == []
    make_surface(t.triangles, t.vec,
                 [(e, t.glue[e], t.sign[e]) for e in t.edges() if e < t.glue[e]])
    assert len(calls) >= 1
