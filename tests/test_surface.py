"""Core surface validation, orders, symbol, area, stratum dimension."""

import math
from fractions import Fraction

import pytest

from qdlab.builders import (
    bundled_names,
    bundled_surface,
    genus2_generic,
    l_origami,
    marked_torus,
    pillowcase,
    skewed_torus,
)
from qdlab.errors import (
    ClosureViolation,
    DegenerateTriangle,
    GluingMismatch,
    InconsistentSymbol,
    SurfaceError,
    UnmarkedPole,
)
from qdlab.exact import QC
from qdlab.surface import area, make_surface, make_symbol, stratum_dim, symbol


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
