"""Double cover construction, involution, Sigma classification."""

import random

import pytest

from qdlab.builders import (
    bundled_names,
    bundled_surface,
    genus2_generic,
    l_origami,
    marked_torus,
    pillowcase,
    random_flip_variant,
)
from qdlab.cover import build_cover, classify_points
from qdlab.surface import area


def test_pillowcase_cover_is_torus():
    c = build_cover(pillowcase())
    cs = c.cover_surface
    assert cs.is_connected()
    assert cs.euler_characteristic() == 0
    assert cs.component_genus(cs.components()[0]) == 1
    # branched over the four poles: one preimage each
    for p in c.classification.sigma_o:
        assert len(c.vertex_fiber(p)) == 1
    # involution fixes the four branch vertices, acts freely on edges
    fixed = [v for v in cs.vertices()
             if cs.vertex_at_tail(c.involution_edge(v)) == v]
    assert len(fixed) == 4
    for f in cs.edges():
        assert c.involution_edge(f) != f


def test_square_case_two_components_swapped():
    c = build_cover(marked_torus())
    cs = c.cover_surface
    comps = cs.components()
    assert len(comps) == 2
    for comp in comps:
        assert cs.component_genus(comp) == 1
    t0 = next(iter(comps[0]["triangles"]))
    assert c.involution_triangle(t0) not in comps[0]["triangles"]


def test_generic_genus2_cover():
    s = genus2_generic()
    c = build_cover(s)
    cs = c.cover_surface
    assert cs.is_connected()
    assert cs.euler_characteristic() == 2 * s.euler_characteristic() - 4
    g_cover = cs.component_genus(cs.components()[0])
    assert g_cover == 5
    assert g_cover == 2 * s.genus() - 1 + len(c.classification.sigma_o) // 2


def test_cover_area_doubles():
    for name in ("pillowcase", "l_origami", "genus2_generic"):
        s = bundled_surface(name)
        c = build_cover(s)
        assert area(c.cover_surface) == 2 * area(s)


def test_involution_negates_vectors():
    c = build_cover(genus2_generic())
    cs = c.cover_surface
    for f in cs.edges():
        assert cs.vec[c.involution_edge(f)] == -cs.vec[f]


def test_involution_involutive_and_over_projection():
    c = build_cover(pillowcase())
    for f in c.cover_surface.edges():
        assert c.involution_edge(c.involution_edge(f)) == f
        assert c.project_edge(c.involution_edge(f))[0] == c.project_edge(f)[0]


class TestClassification:
    def test_pillowcase(self):
        cls = classify_points(pillowcase())
        assert len(cls.sigma_o) == 4
        assert not cls.sigma_e and not cls.sigma_m_free and not cls.sigma_ub
        # the poles are marked singular points
        assert cls.sigma_sm == cls.sigma_o

    def test_marked_torus(self):
        cls = classify_points(marked_torus())
        assert len(cls.sigma_m_free) == 1
        assert not cls.sigma_o and not cls.sigma_e and not cls.sigma_sm
        assert cls.sigma_ub == cls.sigma_m_free

    def test_l_origami(self):
        cls = classify_points(l_origami())
        assert len(cls.sigma_e) == 1
        assert cls.sigma_ub == cls.sigma_e
        assert not cls.sigma_o and not cls.sigma_m_free

    def test_partition(self):
        for name in ("pillowcase", "marked_torus", "l_origami",
                     "genus2_generic"):
            cls = classify_points(bundled_surface(name))
            assert (cls.sigma_o | cls.sigma_e | cls.sigma_m_free
                    == cls.sigma_ub | cls.sigma_o)
            assert not (cls.sigma_ub & cls.sigma_o)
            assert len(cls.sigma_o) % 2 == 0

    def test_unbranched_fibers(self):
        for name in ("marked_torus", "l_origami"):
            c = build_cover(bundled_surface(name))
            for p in c.classification.sigma_ub:
                assert len(c.vertex_fiber(p)) == 2


def test_lifted_sigma_counts():
    c = build_cover(l_origami())
    lifted = c.lifted_sigma()
    assert len(lifted["sigma_ub"]) == 2
    assert len(lifted["sigma_o"]) == 0


def test_cover_json_has_tables():
    c = build_cover(marked_torus())
    d = c.as_json()
    assert set(d) >= {"base", "cover", "involution_edges", "projection_edges",
                      "classification", "summary"}
    ne = len(c.cover_surface.edges())
    assert len(d["involution_edges"]) == ne
    assert len(d["projection_edges"]) == ne


def test_epsilon_matches_cover_connectivity():
    # the sign cocycle is a coboundary iff the double cover disconnects
    from qdlab.surface import symbol

    for name in ("pillowcase", "marked_torus", "l_origami", "genus2_generic"):
        s = bundled_surface(name)
        eps = symbol(s).epsilon
        c = build_cover(s)
        components = len(c.cover_surface.components())
        assert (eps == 1) == (components == 2)
        if eps == 1:
            assert all(o % 2 == 0 for o in s.orders().values())


@pytest.mark.parametrize("name", bundled_names())
@pytest.mark.parametrize("flip_seed", [None, 0, 1, 2])
def test_cover_marks_exactly_the_fibers_of_marked_points(name, flip_seed):
    s = bundled_surface(name)
    if flip_seed is not None:
        s = random_flip_variant(s, random.Random(flip_seed))
    c = build_cover(s)
    fibers = {cv for v in s.marked for cv in c.vertex_fiber(v)}
    assert c.cover_surface.marked == fibers
    assert all(c.cover_surface.sign[f] == 1 for f in c.cover_surface.edges())
