"""Delaunay predicate and the flip algorithm."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from qdlab.builders import (
    bundled_names,
    bundled_surface,
    random_deform_variant,
    random_flip_variant,
    skewed_torus,
)
from qdlab.delaunay import (
    delaunayize,
    flip_edge,
    flippable,
    incircle_certificate,
    is_delaunay,
)
from qdlab.errors import ClosureViolation, DegenerateTriangle
from qdlab.surface import area, make_surface, symbol


def test_square_torus_cocircular_accepted():
    s = bundled_surface("marked_torus")
    ok, bad = is_delaunay(s)
    assert ok and bad == []
    # both diagonals: flip the diagonal and re-test
    for e in s.edges():
        if flippable(s, e) and incircle_certificate(s, e) == 0:
            s2 = flip_edge(s, e)
            assert is_delaunay(s2)[0]
            break


def test_skewed_torus_single_violation():
    s = skewed_torus()
    ok, bad = is_delaunay(s)
    assert not ok
    assert len(bad) == 1
    cert = incircle_certificate(s, bad[0])
    assert isinstance(cert, Fraction) and cert > 0


def test_skewed_torus_flips_to_delaunay():
    s = skewed_torus()
    d, recs = delaunayize(s)
    assert is_delaunay(d)[0]
    assert len(recs) == 1
    assert recs[0].incircle_before > 0 >= recs[0].incircle_after
    assert area(d) == area(s)
    assert symbol(d) == symbol(s)


def test_large_shear_terminates():
    s = skewed_torus(Fraction(23, 3))
    d, recs = delaunayize(s)
    assert is_delaunay(d)[0]
    assert recs  # several flips happen
    assert area(d) == area(s)


def test_idempotence():
    for name in bundled_names():
        s = bundled_surface(name)
        d, _ = delaunayize(s)
        d2, recs = delaunayize(d)
        assert recs == []
        assert d2.triangles == d.triangles
        assert d2.vec == d.vec


def test_flip_preserves_quad_sides():
    s = skewed_torus(Fraction(7, 2))
    e = is_delaunay(s)[1][0]
    f = s.glue[e]
    ids = [s.next_edge(e), s.prev_edge(e), s.next_edge(f), s.prev_edge(f)]
    outer = sorted(s.vec[i].abs2() for i in ids)
    s2 = flip_edge(s, e)
    # the four outer edges keep their ids; squared lengths are preserved
    outer2 = sorted(s2.vec[i].abs2() for i in ids)
    assert outer == outer2


def test_flip_of_an_edge_glued_within_its_triangle_is_refused():
    # no valid surface has such an edge (vec(e') = +-vec(e) flattens the
    # triangle), so the refusal is exercised on a bare gluing table
    s = SimpleNamespace(glue={0: 1, 1: 0}, triangle_of=lambda e: 0)
    assert not flippable(s, 0)
    with pytest.raises(DegenerateTriangle,
                       match=r"^edge 0 is unflippable \(self-glued triangle\)$"):
        flip_edge(s, 0)


def test_flip_of_a_folding_quad_is_refused():
    folding = 0
    for name in bundled_names():
        for seed in range(4):
            s = random_flip_variant(bundled_surface(name), random.Random(seed))
            for e in s.edges():
                if s.triangle_of(e) != s.triangle_of(s.glue[e]) and not flippable(s, e):
                    folding += 1
                    with pytest.raises(DegenerateTriangle,
                                       match=f"^flip of edge {e} would fold the quad$"):
                        flip_edge(s, e)
    assert folding > 0


def test_float_flip_checks_closure_of_its_new_triangles():
    # a rhombus torus flipped from its long diagonal (length 2) to its short
    # one (length 1); the triangle across the long one closes to 1.5e-9,
    # within 1e-9 of its longest edge but not of the new triangles' sqrt(5)/2
    vecs = {0: 2 + 0j, 1: -1 + 0.5j, 2: -1 - 0.5j,
            3: -2 + 1.5e-9j, 4: 1 - 0.5j, 5: 1 + 0.5j}
    s = make_surface([(0, 1, 2), (3, 4, 5)], vecs,
                     [(0, 3, 1), (1, 4, 1), (2, 5, 1)], marked=[0], mode="float")
    assert flippable(s, 0)
    with pytest.raises(ClosureViolation, match="^triangle 0 does not close$"):
        flip_edge(s, 0)


def test_float_flips_of_flippable_edges_succeed():
    # a float quad with three nearly collinear corners must not read as
    # flippable unless both new triangles pass the flipped surface's
    # orientation check
    flips = 0
    for name in bundled_names():
        base = bundled_surface(name)
        for k in range(15):
            rng = random.Random(f"x{name}/{k}")
            v = random_flip_variant(random_deform_variant(base, rng), rng,
                                    rng.randint(0, 6))
            y = v.scaled(0.3 + 1.7j) if k % 2 else v.to_float().scaled(1 / 3)
            for e in y.edges():
                if flippable(y, e):
                    flip_edge(y, e)
                    flips += 1
            for seed in range(20):
                random_flip_variant(y, random.Random(seed), 4)
    assert flips > 0


def test_random_small_surfaces_property(seed=101):
    rng = random.Random(seed)
    for name in ("pillowcase", "genus2_generic"):
        base = bundled_surface(name)
        assert len(base.triangles) <= 20
        for _ in range(6):
            v = random_deform_variant(base, rng)
            v = random_flip_variant(v, rng, rng.randint(0, 4))
            d, recs = delaunayize(v)
            assert is_delaunay(d)[0]
            assert area(d) == area(v)
            assert symbol(d) == symbol(v)
            for r in recs:
                assert r.incircle_before > 0 >= r.incircle_after


def _flip_inputs():
    for name in bundled_names():
        base = bundled_surface(name)
        for k in range(3):
            rng = random.Random(f"{name}/{k}")
            yield f"{name}/flip{k}", random_flip_variant(base, rng, rng.randint(1, 8))
            v = random_deform_variant(base, rng)
            yield f"{name}/deform{k}", random_flip_variant(v, rng, rng.randint(1, 6))
    for shear in (Fraction(1, 10), Fraction(7, 2), Fraction(-5, 2), Fraction(23, 3)):
        yield f"skew{shear}", skewed_torus(shear)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_flip_record_violation_counts_match_rescan(mode):
    # delaunayize counts violations incrementally; replay its flips and
    # count them with a full is_delaunay scan of the surfaces around each flip
    flips = 0
    for label, s in _flip_inputs():
        if mode == "float":
            s = s.to_float()
        d, recs = delaunayize(s)
        cur = s
        for r in recs:
            before = len(is_delaunay(cur)[1])
            cur = flip_edge(cur, r.edge)
            after = len(is_delaunay(cur)[1])
            assert (r.violations_before, r.violations_after) == (before, after), label
        assert cur.triangles == d.triangles and cur.vec == d.vec, label
        flips += len(recs)
    assert flips > 50


def _rescan_flip_variant(s, rng, n_flips):
    """random_flip_variant with every edge re-tested before each flip."""
    cur = s
    for _ in range(n_flips):
        edges = [e for e in cur.edges() if flippable(cur, e)]
        if not edges:
            break
        cur = flip_edge(cur, rng.choice(edges))
    return cur


@pytest.mark.parametrize("name", bundled_names())
def test_random_flip_variant_matches_full_rescan(name):
    base = bundled_surface(name)
    for seed in range(12):
        starts = [base, random_deform_variant(base, random.Random(seed))]
        if seed < 3:
            starts.append(base.to_float())
        for s in starts:
            n = random.Random(seed).randint(0, 9)
            rng_a, rng_b = random.Random(f"flip/{seed}"), random.Random(f"flip/{seed}")
            got = random_flip_variant(s, rng_a, n)
            want = _rescan_flip_variant(s, rng_b, n)
            assert got.triangles == want.triangles
            assert got.vec == want.vec
            assert got.glue == want.glue and got.marked == want.marked
            assert rng_a.getstate() == rng_b.getstate()
