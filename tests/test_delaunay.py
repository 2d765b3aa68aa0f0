"""Delaunay predicate and the flip algorithm."""

import json
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
from qdlab.cover import build_cover
from qdlab.errors import ClosureViolation, DegenerateTriangle
from qdlab.exact import QC
from qdlab.io_json import dump_json, surface_from_dict, surface_to_dict
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


def test_float_delaunayize_ends_on_a_cocircular_exact_twin():
    # the float copy reads +6.9e-18 on a quad whose exact twin is cocircular;
    # its exact sign on the binary64 vectors does not call for a flip
    rng = random.Random("xmarked_torus/2")
    v = random_flip_variant(random_deform_variant(bundled_surface("marked_torus"), rng),
                            rng, rng.randint(0, 6))
    assert 0 in {incircle_certificate(v, e) for e in v.edges()}
    y = v.to_float().scaled(Fraction(1, 3))
    assert max(incircle_certificate(y, e) for e in y.edges()) > 0
    d, recs = delaunayize(y)
    assert is_delaunay(d)[0] and recs == []


def test_float_delaunayize_ends_on_seeded_variants():
    for name in bundled_names():
        base = bundled_surface(name)
        for k in range(25):
            rng = random.Random(f"x{name}/{k}")
            v = random_flip_variant(random_deform_variant(base, rng), rng,
                                    rng.randint(0, 6))
            for y in (v.to_float().scaled(Fraction(1, 3)), v.scaled(0.3 + 1.7j)):
                d, _ = delaunayize(y)
                assert is_delaunay(d)[0], (name, k)


def test_float_flip_records_agree_with_their_flips():
    # a float flip is decided by exact signs on the binary64 sides, and its
    # record keeps those exact values rounded once; the float formula read
    # <= 0 before the flip on 3 of these records (l_origami k = 11: 0.0)
    records = 0
    for name in bundled_names():
        base = bundled_surface(name)
        for k in range(40):
            rng = random.Random(f"x{name}/{k}")
            v = random_flip_variant(random_deform_variant(base, rng), rng,
                                    rng.randint(0, 6))
            for y in (v.to_float(), v.to_float().scaled(Fraction(1, 3)),
                      v.scaled(0.3 + 1.7j)):
                for r in delaunayize(y)[1]:
                    assert type(r.incircle_before) is float, (name, k)
                    assert r.incircle_before > 0 > r.incircle_after, (name, k, r)
                    records += 1
    assert records > 1000


# ---------------------------------------------------------------------------
# the integer predicates against the QC formulas they replaced
# ---------------------------------------------------------------------------

def _qc_cross(u, v):
    return u.re * v.im - u.im * v.re


def _qc_dot(u, v):
    return u.re * v.re + u.im * v.im


def _oracle_oriented(s, ti):
    a, b, _ = s.triangles[ti]
    return _qc_cross(s.vec[a], s.vec[b]) > 0


def _oracle_flippable(s, e):
    f = s.glue[e]
    if s.triangle_of(e) == s.triangle_of(f):
        return False
    sgn = s.sign[e]
    return (sgn * _qc_cross(s.vec[s.prev_edge(f)], s.vec[s.next_edge(e)]) > 0
            and sgn * _qc_cross(s.vec[s.prev_edge(e)], s.vec[s.next_edge(f)]) > 0)


def _oracle_incircle(s, e):
    f = s.glue[e]
    sgn = s.sign[e]
    A = s.vec[s.next_edge(e)]
    C, D = s.vec[s.next_edge(f)], s.vec[s.prev_edge(f)]
    a, b, c = -C, D, D + sgn * A
    return (_qc_dot(a, a) * _qc_cross(b, c) + _qc_dot(b, b) * _qc_cross(c, a)
            + _qc_dot(c, c) * _qc_cross(a, b))


def _oracle_flip_vectors(s, e):
    f = s.glue[e]
    sgn = s.sign[e]
    a1, b1, b2 = s.next_edge(e), s.next_edge(f), s.prev_edge(f)
    vec = dict(s.vec)
    G = vec[a1] - sgn * (vec[f] + vec[b1])
    vec[b2], vec[b1] = sgn * vec[b2], sgn * vec[b1]
    vec[e], vec[f] = G, -G
    return vec


def _oracle_edges_json(vec):
    return {str(e): {"re": str(v.re), "im": str(v.im)} for e, v in sorted(vec.items())}


def _exact_inputs():
    """Seeded flip and deform variants of the bundled surfaces and a skewed
    torus, as built and scaled by 1/3 and 2/7."""
    for name in bundled_names():
        base = bundled_surface(name)
        for k in range(3):
            rng = random.Random(f"oracle/{name}/{k}")
            yield f"{name}/flip{k}", random_flip_variant(base, rng, rng.randint(1, 6))
            v = random_deform_variant(base, rng)
            yield f"{name}/deform{k}", random_flip_variant(v, rng, rng.randint(0, 6))
    yield "skew1/10", skewed_torus(Fraction(1, 10))


def _scaled_inputs():
    for label, s in _exact_inputs():
        yield label, s
        for r in (Fraction(1, 3), Fraction(2, 7)):
            yield f"{label}*{r}", s.scaled(r)


def test_integer_predicates_match_the_qc_formulas():
    dens = set()
    flips = 0
    for label, s in _scaled_inputs():
        dens.add(s._den)
        assert all(type(v) is QC for v in s.vec.values()), label
        assert all(_oracle_oriented(s, ti) for ti in range(len(s.triangles))), label
        assert area(s) == sum(_qc_cross(s.vec[a], s.vec[b])
                              for a, b, _ in s.triangles) / 2, label
        for e in s.edges():
            assert flippable(s, e) == _oracle_flippable(s, e), (label, e)
            cert = incircle_certificate(s, e)
            assert type(cert) is Fraction and cert == _oracle_incircle(s, e), (label, e)
            if not flippable(s, e):
                continue
            t = flip_edge(s, e)
            want = _oracle_flip_vectors(s, e)
            assert list(t.vec.items()) == list(want.items()), (label, e)
            assert surface_to_dict(t)["edges"] == _oracle_edges_json(want), (label, e)
            assert all(_oracle_oriented(t, ti) for ti in range(len(t.triangles)))
            flips += 1
    assert flips > 200 and {1, 3, 7, 16} <= dens and max(dens) > 16


def test_vec_and_json_keep_the_values_given():
    for label, s in _scaled_inputs():
        given = {e: QC(Fraction(3, 5), Fraction(-7, 4)) * v for e, v in s.vec.items()}
        t = s.with_edge_vectors(given)
        assert list(t.vec.items()) == list(given.items()), label
        assert surface_to_dict(t)["edges"] == _oracle_edges_json(given), label
        assert t.to_float().vec == {e: complex(v) for e, v in given.items()}, label
        text = dump_json(surface_to_dict(t))
        assert dump_json(surface_to_dict(surface_from_dict(json.loads(text)))) == text
        c = build_cover(t).cover_surface
        assert all(c.vec[2 * i + 1] == -v and c.vec[2 * i] == v
                   for i, v in enumerate(t.vec[e] for e in t.edges())), label
