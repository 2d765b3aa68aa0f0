"""Bundled example surfaces and randomized variants.

All four bundled surfaces are built from explicit unit squares with exact
rational coordinates:

* ``pillowcase`` -- the quotient of a 2x2 torus by the point symmetry,
  realized as the rectangle [0,2]x[0,1] with folded top/bottom edges; four
  cone points of angle pi (order -1), all marked.  Area 2.
* ``marked_torus`` -- the unit square torus with one marked regular vertex.
* ``l_origami`` -- three unit squares in an L, a square differential with a
  single order-4 zero (cone angle 6 pi).  Genus 2.
* ``genus2_generic`` -- four simple zeros, epsilon = -1, no marked points:
  the pillowcase above with a unit-area-2 torus slit-glued into each folded
  edge.  Each former pole picks up a full turn from the torus slit and
  becomes a cone point of angle 3 pi.  Genus 2, twelve triangles.

Square helpers index a square [x,x+1]x[y,y+1] cut along the main diagonal
into two ccw triangles with edge vectors (1, i, -1-i) and (1+i, -1, -i).
"""

from __future__ import annotations

from fractions import Fraction

from .exact import QC
from .surface import FlatSurface, make_surface


def _square_triangles(e0):
    """Two ccw triangles of a unit square; returns (triangles, vectors).

    Edge ids e0..e0+5: lower triangle (e0: bottom, e0+1: right,
    e0+2: diagonal down) and upper triangle (e0+3: diagonal up, e0+4: top,
    e0+5: left).  The diagonal pair (e0+2, e0+3) is glued by the caller.
    """
    one = QC(1, 0)
    i = QC(0, 1)
    tris = [(e0, e0 + 1, e0 + 2), (e0 + 3, e0 + 4, e0 + 5)]
    vecs = {
        e0: one,
        e0 + 1: i,
        e0 + 2: QC(-1, -1),
        e0 + 3: QC(1, 1),
        e0 + 4: -one,
        e0 + 5: -i,
    }
    return tris, vecs


def _assemble(squares, extra_gluings, marked=()):
    tris, vecs, glu = [], {}, []
    for e0 in squares:
        t, v = _square_triangles(e0)
        tris.extend(t)
        vecs.update(v)
        glu.append((e0 + 2, e0 + 3, 1))
    glu.extend(extra_gluings)
    return make_surface(tris, vecs, glu, marked)


def marked_torus() -> FlatSurface:
    """Unit square torus, one marked vertex; symbol (1, 0, [], +1)."""
    return _assemble(
        [0],
        [(0, 4, 1), (1, 5, 1)],
        marked=[0],
    )


def pillowcase() -> FlatSurface:
    """Two unit squares folded into a pillowcase; symbol (0, 4, [], -1)."""
    return _assemble(
        [0, 6],
        [
            (1, 11, 1),   # middle vertical x=1
            (5, 7, 1),    # left ~ right (translation by 2)
            (0, 6, -1),   # bottom fold (x,0) ~ (2-x,0)
            (4, 10, -1),  # top fold (x,1) ~ (2-x,1)
        ],
        marked=[0, 1, 2, 5],
    )


def l_origami() -> FlatSurface:
    """Three-square L with q = omega^2; symbol (0, 0, [4^1], +1), genus 2."""
    return _assemble(
        [0, 6, 12],
        [
            (0, 16, 1),   # bottom of A ~ top of C
            (6, 10, 1),   # bottom of B ~ top of B
            (4, 12, 1),   # top of A ~ bottom of C (interior edge)
            (1, 11, 1),   # right of A ~ left of B (interior edge)
            (5, 7, 1),    # left of A ~ right of B
            (13, 17, 1),  # right of C ~ left of C
        ],
    )


def genus2_generic() -> FlatSurface:
    """Genus-2 surface with four simple zeros, epsilon=-1, twelve triangles.

    Squares: A1, A2 (the pillow middle, ids 0 and 6), B1, B2 (bottom torus,
    ids 12 and 18), C1, C2 (top torus, ids 24 and 30).
    """
    return _assemble(
        [0, 6, 12, 18, 24, 30],
        [
            # pillow-middle internal edges
            (1, 11, 1),    # A middle vertical
            (5, 7, 1),     # A left ~ right
            # torus B internal edges
            (13, 23, 1),   # B middle vertical
            (17, 19, 1),   # B left ~ right
            (18, 22, 1),   # B top ~ bottom over [1,2]
            # torus C internal edges
            (25, 35, 1),   # C middle vertical
            (29, 31, 1),   # C left ~ right
            (30, 34, 1),   # C top ~ bottom over [1,2]
            # bottom slit: A's folded bottom crossed with B's slit
            (0, 16, 1),    # A bottom [0,1] ~ B top lip (translation)
            (6, 12, -1),   # A bottom [1,2] ~ B bottom lip (point reflection)
            # top slit: A's folded top crossed with C's slit
            (4, 24, 1),    # A top [0,1] ~ C bottom lip (translation)
            (10, 28, -1),  # A top [1,2] ~ C top lip (point reflection)
        ],
    )


def skewed_torus(shear=Fraction(1, 10)) -> FlatSurface:
    """Marked torus on vectors (1, 0) and (shear, 1) with the long diagonal.

    The long diagonal violates the circumcircle condition as soon as
    shear != 0, so this is the canonical input for exercising edge flips.
    """
    a = QC(1, 0)
    b = QC(Fraction(shear), 1)
    d = a + b
    tris = [(0, 1, 2), (3, 4, 5)]
    vecs = {0: a, 1: b, 2: -d, 3: d, 4: -a, 5: -b}
    glu = [(2, 3, 1), (0, 4, 1), (1, 5, 1)]
    return make_surface(tris, vecs, glu, marked=[0])


BUNDLED = {
    "pillowcase": pillowcase,
    "marked_torus": marked_torus,
    "l_origami": l_origami,
    "genus2_generic": genus2_generic,
}


def bundled_surface(name) -> FlatSurface:
    try:
        return BUNDLED[name]()
    except KeyError:
        raise KeyError(f"unknown bundled surface {name!r}; "
                       f"choices: {sorted(BUNDLED)}") from None


def bundled_names():
    return sorted(BUNDLED)


def bundled_surface_path(name):
    """Path of the shipped JSON data file for a bundled surface."""
    import importlib.resources as resources

    ref = resources.files("qdlab").joinpath(f"data/{name}.json")
    if not ref.is_file():
        raise KeyError(f"no bundled data file for {name!r}")
    return ref


# ---------------------------------------------------------------------------
# randomized variants (exact mode, used by the verification suites)
# ---------------------------------------------------------------------------

def random_flip_variant(s: FlatSurface, rng, n_flips=6) -> FlatSurface:
    """Apply up to ``n_flips`` random valid edge flips.

    Before each flip every edge is tested with ``flippable``, and the flip
    picks uniformly among the flippable ones, listed in ``edges()`` order.
    """
    from .delaunay import flip_edge, flippable

    cur = s
    for _ in range(n_flips):
        edges = [h for h in cur.edges() if flippable(cur, h)]
        if not edges:
            break
        cur = flip_edge(cur, rng.choice(edges))
    return cur


def random_deform_variant(s: FlatSurface, rng, size=Fraction(1, 8),
                          max_halvings=8) -> FlatSurface:
    """Random small exact piecewise-affine deformation of the base surface."""
    from .cover import build_cover
    from .deformation import affine_deform
    from .errors import TriangleFlip
    from .homology import homology_data
    from .periods import PeriodVector

    cov = build_cover(s)
    hom = homology_data(cov)
    n = len(hom.rel_minus_basis)
    coords = [QC(Fraction(rng.randint(-3, 3), 1) * size,
                 Fraction(rng.randint(-3, 3), 1) * size) for _ in range(n)]
    v = PeriodVector(tuple(coords), hom.basis_tag, "relative", "exact")
    for _ in range(max_halvings):
        try:
            new_cov = affine_deform(cov, hom, v)
            return new_cov.quotient_surface()
        except TriangleFlip:
            v = v.scale(Fraction(1, 2))
    return s
