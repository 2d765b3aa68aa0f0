"""Delaunay triangulations of flat surfaces via edge flips.

An edge e, glued to f with sign sigma, is the diagonal of the quad made of
its two triangles.  Write A = vec(next e), B = vec(prev e), C = vec(next f)
and D = vec(prev f).  Chart e's triangle as P0 = 0, P1 = vec(e),
P2 = vec(e) + A; the neighbor develops by z -> P1 + sigma*z (a point
reflection when sigma = -1), and since sigma*vec(f) = -vec(e) its far corner
lands at Q = sigma*C.  Every predicate reads the four sides:

* e is flippable when the flip's new triangles (sigma*D, A, -G) and
  (B, sigma*C, G), with G = P2 - Q, are positively oriented:
  sigma*cross(D, A) > 0 and sigma*cross(B, C) > 0.  This is the orientation
  test the flipped surface's validation runs, and it is symmetric in
  e <-> glue(e).
* the incircle value is the exact incircle determinant of P0, P1, P2
  relative to Q, turned by sigma: of a = -C, b = D, c = D + sigma*A.  It is
  positive iff Q lies strictly inside the circumcircle of (P0, P1, P2).
  Cocircular configurations count as Delaunay (non-strict predicate), which
  makes the flip loop terminate deterministically.

In exact mode both predicates run on the surface's Gaussian-integer
numerators (see ``surface``): the orientations are degree 2 and the incircle
value degree 4 in the vectors, so their signs are those of the numerator
forms, and ``incircle_certificate`` returns the exact value, the numerator
form over den**4.  Float mode evaluates both in floats, except the Delaunay
test of ``is_delaunay`` and ``delaunayize``: it takes the incircle signs
exactly on the binary64 vectors (each a dyadic rational, brought to one
power-of-two denominator), and a pair fails it only when its quad reads
positive and the flipped quad, whose three sides B, sigma*D and A the flip
copies unrounded, reads negative.  In exact arithmetic the two values are
negatives of each other; rounded vectors need not close, and asking for both
keeps a quad whose exact twin is cocircular from flipping back and forth.
The values a float ``FlipRecord`` keeps are those same exact values rounded
once, so each record reads positive before its flip and negative after it.

Edges whose two sides lie on the same triangle are unflippable and are
skipped; they can never violate the (strict) condition anyway in the
configurations we accept.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateTriangle, NonTerminating
from .surface import FlatSurface, cross, dot, icross, idot


@dataclass(frozen=True)
class FlipRecord:
    edge: int
    incircle_before: object  # exact sign value in rational mode
    incircle_after: object
    violations_before: int
    violations_after: int


def _incircle(A, C, D, sgn):
    """Incircle value of a = -C, b = D, c = D + sgn*A on Gaussian integers
    given as (re, im) int pairs."""
    a = (-C[0], -C[1])
    c = (D[0] + sgn * A[0], D[1] + sgn * A[1])
    return (idot(a, a) * icross(D, c) + idot(D, D) * icross(c, a)
            + idot(c, c) * icross(a, D))


def _dyadic(zs):
    """Complex binary64 values as Gaussian integers over one power of two,
    returned as (pairs, the power of two): every finite double is a dyadic
    rational, so this is exact."""
    parts = [x.as_integer_ratio() for z in zs for x in (z.real, z.imag)]
    big = max(q for _, q in parts)
    ints = [p * (big // q) for p, q in parts]
    return list(zip(ints[::2], ints[1::2])), big


def incircle_certificate(s: FlatSurface, e):
    """Incircle value of the quad at edge e (positive = violates Delaunay).

    Exact mode evaluates the degree-4 form on the numerators and returns it
    over den**4 as a Fraction; float mode evaluates it in floats."""
    f = s.glue[e]
    sgn = s.sign[e]
    a1, b1, b2 = s.next_edge(e), s.next_edge(f), s.prev_edge(f)
    if s.mode == "exact":
        num = s._num
        return Fraction(_incircle(num[a1], num[b1], num[b2], sgn), s._den ** 4)
    A, C, D = s.vec[a1], s.vec[b1], s.vec[b2]
    a, b, c = -C, D, D + sgn * A
    return (dot(a, a) * cross(b, c) + dot(b, b) * cross(c, a)
            + dot(c, c) * cross(a, b))


def flippable(s: FlatSurface, e):
    """True if flipping e yields two positively oriented triangles."""
    f = s.glue[e]
    if s.triangle_of(e) == s.triangle_of(f):
        return False
    sgn = s.sign[e]
    if s.mode == "exact":
        v, orient = s._num, icross
    else:
        v, orient = s.vec, cross
    return (sgn * orient(v[s.prev_edge(f)], v[s.next_edge(e)]) > 0
            and sgn * orient(v[s.prev_edge(e)], v[s.next_edge(f)]) > 0)


def _violates(s: FlatSurface, r):
    """True if the edge pair with representative r = min(e, glue(e)) fails
    the non-strict incircle test; a pair on one triangle never does.

    In float mode the signs are exact on the binary64 vectors, and the pair
    fails only if the flipped quad, whose sides are the floats B, sigma*D
    and A the flip keeps, passes strictly."""
    f = s.glue[r]
    if s.triangle_of(r) == s.triangle_of(f):
        return False
    sgn = s.sign[r]
    a1, b1, b2 = s.next_edge(r), s.next_edge(f), s.prev_edge(f)
    if s.mode == "exact":
        num = s._num
        return _incircle(num[a1], num[b1], num[b2], sgn) > 0
    vec = s.vec
    (A, C, D, B), _ = _dyadic([vec[a1], vec[b1], vec[b2], vec[s.prev_edge(r)]])
    return (_incircle(A, C, D, sgn) > 0
            and _incircle(B, (sgn * D[0], sgn * D[1]), A, 1) < 0)


def _recorded_incircle(s: FlatSurface, e):
    """The incircle value a :class:`FlipRecord` keeps: in exact mode
    :func:`incircle_certificate`; in float mode the exact value on the
    binary64 sides, the ones the flip decision reads, rounded once.  So a
    float record is positive before its flip and negative after it."""
    if s.mode == "exact":
        return incircle_certificate(s, e)
    f = s.glue[e]
    vec = s.vec
    (A, C, D), big = _dyadic([vec[s.next_edge(e)], vec[s.next_edge(f)],
                              vec[s.prev_edge(f)]])
    return float(Fraction(_incircle(A, C, D, s.sign[e]), big ** 4))


def is_delaunay(s: FlatSurface):
    """(bool, violating edge list): non-strict local circumcircle test.
    The list holds the representative of each violating pair, ascending."""
    bad = [e for e in s.edges() if e < s.glue[e] and _violates(s, e)]
    return (not bad), bad


def flip_edge(s: FlatSurface, e) -> FlatSurface:
    """Flip the diagonal e of its developed quadrilateral.

    Preserves the metric (both triangle pairs develop onto the same quad),
    the marked set and the gluing cocycle class.  Raises DegenerateTriangle
    if the flip would create a non-positively-oriented triangle.
    """
    f = s.glue[e]
    if s.triangle_of(e) == s.triangle_of(f):
        raise DegenerateTriangle(f"edge {e} is unflippable (self-glued triangle)")
    if not flippable(s, e):
        raise DegenerateTriangle(f"flip of edge {e} would fold the quad")
    sgn = s.sign[e]
    a1, a2 = s.next_edge(e), s.prev_edge(e)      # A = vec(a1), B = vec(a2)
    b1, b2 = s.next_edge(f), s.prev_edge(f)      # C = vec(b1), D = vec(b2)

    # new diagonal G from Q to P2 (e's triangle charted at P0 = 0,
    # P1 = vec e); reuse ids e (in the triangle that keeps a1) and f.  The
    # exact numerators stay over the parent's denominator.
    if s.mode == "exact":
        geom = dict(s._num)
        (ax, ay), (fx, fy) = geom[a1], geom[f]
        (cx, cy), (dx, dy) = geom[b1], geom[b2]
        gx, gy = ax - sgn * (fx + cx), ay - sgn * (fy + cy)
        geom[b2], geom[b1] = (sgn * dx, sgn * dy), (sgn * cx, sgn * cy)
        geom[e], geom[f] = (gx, gy), (-gx, -gy)
    else:
        # Q is developed through vec(f), so that a float closure error of
        # f's triangle reaches the new ones
        geom = dict(s.vec)
        C, D, E = geom[b1], geom[b2], geom[e]
        G = (E + geom[a1]) - (E + sgn * (geom[f] + C))
        geom[b2], geom[b1] = sgn * D, sgn * C
        geom[e], geom[f] = G, -G

    new_tris = []
    for ti, tri in enumerate(s.triangles):
        if ti == s.triangle_of(e):
            new_tris.append((b2, a1, f))        # sgn*D, A, -G
        elif ti == s.triangle_of(f):
            new_tris.append((a2, b1, e))        # B, sgn*C, G
        else:
            new_tris.append(tri)

    # marked vertices are named by corner orbits, which the flip reshuffles;
    # pass each one on as an incident edge that keeps its tail
    anchors = []
    for v in s.marked:
        keep = [h for h in s.vertex_corners(v) if h not in (e, f)]
        if not keep:
            raise DegenerateTriangle("marked vertex carried only by the diagonal")
        anchors.append(keep[0])

    # every edge but e and f keeps its tail, and a flip keeps every cone
    # angle, so a vertex keeps the order of any such corner
    old_orders = s.orders()

    def carried_orders(vertices):
        return {v: old_orders[s.vertex_at_tail(next(h for h in corners
                                                    if h not in (e, f)))]
                for v, corners in vertices.items()}

    changed = sorted((s.triangle_of(e), s.triangle_of(f)))
    return FlatSurface._derived(s, new_tris, geom, s.glue, anchors, changed,
                                carried_orders)


def delaunayize(s: FlatSurface, max_rounds=None):
    """Flip until every edge satisfies the non-strict incircle condition.

    Returns (surface, [FlipRecord...]).  The iteration cap is a guard for
    float mode; with exact predicates the loop provably terminates.  In
    float mode the records keep the incircle values of the binary64 sides,
    evaluated exactly and rounded once (see :func:`_recorded_incircle`).
    """
    if max_rounds is None:
        max_rounds = 400 * max(1, s.num_geometric_edges())
    cur = s
    records = []
    steps = 0
    while True:
        ok, bad = is_delaunay(cur)
        if ok:
            return cur, records
        violations = len(bad)
        progressed = False
        for e in bad:
            if steps >= max_rounds:
                raise NonTerminating(
                    f"flip loop exceeded {max_rounds} flips (mode={s.mode})"
                )
            # a Delaunay violation is always a strictly convex quad; the
            # flippable guard only matters for float noise
            if not (_violates(cur, e) and flippable(cur, e)):
                continue
            cert = _recorded_incircle(cur, e)
            # the flip changes the quads of the pairs with an edge on the two
            # flipped triangles (the same six edge ids before and after) and
            # of no other pair, so only those need a new incircle test
            touched = {min(h, cur.glue[h]) for t in (e, cur.glue[e])
                       for h in cur.triangles[cur.triangle_of(t)]}
            nb_before = violations
            violations -= sum(_violates(cur, r) for r in touched)
            cur = flip_edge(cur, e)
            steps += 1
            after = _recorded_incircle(cur, e)
            violations += sum(_violates(cur, r) for r in touched)
            records.append(FlipRecord(e, cert, after, nb_before, violations))
            progressed = True
        if not progressed:
            raise NonTerminating("no admissible flip but violations remain")
