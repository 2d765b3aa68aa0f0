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

Edges whose two sides lie on the same triangle are unflippable and are
skipped; they can never violate the (strict) condition anyway in the
configurations we accept.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateTriangle, NonTerminating
from .surface import FlatSurface, cross, dot


@dataclass(frozen=True)
class FlipRecord:
    edge: int
    incircle_before: object  # exact sign value in rational mode
    incircle_after: object
    violations_before: int
    violations_after: int


def incircle_certificate(s: FlatSurface, e):
    """Incircle value of the quad at edge e (positive = violates Delaunay)."""
    f = s.glue[e]
    sgn = s.sign[e]
    A = s.vec[s.next_edge(e)]
    C, D = s.vec[s.next_edge(f)], s.vec[s.prev_edge(f)]
    a, b, c = -C, D, D + sgn * A
    return (dot(a, a) * cross(b, c) + dot(b, b) * cross(c, a)
            + dot(c, c) * cross(a, b))


def flippable(s: FlatSurface, e):
    """True if flipping e yields two positively oriented triangles."""
    f = s.glue[e]
    if s.triangle_of(e) == s.triangle_of(f):
        return False
    sgn = s.sign[e]
    return (sgn * cross(s.vec[s.prev_edge(f)], s.vec[s.next_edge(e)]) > 0
            and sgn * cross(s.vec[s.prev_edge(e)], s.vec[s.next_edge(f)]) > 0)


def _violates(s: FlatSurface, r):
    """True if the edge pair with representative r = min(e, glue(e)) fails
    the non-strict incircle test; a pair on one triangle never does."""
    return (s.triangle_of(r) != s.triangle_of(s.glue[r])
            and incircle_certificate(s, r) > 0)


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
    C, D = s.vec[b1], s.vec[b2]

    # new diagonal from Q to P2 (e's triangle charted at P0 = 0, P1 = vec e),
    # with Q developed through vec(f) so that a float closure error of f's
    # triangle reaches the new ones; reuse ids e (in the triangle that keeps
    # a1) and f.
    E = s.vec[e]
    G = (E + s.vec[a1]) - (E + sgn * (s.vec[f] + C))
    new_tris = []
    for ti, tri in enumerate(s.triangles):
        if ti == s.triangle_of(e):
            new_tris.append((b2, a1, f))        # sgn*D, A, -G
        elif ti == s.triangle_of(f):
            new_tris.append((a2, b1, e))        # B, sgn*C, G
        else:
            new_tris.append(tri)
    new_vec = dict(s.vec)
    new_vec[b2] = sgn * D
    new_vec[b1] = sgn * C
    new_vec[e] = G
    new_vec[f] = -G

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
    return FlatSurface._derived(new_tris, new_vec, s.glue, anchors, s.mode,
                                changed, carried_orders)


def delaunayize(s: FlatSurface, max_rounds=None):
    """Flip until every edge satisfies the non-strict incircle condition.

    Returns (surface, [FlipRecord...]).  The iteration cap is a guard for
    float mode; with exact predicates the loop provably terminates.
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
            cert = incircle_certificate(cur, e)
            if cert <= 0:
                continue
            if not flippable(cur, e):
                # a Delaunay violation on a flippable-geometry quad is always
                # strictly convex; this guard only matters for float noise
                continue
            # the flip changes the quads of the pairs with an edge on the two
            # flipped triangles (the same six edge ids before and after) and
            # of no other pair, so only those need a new incircle test
            touched = {min(h, cur.glue[h]) for t in (e, cur.glue[e])
                       for h in cur.triangles[cur.triangle_of(t)]}
            nb_before = violations
            violations -= sum(_violates(cur, r) for r in touched)
            cur = flip_edge(cur, e)
            steps += 1
            after = incircle_certificate(cur, e)
            violations += sum(_violates(cur, r) for r in touched)
            records.append(FlipRecord(e, cert, after, nb_before, violations))
            progressed = True
        if not progressed:
            raise NonTerminating("no admissible flip but violations remain")
