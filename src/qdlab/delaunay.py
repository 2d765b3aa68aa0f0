"""Delaunay triangulations of flat surfaces via edge flips.

For an interior edge, develop its two adjacent triangles into the plane
(handling the +-1 gluing sign: a -1 gluing develops the neighbor through a
point reflection) and test the local empty-circumcircle condition with the
exact 3x3 incircle determinant.  Cocircular configurations count as Delaunay
(non-strict predicate), which makes the flip loop terminate deterministically.

Edges whose two sides lie on the same triangle are unflippable and are
skipped; they can never violate the (strict) condition anyway in the
configurations we accept.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateTriangle, NonTerminating
from .surface import FlatSurface, cross


@dataclass(frozen=True)
class FlipRecord:
    edge: int
    incircle_before: object  # exact sign value in rational mode
    incircle_after: object
    violations_before: int
    violations_after: int


def _develop_quad(s: FlatSurface, e):
    """Develop the two triangles adjacent to e into one chart.

    Returns (P0, P1, P2, Q) where the shared edge runs P0 -> P1, the far
    vertex of e's triangle is P2 and the far vertex of the neighbor is Q;
    plus the chart scalar sgn (+-1) of the neighbor development.
    """
    f = s.glue[e]
    E = s.vec[e]
    A = s.vec[s.next_edge(e)]
    P0 = E * 0
    P1 = E
    P2 = E + A
    Efp = s.vec[f]
    # develop neighbor: z -> P1 + sgn*z with sgn*vec(f) = -E;
    # vec(f) = -sigma*vec(e), so sgn = sigma
    sgn = s.sign[e]
    C = s.vec[s.next_edge(f)]
    Q = P1 + sgn * (Efp + C)
    return P0, P1, P2, Q, sgn


def _incircle(a, b, c, d):
    """> 0 iff d is strictly inside the circumcircle of ccw triangle (a,b,c).

    Standard 3x3 determinant after translating d to the origin.
    """
    ax, ay = a.re, a.im
    bx, by = b.re, b.im
    cx, cy = c.re, c.im
    dx, dy = d.re, d.im
    adx, ady = ax - dx, ay - dy
    bdx, bdy = bx - dx, by - dy
    cdx, cdy = cx - dx, cy - dy
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    return (adx * (bdy * clift - cdy * blift)
            - ady * (bdx * clift - cdx * blift)
            + alift * (bdx * cdy - cdx * bdy))


class _F:
    """Tiny adapter so floats expose .re/.im like QC."""

    __slots__ = ("re", "im")

    def __init__(self, z):
        z = complex(z)
        self.re, self.im = z.real, z.imag


def incircle_certificate(s: FlatSurface, e):
    """Incircle value of the quad at edge e (positive = violates Delaunay)."""
    P0, P1, P2, Q, _ = _develop_quad(s, e)
    if s.mode == "float":
        P0, P1, P2, Q = _F(P0), _F(P1), _F(P2), _F(Q)
    return _incircle(P0, P1, P2, Q)


def flippable(s: FlatSurface, e):
    """True if flipping e yields two positively oriented triangles."""
    f = s.glue[e]
    if s.triangle_of(e) == s.triangle_of(f):
        return False
    P0, P1, P2, Q, _ = _develop_quad(s, e)
    # new triangles (Q, P1, P2) and (P2, P0, Q)
    return (cross(P1 - Q, P2 - Q) > 0) and (cross(P0 - P2, Q - P2) > 0)


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
    _, P1, P2, Q, sgn = _develop_quad(s, e)

    a1, a2 = s.next_edge(e), s.prev_edge(e)      # A = vec(a1), B = vec(a2)
    b1, b2 = s.next_edge(f), s.prev_edge(f)      # C = vec(b1), D = vec(b2)
    A, B = s.vec[a1], s.vec[a2]
    C, D = s.vec[b1], s.vec[b2]

    # new diagonal from Q to P2 (developed chart); reuse ids e (in the
    # triangle that keeps a1) and f.
    G = P2 - Q
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
            if cur.glue.get(e) is None:
                continue
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
