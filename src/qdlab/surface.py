"""Triangulated half-translation surfaces.

A surface is a set of positively oriented Euclidean triangles, each given by
three directed edges with complex holonomy vectors (the integral of a local
branch of the square root of the quadratic differential along the edge),
together with an involutive gluing of directed edges.  Each glued pair (e, e')
carries a sign sigma in {+1, -1}:

    vec(e') = -sigma * vec(e)

sigma = -1 means the square-root branch flips across that edge (the transition
is z -> -z + c instead of a translation).  The sign assignment is exactly the
Z/2 cocycle whose triviality decides whether the differential is a global
square.  Since no edge vector is zero, the vectors fix sigma, so a surface
derives its signs instead of taking them as input.

An exact surface stores its vectors as Gaussian-integer numerators over one
positive denominator: ``_num[e]`` is an (re, im) pair of ints and
vec(e) = (re + i*im)/``_den``.  The constructor converts its QC input once,
with ``_den`` the lcm of the input's denominators, and ``vec`` is the QC
table built from the numerators on first read.  Every exact predicate is
homogeneous in the vectors, so it runs on the numerators alone: a degree-k
form is den**k > 0 times its value, with the same sign.  The zero-edge,
closure and orientation checks, the signs, the vertex orders, and the
Delaunay predicates in ``delaunay`` all do; areas come out as
Fraction(cross, 2*den**2).  Float surfaces keep complex vectors.

Vertices are not part of the input: they are the orbits of the corner walk
``e -> glue(prev(e))`` and are named by the smallest directed-edge id whose
tail sits at the vertex.  Cone angles are integer multiples of pi; the
integer order ``o_p = angle/pi - 2`` is computed exactly in rational mode by
developing the corner star into one chart and counting the real-axis
crossings of each developed edge direction against the first edge (every
corner of a nondegenerate triangle turns by strictly less than pi, so
crossings count multiples of pi exactly).

Every public construction -- ``FlatSurface(...)``, :func:`make_surface`,
:func:`build_surface`, ``with_edge_vectors``, ``scaled`` and ``to_float`` --
runs the full validation: gluing tables, every triangle (nonzero edges,
closure, positive orientation), the signs, the marked ids, every vertex
order from its corner star, no pole unmarked, and 2g-2+m > 0 per component.
Two constructions derive a surface from an already validated one and skip
only what their change cannot break (``FlatSurface._derived``):

* ``delaunay.flip_edge`` checks the two new triangles alone and carries each
  vertex order over from the parent, since a flip keeps every cone angle;
* ``cover.DoubleCover`` checks no triangle, since each lifted triangle is a
  base triangle with its vectors kept or all negated, and gives a cover
  vertex over ``b`` the order ``2(o_b + 2)/|fiber(b)| - 2``.

In exact mode both build their numerators from the parent's (a flip's new
diagonal is a sum of sides) and keep the parent's denominator, so a derived
surface never passes through QC.

Both rebuild the incidence, vertex orbits and components, derive the signs,
and run the integer checks (orders >= -1, no unmarked pole, 2g-2+m > 0).  In
float mode a derived surface's orders are the parent's, not re-measured
angle sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ClosureViolation,
    DegenerateTriangle,
    GluingMismatch,
    InconsistentSymbol,
    NonIntegerOrder,
    SurfaceError,
    UnmarkedPole,
)
from .exact import QC, gaussian_numerators, is_zero

FLOAT_ANGLE_TOL = 1e-9  # |angle defect| / pi tolerated in float mode


def cross(u, v):
    """Imaginary part of conj(u)*v: twice the signed area of (0, u, v)."""
    return (u.conjugate() * v).imag


def dot(u, v):
    return (u.conjugate() * v).real


def icross(u, v):
    """:func:`cross` of two Gaussian integers given as (re, im) int pairs."""
    return u[0] * v[1] - u[1] * v[0]


def idot(u, v):
    """:func:`dot` of two Gaussian integers given as (re, im) int pairs."""
    return u[0] * v[0] + u[1] * v[1]


class FlatSurface:
    """Validated triangulated half-translation surface.

    Instances are immutable after construction; every operation returns a new
    surface.  Outside input goes through :func:`build_surface` (raw dict) or
    :func:`make_surface` (programmatic), which also check the declared signs
    and marked vertex ids.  The constructor validates everything; edge flips
    and double covers are derived from a validated surface with the checks
    their change needs (see the module docstring).
    """

    __slots__ = (
        "triangles",
        "glue",
        "sign",
        "marked",
        "mode",
        "_vec",
        "_num",
        "_den",
        "_tri_of",
        "_next",
        "_prev",
        "_vertex_of",
        "_vertices",
        "_orders",
        "_components",
        "_homology",
    )

    def __init__(self, triangles, vec, glue, marked, mode):
        """``marked`` holds, per marked vertex, any directed edge whose tail
        sits on it; the gluing signs are derived from the vectors.  In exact
        mode the vectors are QC, Fraction or int."""
        if mode == "exact":
            num, den = gaussian_numerators(vec.values())
            num = dict(zip(vec, num))
            self._build(triangles, None, num, den, glue, mode)
        else:
            self._build(triangles, dict(vec), None, None, glue, mode)
        self._validate(marked, range(len(self.triangles)))

    @classmethod
    def _derived(cls, parent, triangles, geometry, glue, marked, changed,
                 orders):
        """Surface derived from the validated ``parent`` by a change its
        caller vouches for outside the triangles ``changed``.

        ``geometry`` holds the new edge vectors: in exact mode as Gaussian
        integer numerators over the parent's denominator, in float mode as
        complex numbers.  Only the triangles ``changed`` get the nonzero,
        closure and orientation checks.  ``orders`` takes the new vertex
        table (id -> corner tuple) and returns {id: order} in the same key
        order, in place of the corner star development.  Everything else is
        built and checked as by ``__init__``, and nothing else is taken from
        the parent: components are recomputed and the homology memo starts
        empty.
        """
        s = cls.__new__(cls)
        if parent.mode == "exact":
            s._build(triangles, None, geometry, parent._den, glue, "exact")
        else:
            s._build(triangles, geometry, None, None, glue, parent.mode)
        s._orders = orders(s._vertices)
        s._validate(marked, changed)
        return s

    def _build(self, triangles, vec, num, den, glue, mode):
        self.triangles = tuple(tuple(t) for t in triangles)
        self._vec, self._num, self._den = vec, num, den
        self.glue = dict(glue)
        self.mode = mode
        self._build_incidence()
        self._build_vertices()

    @property
    def vec(self):
        """Edge id -> holonomy vector: QC in exact mode, built from the
        numerators on first read, and complex in float mode."""
        if self._vec is None:
            d = self._den
            self._vec = {e: QC(Fraction(x, d), Fraction(y, d))
                         for e, (x, y) in self._num.items()}
        return self._vec

    # -- combinatorial incidence -----------------------------------------
    def _build_incidence(self):
        tri_of, nxt, prv = {}, {}, {}
        for ti, (a, b, c) in enumerate(self.triangles):
            for e in (a, b, c):
                if e in tri_of:
                    raise GluingMismatch(f"directed edge {e} appears in two triangles")
            tri_of[a] = tri_of[b] = tri_of[c] = ti
            nxt[a], nxt[b], nxt[c] = b, c, a
            prv[a], prv[b], prv[c] = c, a, b
        self._tri_of, self._next, self._prev = tri_of, nxt, prv

    def _build_vertices(self):
        """Vertex orbits of the corner walk e -> glue(prev(e))."""
        vertex_of = {}
        vertices = {}
        for e0 in sorted(self._tri_of):
            if e0 in vertex_of:
                continue
            orbit = []
            e = e0
            while e not in vertex_of:
                vertex_of[e] = e0
                orbit.append(e)
                p = self._prev[e]
                if p not in self.glue:
                    raise GluingMismatch(f"edge {p} has no gluing partner")
                e = self.glue[p]
                if e not in self._prev:
                    raise GluingMismatch(f"edge {p} is glued to {e}, "
                                         "an edge of no triangle")
            if vertex_of[e] != e0:
                raise GluingMismatch("corner walk escaped its own orbit")
            vertices[e0] = tuple(orbit)
        self._vertex_of = vertex_of
        self._vertices = vertices
        self._orders = None
        self._components = None
        self._homology = None  # set by homology.homology_data

    # -- validation --------------------------------------------------------
    def _validate(self, marked, triangles):
        """Check the tables, the given triangles, the signs, the marked ids,
        and the orders and topology of every vertex and component."""
        edges = set(self._tri_of)
        exact = self.mode == "exact"
        if set(self._num if exact else self._vec) != edges:
            raise GluingMismatch("edge-vector table does not match triangle edges")
        if set(self.glue) != edges:
            raise GluingMismatch("gluing table does not match triangle edges")
        for e, f in self.glue.items():
            if f == e:
                raise GluingMismatch(f"edge {e} glued to itself")
            if self.glue.get(f) != e:
                raise GluingMismatch(f"gluing not involutive at ({e}, {f})")
        if exact:
            self._check_triangles_exact(triangles)
        else:
            self._check_triangles_float(triangles)
        # the gluing relation vec(e') = -sigma*vec(e) fixes sigma
        self.sign = {}
        for e, f in self.glue.items():
            if e in self.sign:
                continue
            if exact:
                ne, nf = self._num[e], self._num[f]
                sg = 1 if nf == (-ne[0], -ne[1]) else -1 if nf == ne else 0
            else:
                ve, vf = self._vec[e], self._vec[f]
                # the tighter of the two sides' tolerances 1e-9*max(1, |v|)
                tol = 1e-9 * max(1.0, min(abs(complex(ve)), abs(complex(vf))))
                sg = (1 if abs(complex(vf + ve)) <= tol
                      else -1 if abs(complex(vf - ve)) <= tol else 0)
            if not sg:
                raise GluingMismatch(f"vec({f}) != +-vec({e})")
            self.sign[e] = self.sign[f] = sg
        for e in marked:
            if e not in self._vertex_of:
                raise SurfaceError(f"marked vertex {e} is not a vertex id")
        self.marked = frozenset(self._vertex_of[e] for e in marked)
        for v, o in self.orders().items():
            if o < -1:
                raise NonIntegerOrder(f"vertex {v} has order {o} < -1")
            if o == -1 and v not in self.marked:
                raise UnmarkedPole(f"pole at unmarked vertex {v}")
        for comp in self.components():
            g = self.component_genus(comp)
            m = sum(1 for v in self.marked if v in comp["vertices"])
            if 2 * g - 2 + m <= 0:
                raise SurfaceError(
                    f"component violates 2g-2+m>0 (g={g}, m={m})"
                )

    def _check_triangles_exact(self, triangles):
        """Nonzero edges, closure and positive orientation, on numerators."""
        num = self._num
        for ti in triangles:
            a, b, c = self.triangles[ti]
            va, vb, vc = num[a], num[b], num[c]
            for e, v in ((a, va), (b, vb), (c, vc)):
                if v == (0, 0):
                    raise DegenerateTriangle(f"zero edge vector on edge {e}")
            sx, sy = va[0] + vb[0] + vc[0], va[1] + vb[1] + vc[1]
            if sx or sy:
                s = QC(Fraction(sx, self._den), Fraction(sy, self._den))
                raise ClosureViolation(f"triangle {ti} does not close: sum {s!r}")
            if icross(va, vb) <= 0:
                raise DegenerateTriangle(f"triangle {ti} not positively oriented")

    def _check_triangles_float(self, triangles):
        vec = self._vec
        for ti in triangles:
            a, b, c = self.triangles[ti]
            va, vb, vc = vec[a], vec[b], vec[c]
            for e, v in ((a, va), (b, vb), (c, vc)):
                if is_zero(v):
                    raise DegenerateTriangle(f"zero edge vector on edge {e}")
            scale = max(abs(complex(va)), abs(complex(vb)), abs(complex(vc)))
            if abs(complex(va + vb + vc)) > 1e-9 * scale:
                raise ClosureViolation(f"triangle {ti} does not close")
            if cross(va, vb) <= 0:
                raise DegenerateTriangle(f"triangle {ti} not positively oriented")

    # -- basic queries ------------------------------------------------------
    def edges(self):
        return sorted(self._tri_of)

    def triangle_of(self, e):
        return self._tri_of[e]

    def next_edge(self, e):
        return self._next[e]

    def prev_edge(self, e):
        return self._prev[e]

    def vertex_at_tail(self, e):
        return self._vertex_of[e]

    def vertex_at_head(self, e):
        return self._vertex_of[self._next[e]]

    def vertices(self):
        return sorted(self._vertices)

    def vertex_corners(self, v):
        """Directed edges whose tail sits at v, in rotational order."""
        return self._vertices[v]

    def num_geometric_edges(self):
        return len(self._tri_of) // 2

    def euler_characteristic(self):
        return len(self._vertices) - self.num_geometric_edges() + len(self.triangles)

    # -- components ---------------------------------------------------------
    def components(self):
        """Connected components as dicts with triangle, vertex sets."""
        if self._components is not None:
            return self._components
        seen = set()
        comps = []
        for t0 in range(len(self.triangles)):
            if t0 in seen:
                continue
            stack, tris = [t0], set()
            while stack:
                t = stack.pop()
                if t in tris:
                    continue
                tris.add(t)
                for e in self.triangles[t]:
                    nb = self._tri_of[self.glue[e]]
                    if nb not in tris:
                        stack.append(nb)
            seen |= tris
            verts = {self._vertex_of[e] for t in tris for e in self.triangles[t]}
            nedges = sum(3 for _ in tris) // 2
            comps.append({"triangles": frozenset(tris), "vertices": frozenset(verts),
                          "n_edges": nedges})
        self._components = comps
        return comps

    def is_connected(self):
        return len(self.components()) == 1

    def component_genus(self, comp):
        chi = len(comp["vertices"]) - comp["n_edges"] + len(comp["triangles"])
        if chi % 2 != 0:
            raise SurfaceError("odd Euler characteristic")
        return (2 - chi) // 2

    def genus(self):
        if not self.is_connected():
            raise SurfaceError("genus of a disconnected surface is per-component")
        return self.component_genus(self.components()[0])

    # -- metric quantities ----------------------------------------------------
    def triangle_area(self, ti):
        a, b, _ = self.triangles[ti]
        if self.mode == "exact":
            return Fraction(icross(self._num[a], self._num[b]), 2 * self._den ** 2)
        return cross(self._vec[a], self._vec[b]) / 2

    def orders(self):
        """Map vertex id -> integer order o_p (cone angle (o_p+2)*pi)."""
        if self._orders is not None:
            return self._orders
        out = {}
        for v, corner_edges in self._vertices.items():
            out[v] = self._vertex_order(corner_edges)
        self._orders = out
        return out

    def _vertex_order(self, corner_edges):
        if self.mode == "exact":
            return self._vertex_order_exact(corner_edges)
        return self._vertex_order_float(corner_edges)

    def _vertex_order_exact(self, corner_edges):
        # develop the corner star into the chart of the first edge u0: the
        # corner at e turns vec(e) counterclockwise onto w = -vec(prev(e)),
        # and the gluing sign across prev(e) carries the chart on.  Count the
        # real-axis events of the developed direction relative to u0 (each
        # corner turns by less than pi, so events = multiples of pi swept).
        # Everything runs on the numerators: the denominator scales every
        # cross product by den**2 > 0 and keeps its sign.
        num = self._num
        u0 = num[corner_edges[0]]
        chart = 1
        side = 0
        events = 0
        for e in corner_edges:
            p = self._prev[e]
            w = (-num[p][0], -num[p][1])
            if icross(num[e], w) <= 0:
                raise DegenerateTriangle("corner with nonpositive turn")
            prev_side = side
            side = chart * icross(u0, w)
            if (prev_side > 0 and side <= 0) or (prev_side < 0 and side >= 0):
                events += 1
            chart *= self.sign[p]
        if side != 0:
            raise NonIntegerOrder("cone angle is not an integer multiple of pi")
        # the walk closes on chart*u0, so chart is the sign of the turn
        if (chart > 0) != (events % 2 == 0):
            raise NonIntegerOrder("inconsistent holonomy around vertex")
        return events - 2

    def _vertex_order_float(self, corner_edges):
        import math

        total = 0.0
        for e in corner_edges:
            u = complex(self.vec[e])
            w = complex(-self.vec[self._prev[e]])
            ang = math.atan2(cross(u, w), dot(u, w))
            if ang <= 0:
                raise DegenerateTriangle("corner with nonpositive turn")
            total += ang
        k = round(total / math.pi)
        if abs(total - k * math.pi) > FLOAT_ANGLE_TOL * math.pi * max(1, len(corner_edges)):
            raise NonIntegerOrder(
                f"cone angle {total!r} not an integer multiple of pi"
            )
        return k - 2

    # -- rebuilders -----------------------------------------------------------
    def with_edge_vectors(self, new_vec, mode=None):
        """New surface with the same combinatorics and fresh edge vectors.

        Gluing signs are re-derived from the new vectors (vec(e') must equal
        +-vec(e) exactly); this keeps deformations honest.
        """
        return FlatSurface(self.triangles, new_vec, self.glue, self.marked,
                           mode or self.mode)

    def scaled(self, factor):
        """Scale every edge vector by a scalar (real or complex)."""
        if self.mode == "exact" and not isinstance(factor, (int, Fraction, QC)):
            return self.to_float().scaled(complex(factor))
        return self.with_edge_vectors({e: factor * v for e, v in self.vec.items()})

    def to_float(self):
        if self.mode == "float":
            return self
        # x/d is the correctly rounded quotient, as float(Fraction(x, d)) is
        d = self._den
        return self.with_edge_vectors({e: complex(x / d, y / d)
                                       for e, (x, y) in self._num.items()},
                                      mode="float")


# ---------------------------------------------------------------------------
# module operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StratumSymbol:
    """Stratum symbol: free marked points, poles, zero orders, squareness."""

    m_free: int
    n_poles: int
    n_zeros: tuple  # sorted tuple of (order, count), orders >= 1
    epsilon: int

    def order_sum(self):
        return -self.n_poles + sum(l * n for l, n in self.n_zeros)

    def as_json(self):
        return {
            "m_free": self.m_free,
            "n_poles": self.n_poles,
            "n_zeros": [[l, n] for l, n in self.n_zeros],
            "epsilon": self.epsilon,
        }

    def __str__(self):
        zeros = ",".join(f"{l}^{n}" if n > 1 else f"{l}" for l, n in self.n_zeros)
        return (f"(m={self.m_free}, poles={self.n_poles}, "
                f"zeros=[{zeros}], eps={self.epsilon:+d})")


def make_symbol(m_free, n_poles, zeros, epsilon):
    items = tuple(sorted((int(l), int(n)) for l, n in dict(zeros).items() if n))
    for l, n in items:
        if l < 1 or n < 1:
            raise InconsistentSymbol(f"bad zero entry ({l},{n})")
    return StratumSymbol(int(m_free), int(n_poles), items, int(epsilon))


def build_surface(raw):
    """Validate a raw surface description (parsed JSON dict) -> FlatSurface."""
    from .io_json import surface_from_dict

    return surface_from_dict(raw)


def make_surface(triangles, vectors, gluings, marked=(), mode="exact"):
    """Programmatic constructor.

    ``gluings`` is an iterable of (e, e', sign); both directions are stored.
    Each declared sign must be the one the vectors fix, and each marked id
    must be a vertex id.
    """
    glue, sign = {}, {}
    for e, f, s in gluings:
        glue[e], glue[f] = f, e
        sign[e] = sign[f] = s
    marked = list(marked)
    s = FlatSurface(triangles, vectors, glue, marked, mode)
    for e, f in glue.items():
        if sign[e] != s.sign[e]:
            raise GluingMismatch(f"vec({f}) != -sigma*vec({e}) for the declared "
                                 f"sign {sign[e]!r}")
    for v in marked:
        if v not in s.marked:
            raise SurfaceError(f"marked vertex {v} is not a vertex id")
    return s


def area(s: FlatSurface):
    """Total flat area = L1 norm of the represented differential."""
    if s.mode == "exact":
        num = s._num
        return Fraction(sum(icross(num[a], num[b]) for a, b, _ in s.triangles),
                        2 * s._den ** 2)
    total = None
    for ti in range(len(s.triangles)):
        a = s.triangle_area(ti)
        total = a if total is None else total + a
    return total


def sign_cocycle_is_coboundary(s: FlatSurface):
    """True iff the +-1 gluing cocycle is trivial (the differential is a
    global square).  BFS 2-coloring of the triangle adjacency graph."""
    color = {}
    for t0 in range(len(s.triangles)):
        if t0 in color:
            continue
        color[t0] = 1
        stack = [t0]
        while stack:
            t = stack.pop()
            for e in s.triangles[t]:
                f = s.glue[e]
                t2 = s.triangle_of(f)
                want = color[t] * s.sign[e]
                if t2 not in color:
                    color[t2] = want
                    stack.append(t2)
                elif color[t2] != want:
                    return False
    return True


def symbol(s: FlatSurface) -> StratumSymbol:
    """Stratum symbol of a connected surface."""
    if not s.is_connected():
        raise SurfaceError("symbol is defined for connected surfaces")
    orders = s.orders()
    m_free = sum(1 for v in s.marked if orders[v] == 0)
    n_poles = sum(1 for o in orders.values() if o == -1)
    zeros = {}
    for o in orders.values():
        if o >= 1:
            zeros[o] = zeros.get(o, 0) + 1
    eps = 1 if sign_cocycle_is_coboundary(s) else -1
    return make_symbol(m_free, n_poles, zeros, eps)


def stratum_dim(p: StratumSymbol, g: int) -> int:
    """Complex dimension of the stratum with symbol p in genus g."""
    if p.order_sum() != 4 * g - 4:
        raise InconsistentSymbol(
            f"order sum {p.order_sum()} != 4g-4 = {4 * g - 4}"
        )
    if p.epsilon == 1:
        if p.n_poles:
            raise InconsistentSymbol("square differential with poles")
        if any(l % 2 for l, _ in p.n_zeros):
            raise InconsistentSymbol("square differential with odd-order zero")
    if p.epsilon not in (1, -1):
        raise InconsistentSymbol("epsilon must be +-1")
    twice = 4 * g + (p.epsilon - 3) + 2 * p.m_free + 2 * (p.n_poles + sum(n for _, n in p.n_zeros))
    if twice % 2 != 0:
        raise InconsistentSymbol("non-integer dimension")
    return twice // 2
