"""Orientation double cover of a half-translation surface.

The cover is built fiber-wise: every base triangle gets two sheets, and the
sheet transition across a glued edge pair is the identity when the gluing
sign is +1 and the sheet swap when it is -1.  On the cover all gluings are
translations (+1) and the edge-vector cochain is a single-valued abelian
differential.  The covering involution exchanges sheets and negates every
edge vector.

Branch points appear by themselves: around a base vertex of odd order the
sheet monodromy is -1, so the two lifted vertex stars merge into a single
cone point of doubled angle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GluingMismatch, InputFormatError, SurfaceError
from .surface import FlatSurface


@dataclass(frozen=True)
class SigmaClassification:
    """Partition of the special points of a surface (base vertex ids)."""

    sigma_o: frozenset        # odd-order singular points (poles included)
    sigma_e: frozenset        # even-order zeros
    sigma_m_free: frozenset   # marked points that are regular
    sigma_sm: frozenset       # marked singular points
    sigma_ub: frozenset       # unbranched special points: sigma_e | sigma_m_free

    def as_json(self):
        return {
            "sigma_o": sorted(self.sigma_o),
            "sigma_e": sorted(self.sigma_e),
            "sigma_m_free": sorted(self.sigma_m_free),
            "sigma_sm": sorted(self.sigma_sm),
            "sigma_ub": sorted(self.sigma_ub),
        }


def classify_points(s: FlatSurface) -> SigmaClassification:
    orders = s.orders()
    sigma_o = frozenset(v for v, o in orders.items() if o >= -1 and o % 2 != 0)
    sigma_e = frozenset(v for v, o in orders.items() if o >= 2 and o % 2 == 0)
    sigma_m_free = frozenset(v for v in s.marked if orders[v] == 0)
    singular = frozenset(v for v, o in orders.items() if o != 0)
    sigma_sm = frozenset(s.marked) & singular
    cls = SigmaClassification(
        sigma_o=sigma_o,
        sigma_e=sigma_e,
        sigma_m_free=sigma_m_free,
        sigma_sm=sigma_sm,
        sigma_ub=sigma_e | sigma_m_free,
    )
    if len(sigma_o) % 2 != 0:
        raise SurfaceError("odd number of non-orientable singularities")
    return cls


class DoubleCover:
    """The orientation double cover with its involution and projection.

    ``cover_surface`` is itself a :class:`FlatSurface` (possibly with two
    components when the base differential is a square).  Cover directed-edge
    ids are ``2*i + sheet`` where ``i`` is the index of the base edge in
    sorted order, and cover triangle ``2*ti + sheet`` lies over base triangle
    ``ti``; this makes the involution the cheap bit flip ``id ^ 1`` on both.
    """

    def __init__(self, base: FlatSurface):
        self.base = base
        base_edges = base.edges()
        self._edge_index = {e: i for i, e in enumerate(base_edges)}
        self._edge_list = base_edges

        cover_tris = [tuple(self.lift_edge(e, sheet) for e in tri)
                      for tri in base.triangles for sheet in (0, 1)]

        # sheet 1 carries the negated vectors; in exact mode they are the
        # base numerators over the base denominator
        exact = base.mode == "exact"
        vec = {}
        for e in base_edges:
            v = base._num[e] if exact else base.vec[e]
            vec[self.lift_edge(e, 0)] = v
            vec[self.lift_edge(e, 1)] = (-v[0], -v[1]) if exact else -v

        glue = {}
        for e in base_edges:
            flip = base.sign[e] < 0
            for sheet in (0, 1):
                glue[self.lift_edge(e, sheet)] = self.lift_edge(base.glue[e],
                                                                sheet ^ flip)

        # every preimage of a marked base vertex v is marked: v is also an
        # edge id, and its two lifts have their tails on all the preimages
        marked_up = [self.lift_edge(v, sheet) for v in base.marked
                     for sheet in (0, 1)]
        base_orders = base.orders()

        def lifted_orders(vertices):
            # a cover vertex over b turns once around b on each sheet it
            # meets, so it has the angle (o_b + 2)*pi twice when b has one
            # preimage and once when it has two
            self._vertex_fiber = {}
            over = {}
            for cv in vertices:
                over[cv] = base.vertex_at_tail(self.project_edge(cv)[0])
                self._vertex_fiber.setdefault(over[cv], []).append(cv)
            return {cv: 2 * (base_orders[b] + 2) // len(self._vertex_fiber[b]) - 2
                    for cv, b in over.items()}

        # each lifted triangle is a base triangle with its three vectors
        # kept or all negated, so it is as valid as the base one
        self.cover_surface = FlatSurface._derived(base, cover_tris, vec, glue,
                                                  marked_up, (), lifted_orders)
        self.classification = classify_points(base)
        self._check()

    # -- index maps ---------------------------------------------------------
    def lift_edge(self, base_edge, sheet):
        return 2 * self._edge_index[base_edge] + sheet

    def project_edge(self, cover_edge):
        return self._edge_list[cover_edge // 2], cover_edge % 2

    def involution_edge(self, cover_edge):
        return cover_edge ^ 1

    def involution_triangle(self, cover_tri):
        return cover_tri ^ 1

    def vertex_fiber(self, base_vertex):
        return tuple(sorted(self._vertex_fiber.get(base_vertex, ())))

    def quotient_surface(self) -> FlatSurface:
        """The base surface (sheet-0 edge vectors, original cocycle)."""
        return self.base

    def lifted_sigma(self):
        """Preimages of each Sigma set as cover vertex sets."""
        cls = self.classification
        out = {}
        for name in ("sigma_o", "sigma_e", "sigma_m_free", "sigma_sm", "sigma_ub"):
            pts = getattr(cls, name)
            out[name] = frozenset(v for p in pts for v in self.vertex_fiber(p))
        return out

    # -- consistency --------------------------------------------------------
    def _check(self):
        c = self.cover_surface
        if any(sg != 1 for sg in c.sign.values()):
            raise GluingMismatch("cover gluing is not a translation")
        if c.mode == "exact":
            for f in c.edges():
                x, y = c._num[f]
                if c._num[self.involution_edge(f)] != (-x, -y):
                    raise SurfaceError("involution does not negate edge vectors")
        for p in self.classification.sigma_ub:
            if len(self.vertex_fiber(p)) != 2:
                raise SurfaceError(f"unbranched point {p} has wrong fiber")
        for p in self.classification.sigma_o:
            if len(self.vertex_fiber(p)) != 1:
                raise SurfaceError(f"branch point {p} has wrong fiber")
        chi_base = self.base.euler_characteristic()
        chi_cover = c.euler_characteristic()
        if chi_cover != 2 * chi_base - len(self.classification.sigma_o):
            raise SurfaceError("cover Euler characteristic mismatch")

    # -- reporting ------------------------------------------------------------
    def summary(self):
        c = self.cover_surface
        comps = c.components()
        return {
            "connected": len(comps) == 1,
            "components": len(comps),
            "euler_characteristic": c.euler_characteristic(),
            "genus_per_component": sorted(c.component_genus(k) for k in comps),
            "branch_points": len(self.classification.sigma_o),
        }

    def as_json(self):
        from .io_json import surface_to_dict

        inv_edges = {str(f): self.involution_edge(f)
                     for f in self.cover_surface.edges()}
        proj_edges = {str(f): list(self.project_edge(f))
                      for f in self.cover_surface.edges()}
        return {
            "base": surface_to_dict(self.base),
            "cover": surface_to_dict(self.cover_surface),
            "involution_edges": inv_edges,
            "projection_edges": proj_edges,
            "classification": self.classification.as_json(),
            "lifted_sigma": {k: sorted(v) for k, v in self.lifted_sigma().items()},
            "summary": self.summary(),
        }


def build_cover(s: FlatSurface) -> DoubleCover:
    return DoubleCover(s)


def cover_from_dict(raw) -> DoubleCover:
    """Rebuild a cover from its JSON form (reconstructs from the base)."""
    from .io_json import surface_from_dict

    if not isinstance(raw, dict) or "base" not in raw:
        raise InputFormatError("cover description must be a JSON object "
                               "with a \"base\" surface")
    return DoubleCover(surface_from_dict(raw["base"]))
